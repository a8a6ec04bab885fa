#!/usr/bin/env python3
"""Layered benchmark of seqclust: run one workload in one process.

    python3 perfbench/run.py --workload sim1-lowd --seed 1 --seconds 40 --trace 0

Run it from the repository root; the package is imported from ``src`` as
the tests do. The output is two JSON lines. The first is the full report:
every metric by name with its unit, the checks, the model JSON sha256 and
the provenance. The last is the summary: the metrics that BENCHMARK.json
lists, its end-to-end ones untraced (``--trace 0``) or its per-layer ones
traced (``--trace 1``). The report, and the spans of a traced run, are also
written under ``--out``.

Exit status: 0 when every operation and correctness check passed, 1 when one
failed (the summary says ``"correct": false``), 2 without any result when
the package source or BENCHMARK.json is missing or the workload is unknown.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import signal
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Single-threaded BLAS/OpenMP: at most nproc threads, and steadier timings.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
THREADS = "1"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, default=ROOT / ".perfbench-out",
                   help="directory for the report and spans (default: .perfbench-out)")
    return p.parse_args(argv)


def git_revision(root: Path):
    """HEAD commit of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.is_file():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_threads(np):
    """Thread count the loaded OpenBLAS reports, or None where it cannot be asked."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def provenance(np, seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads(np),
                 "thread_env": {v: os.environ.get(v) for v in THREAD_VARS}},
        "git_revision": git_revision(ROOT),
        "seed": seed,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    # exit through the normal path on SIGTERM so the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    for var in THREAD_VARS:
        os.environ[var] = THREADS
    src = ROOT / "src"
    spec_path = ROOT / "BENCHMARK.json"
    if not (src / "seqclust" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: run from a seqclust checkout; {src / 'seqclust'} or {spec_path} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy as np
    import seqclust

    if Path(seqclust.__file__).resolve().parent != (src / "seqclust").resolve():
        print(f"error: imported seqclust from {seqclust.__file__}, not from {src}", file=sys.stderr)
        return 2
    from harness import Run
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    workload = WORKLOADS[args.workload]
    traced = bool(args.trace)

    listed = [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-work-") as tmp:
        run = Run(workload, args.seed, Path(tmp), traced)
        if run.setup():
            run.measure(args.seconds)
        metrics, absent = run.results(listed)
    correct = run.failed == 0
    report = {
        "workload": workload.name,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == workload.name),
        "params": {"k": workload.k, "restarts": workload.restarts,
                   "c_gamma": workload.c_gamma, "pam_rows": workload.pam_rows,
                   "n": run.ds.n if hasattr(run, "ds") else None,
                   "d": run.ds.d if hasattr(run, "ds") else None},
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "checks": {name: {"passed": p, "failed": f} for name, (p, f) in sorted(run.checks.items())},
        "failures": run.failures,
        "model_sha256": run.model_sha256,
        "metrics": metrics,
        "absent": absent,
        "provenance": provenance(np, args.seed),
    }
    summary = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name]["value"], "unit": metrics[name]["unit"]}
                    for name in listed if name in metrics},
    }

    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    to_json = {"default": lambda o: o.item()}  # numpy scalars
    (args.out / f"{stem}.json").write_text(json.dumps(report, indent=1, **to_json) + "\n")
    if traced:
        run.tr.write_jsonl(args.out / f"{stem}-spans.jsonl")
    for failure in run.failures:
        print(failure, file=sys.stderr)
    print(json.dumps(report, **to_json))
    print(json.dumps(summary, **to_json))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
