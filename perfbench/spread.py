#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's median and spread.

    python3 perfbench/spread.py --workload sim2-highd --seeds 1-5
    python3 perfbench/spread.py --workload all --seeds 1-10 --trace 0 --json out.json

Runs go one after another, each in its own process, with BENCHMARK.json's
command and run_seconds. For every metric of the summary line it prints the
median, the quartiles from ``statistics.quantiles(values, n=4)`` and the
spread (Q3 - Q1) / median, next to the metric's bound. ``--json`` writes the
values, the model sha256 per seed and the report of the first seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(t) for t in text.split(",")]


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else None}


def run_workload(spec, workload, seeds, trace) -> dict:
    values, shas, walls, first_report = {}, {}, [], None
    seconds = spec["run_seconds"]
    for seed in seeds:
        cmd = [sys.executable if spec["command"][0] == "python3" else spec["command"][0],
               *spec["command"][1:], "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
        t0 = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        wall = time.monotonic() - t0
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        report, summary = json.loads(lines[-2]), json.loads(lines[-1])
        first_report = first_report or report
        shas[seed] = report["model_sha256"]
        for name, rec in summary["metrics"].items():
            values.setdefault(name, []).append(rec["value"])
        walls.append(wall)
        print(f"  {workload} seed {seed}: {wall:.1f} s", file=sys.stderr)
    return {"seeds": seeds, "trace": trace, "seconds": seconds,
            "metrics": {name: summarize(v) for name, v in values.items()},
            "model_sha256": shas, "wall_s": walls, "report": first_report}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", help=f"one of {names} or all")
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-5"), metavar="A-B|A,B,...")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--json", type=Path, default=None)
    args = p.parse_args(argv)
    if len(args.seeds) < 2:
        p.error("statistics.quantiles needs at least two seeds")
    workloads = names if args.workload == "all" else [args.workload]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    out = {}
    for w in workloads:
        res = run_workload(spec, w, args.seeds, args.trace)
        out[w] = res
        print(f"{w} (trace {args.trace}, seeds {args.seeds[0]}..{args.seeds[-1]})")
        for name, s in res["metrics"].items():
            bound = bounds.get(name)
            spread = "-" if s["spread"] is None else f"{s['spread']:.4f}"
            flag = "" if bound is None or s["spread"] is None else (
                "  ok" if s["spread"] < bound / 3 else "  WIDE")
            print(f"  {name:32s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
                  f"spread {spread}  bound {bound}{flag}")
    if args.json:
        args.json.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
