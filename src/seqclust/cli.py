"""Command line interface: generate / fit / eval / bench.

All randomness flows from --seed (default 0); running the same seeded
command twice produces identical output files. Numbers printed to stdout use
full float precision so they can be compared across commands.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .bench import ALGORITHMS, OVERRIDES, PRESET_NAMES, fit, load_experiment, run_experiment
from .core import _write_json, assign_nearest, read_csv, read_model, write_model
from .datagen import generate, save_dataset
from .kmedians import GainConfig
from .metrics import cer, empirical_l1_risk


def _int_list(text):
    try:
        return [int(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _float_list(text):
    try:
        return [float(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="seqclust",
                                description="Single-pass robust clustering toolkit")
    p.add_argument("--version", action="version", version=f"seqclust {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic dataset CSV plus JSON sidecar")
    gsub = g.add_subparsers(dest="generator", required=True)
    g1 = gsub.add_parser("sim1", help="contaminated 3-component bivariate mixture")
    g1.add_argument("--n", type=int, required=True)
    g1.add_argument("--epsilon", type=float, default=0.0)
    g2 = gsub.add_parser("sim2", help="contaminated sinusoidal mixture with AR(1) noise")
    g2.add_argument("--n", type=int, required=True)
    g2.add_argument("--d", type=int, required=True)
    g2.add_argument("--epsilon", type=float, default=0.0)
    g2.add_argument("--scale", type=float, default=1.0)
    g3 = gsub.add_parser("profiles", help="binary viewing profiles for runtime studies")
    g3.add_argument("--n", type=int, default=5422)
    g3.add_argument("--d", type=int, default=1440)
    for gp in (g1, g2, g3):
        gp.add_argument("--seed", type=int, default=0)
        gp.add_argument("-o", "--output", required=True, metavar="OUT.csv")

    f = sub.add_parser("fit", help="fit cluster centers to a dataset CSV")
    f.add_argument("--algorithm", choices=ALGORITHMS, required=True)
    f.add_argument("--data", required=True, metavar="DATA.csv")
    f.add_argument("--k", type=int, required=True)
    f.add_argument("--restarts", type=int, default=10)
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--shuffle", action="store_true",
                   help="present rows in a seeded random order instead of file order")
    f.add_argument("--c-gamma", type=float, default=None, help="gain constant (kmedians)")
    f.add_argument("--c-alpha", type=float, default=1.0)
    f.add_argument("--alpha", type=float, default=0.75)
    f.add_argument("--bound-check", action="store_true",
                   help="assert the center-norm bound at every step (kmedians)")
    f.add_argument("-o", "--output", default=None, metavar="MODEL.json")

    e = sub.add_parser("eval", help="evaluate a stored model on a dataset CSV")
    e.add_argument("--model", required=True, metavar="MODEL.json")
    e.add_argument("--data", required=True, metavar="DATA.csv")
    e.add_argument("-o", "--output", default=None, metavar="METRICS.json")

    b = sub.add_parser("bench", help="run a named preset or a JSON experiment spec")
    b.add_argument("experiment",
                   help=f"preset name ({', '.join(PRESET_NAMES)}) or path to a spec JSON")
    b.add_argument("--seed", type=int, default=None)
    b.add_argument("--replications", type=int, default=None)
    b.add_argument("--restarts", type=int, default=None)
    b.add_argument("--c-grid", type=_float_list, default=None, metavar="C1,C2,...")
    b.add_argument("--sizes", type=_int_list, default=None, metavar="N1,N2,...")
    b.add_argument("--ks", type=_int_list, default=None, metavar="K1,K2,...")
    b.add_argument("--jobs", type=int, default=1)
    b.add_argument("-o", "--outdir", default=".", metavar="DIR")
    return p


def cmd_generate(args) -> int:
    ds, cfg = generate(args.generator, vars(args))
    sidecar = save_dataset(ds, args.output, args.generator, cfg)
    n_out = int(ds.outlier_flags.sum()) if ds.outlier_flags is not None else 0
    print(f"wrote {args.output} (n={ds.n}, d={ds.d}, outliers={n_out})")
    print(f"wrote {sidecar}")
    return 0


def cmd_fit(args) -> int:
    data = read_csv(args.data)
    gain = None  # only kmedians takes a gain, and GainConfig rejects a missing one
    if args.algorithm == "kmedians":
        if args.c_gamma is None:
            raise ValueError("fit kmedians needs --c-gamma (or use kmedians-auto)")
        gain = GainConfig(c_gamma=args.c_gamma, c_alpha=args.c_alpha, alpha=args.alpha)
    report = fit(args.algorithm, data, args.k, gain=gain, restarts=args.restarts,
                 seed=args.seed, shuffle=args.shuffle, bound_check=args.bound_check)
    print(f"algorithm={report.algorithm}")
    print(f"n={data.n}")
    print(f"d={data.d}")
    print(f"k={report.k}")
    print(f"risk={report.risk!r}")
    if report.c_gamma is not None:
        print(f"c_gamma={float(report.c_gamma)!r}")
    if report.algorithm in ("kmedians", "kmedians-auto"):
        print(f"skips={report.skips}")
        print(f"updates={report.n_updates}")
    print(f"restart={report.restart}")
    print(f"wall_time={report.wall_time:.4f}")
    if args.output:
        write_model(report, args.output)
        print(f"wrote {args.output}")
    return 0


def cmd_eval(args) -> int:
    model = read_model(args.model)
    data = read_csv(args.data)
    centers = model["centers"]
    risk = empirical_l1_risk(data, centers)
    print(f"algorithm={model['algorithm']}")
    print(f"risk={risk!r}")
    metrics = {"algorithm": model["algorithm"], "risk": risk, "n": data.n, "d": data.d}
    if data.labels is not None:
        pred = assign_nearest(data.X, centers)
        score = cer(pred, data.labels, data.outlier_flags)
        print(f"cer={score!r}")
        metrics["cer"] = score
    else:
        print("cer=unavailable (dataset has no labels)")
    if args.output:
        _write_json(metrics, args.output)
        print(f"wrote {args.output}")
    return 0


def cmd_bench(args) -> int:
    spec = load_experiment(args.experiment,
                           **{key: getattr(args, key, None) for key in OVERRIDES})
    if args.jobs >= 1:  # run_experiment rejects the rest; fail before any cell runs
        Path(args.outdir).mkdir(parents=True, exist_ok=True)
    table = run_experiment(spec, jobs=args.jobs)
    for path in table.write(args.outdir):
        print(f"wrote {path}")
    bad = table.failed_cells()
    if bad:
        print(f"{bad} cell(s) failed", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "generate":
            return cmd_generate(args)
        if args.command == "fit":
            return cmd_fit(args)
        if args.command == "eval":
            return cmd_eval(args)
        return cmd_bench(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
