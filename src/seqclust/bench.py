"""Benchmark harness: risk sweeps, contamination/CER studies, timing tables.

An ExperimentSpec names a generator, an algorithm list and grid parameters;
load_experiment builds one from a preset name or a spec JSON file, and
run_experiment expands it into independent cells (replication x size x k x
algorithm x gain constant). Every cell derives its RNG streams from the
master seed and its own grid position, so results do not depend on
execution order or worker count. A failed cell records an error status and
the run continues.

Deterministic outputs (results CSV, summary JSON) never contain wall-clock
times; timing presets write a separate timings CSV that is not expected to
be identical across runs.
"""

from __future__ import annotations

import csv
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .core import _write_json
from .datagen import GENERATORS, generate
from .kmeans import kmeans_fit
from .kmedians import GainConfig, kmedians_fit, kmedians_fit_data_driven
from .metrics import cer
from .pam import pam_fit

__all__ = ["ALGORITHMS", "OVERRIDES", "ExperimentSpec", "ResultTable", "fit",
           "run_experiment", "load_experiment",
           "PRESET_NAMES", "time_fit"]

ALGORITHMS = ("kmeans", "kmedians", "kmedians-auto", "pam")
# spec fields a preset or a spec file may have replaced when it is loaded
OVERRIDES = ("seed", "replications", "restarts", "c_grid", "sizes", "ks", "measure_time")

_COLUMNS = [
    "experiment", "kind", "replication", "n", "d", "k", "algorithm",
    "c_gamma", "restarts", "risk", "cer", "chosen_restart",
    "distance_evals", "status",
]
_TIMING_REPEATS = 5  # timed calls per cell of a timing spec, after one warm-up
_TIMING_COLUMNS = ["experiment", "replication", "n", "d", "k", "algorithm",
                   "c_gamma", "wall_median", "wall_runs"]


@dataclass
class ExperimentSpec:
    """Declarative description of one experiment grid."""

    name: str
    kind: str                      # "sweep" or "cer"
    generator: str
    generator_params: dict
    k: int
    algorithms: list
    restarts: int
    replications: int
    c_grid: list = None
    seed: int = 0
    measure_time: bool = False
    sizes: list = None             # optional n grid overriding generator_params["n"]
    ks: list = None                # optional k grid overriding k

    def validate(self) -> "ExperimentSpec":
        for name in ("name", "kind", "generator"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"{name} must be a string, got {getattr(self, name)!r}")
        if not isinstance(self.generator_params, dict):
            raise ValueError(f"generator_params must be an object, got {self.generator_params!r}")
        for name in ("algorithms", "sizes", "ks", "c_grid"):  # only the grids may be None
            v = getattr(self, name)
            if not isinstance(v, (list, tuple)) and (v is not None or name == "algorithms"):
                raise ValueError(f"{name} must be a list, got {v!r}")
        if self.kind not in ("sweep", "cer"):
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if self.generator not in GENERATORS:
            raise ValueError(f"unknown generator {self.generator!r}")
        for a in self.algorithms:
            if a not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {a!r}")
        if not self.algorithms:
            raise ValueError("empty algorithm list")
        for name in ("replications", "restarts", "k"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {v!r}")
        for grid in ("sizes", "ks"):
            bad = [v for v in getattr(self, grid) or ()
                   if not isinstance(v, (int, np.integer)) or v < 1]
            if bad:
                raise ValueError(f"{grid} entries must be integers >= 1, got {bad[0]!r}")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if "kmedians" in self.algorithms and not self.c_grid:
            raise ValueError("algorithm 'kmedians' needs a non-empty c_grid")
        if self.c_grid is not None:
            cg = [float(c) for c in self.c_grid]
            if any(not np.isfinite(c) or c <= 0 for c in cg):
                raise ValueError("c_grid values must be positive and finite")
            self.c_grid = cg
        if self.kind == "cer" and self.generator == "profiles":
            raise ValueError("CER experiments need a generator with labels")
        if self.generator in ("sim1", "sim2") and "n" not in self.generator_params and not self.sizes:
            raise ValueError("generator_params must set n (or provide sizes)")
        if self.generator == "sim2" and "d" not in self.generator_params:
            raise ValueError("sim2 needs generator_params['d']")
        return self


def fit(algorithm, data, k, *, gain, restarts, seed, shuffle=False, bound_check=False):
    """Fit one of ALGORITHMS. `gain` is the k-medians gain; `shuffle` and
    `bound_check` go to the sequential fits that take them, PAM uses only k."""
    if algorithm == "kmeans":
        return kmeans_fit(data, k, restarts=restarts, seed=seed, shuffle=shuffle)
    if algorithm == "kmedians":
        return kmedians_fit(data, k, gain, restarts=restarts, seed=seed, shuffle=shuffle,
                            bound_check=bound_check)
    if algorithm == "kmedians-auto":
        return kmedians_fit_data_driven(data, k, restarts=restarts, seed=seed,
                                        shuffle=shuffle, bound_check=bound_check)
    if algorithm == "pam":
        return pam_fit(data, k)
    raise ValueError(f"unknown algorithm {algorithm!r}")


def time_fit(fn):
    """Warm-up call plus _TIMING_REPEATS timed calls; returns (result, median, runs)."""
    fn()
    runs = []
    out = None
    for _ in range(_TIMING_REPEATS):
        t0 = time.perf_counter()
        out = fn()
        runs.append(time.perf_counter() - t0)
    return out, float(np.median(runs)), runs


def _run_replication(spec: ExperimentSpec, rep: int):
    rows = []
    timings = []
    sizes = spec.sizes if spec.sizes else [None]
    ks = spec.ks if spec.ks else [spec.k]
    for si, nn in enumerate(sizes):
        params = dict(spec.generator_params, seed=[spec.seed, 0, rep, si])
        if nn is not None:
            params["n"] = nn
        data, _ = generate(spec.generator, params)
        for ki, kk in enumerate(ks):
            for ai, algo in enumerate(spec.algorithms):
                cs = spec.c_grid if (algo == "kmedians" and spec.c_grid) else [None]
                for ci, c in enumerate(cs):
                    row = {
                        "experiment": spec.name, "kind": spec.kind, "replication": rep,
                        "n": data.n, "d": data.d, "k": kk, "algorithm": algo,
                        "c_gamma": c, "restarts": spec.restarts, "risk": None,
                        "cer": None, "chosen_restart": None, "distance_evals": None,
                        "status": "ok",
                    }
                    entropy = [spec.seed, 1, rep, si, ki, ai, ci]
                    try:
                        gain = None if c is None else GainConfig(c_gamma=c)
                        run = lambda: fit(algo, data, kk, gain=gain, restarts=spec.restarts,
                                          seed=entropy)
                        if spec.measure_time:
                            report, med, runs = time_fit(run)
                            timings.append({
                                "experiment": spec.name, "replication": rep,
                                "n": data.n, "d": data.d, "k": kk, "algorithm": algo,
                                "c_gamma": c, "wall_median": med,
                                "wall_runs": ";".join(f"{t:.6f}" for t in runs),
                            })
                        else:
                            report = run()
                        row["risk"] = report.risk
                        row["chosen_restart"] = report.restart
                        row["distance_evals"] = report.distance_evals
                        if algo == "kmedians-auto":
                            row["c_gamma"] = report.c_gamma
                        if spec.kind == "cer":
                            if data.labels is None:
                                raise ValueError("dataset has no labels for CER")
                            row["cer"] = cer(report.assignments, data.labels,
                                             data.outlier_flags)
                    except Exception as exc:  # cell failures must not kill the run
                        row["status"] = f"error: {exc}"
                    rows.append(row)
    return rows, timings


@dataclass
class ResultTable:
    """Tidy result rows for one experiment plus optional timing records."""

    spec: ExperimentSpec
    rows: list = field(default_factory=list)
    timings: list = field(default_factory=list)

    def failed_cells(self) -> int:
        return sum(1 for r in self.rows if r["status"] != "ok")

    def summary(self) -> dict:
        groups = {}
        for r in self.rows:
            if r["status"] != "ok":
                continue
            key = (r["algorithm"], r["c_gamma"], r["n"], r["k"])
            groups.setdefault(key, []).append(r)
        out = []
        for key in sorted(groups, key=lambda t: (t[0], t[1] if t[1] is not None else -1.0, t[2], t[3])):
            rows = groups[key]
            entry = {
                "algorithm": key[0], "c_gamma": key[1], "n": key[2], "k": key[3],
                "count": len(rows),
            }
            for met in ("risk", "cer"):
                vals = np.array([r[met] for r in rows if r[met] is not None], dtype=float)
                if vals.size:
                    entry[f"{met}_mean"] = float(vals.mean())
                    entry[f"{met}_median"] = float(np.median(vals))
                    entry[f"{met}_q1"] = float(np.percentile(vals, 25))
                    entry[f"{met}_q3"] = float(np.percentile(vals, 75))
            out.append(entry)
        return {
            "experiment": self.spec.name,
            "kind": self.spec.kind,
            "spec": asdict(self.spec),
            "cells": len(self.rows),
            "failed_cells": self.failed_cells(),
            "groups": out,
        }

    def write(self, outdir) -> list:
        """Write the results CSV, the summary JSON and, for a timing spec,
        the timings CSV into `outdir`; returns their paths."""
        Path(outdir).mkdir(parents=True, exist_ok=True)
        stem = str(Path(outdir) / self.spec.name)
        paths = [stem + "_results.csv", stem + "_summary.json"]
        _write_rows(paths[0], _COLUMNS, self.rows)
        _write_json(self.summary(), paths[1])
        if self.timings:
            paths.append(stem + "_timings.csv")
            _write_rows(paths[2], _TIMING_COLUMNS, self.timings)
        return paths


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return v


def _write_rows(path, columns, rows) -> None:
    """Write `rows` (dicts) as CSV: a header, then each row's `columns`."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(columns)
        for r in rows:
            w.writerow([_fmt(r[c]) for c in columns])


def run_experiment(spec: ExperimentSpec, jobs: int = 1) -> ResultTable:
    """Run every cell of a sweep or CER spec, over `jobs` worker processes."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    spec.validate()
    table = ResultTable(spec=spec)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            parts = list(ex.map(_run_replication, [spec] * spec.replications,
                                range(spec.replications)))
    else:
        parts = [_run_replication(spec, rep) for rep in range(spec.replications)]
    for rows, timings in parts:
        table.rows.extend(rows)
        table.timings.extend(timings)
    return table


# Presets mirroring the simulation studies. Replication-heavy defaults can be
# overridden from the CLI (--replications, --restarts, --c-grid, --sizes, --ks).
_PRESETS = {
    "fig3": dict(
        kind="sweep", generator="sim1", generator_params={"n": 250, "epsilon": 0.05},
        k=3, algorithms=["kmeans", "kmedians", "pam"], restarts=10,
        replications=50, c_grid=[0.25, 0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 10.0],
    ),
    "fig4": dict(
        kind="sweep", generator="sim2",
        generator_params={"n": 500, "d": 50, "epsilon": 0.05},
        k=3, algorithms=["kmeans", "kmedians", "pam"], restarts=25,
        replications=50, c_grid=[0.25, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0],
    ),
    "fig5": dict(
        kind="sweep", generator="sim2",
        generator_params={"n": 1000, "d": 200, "epsilon": 0.05, "scale": 10.0},
        k=3, algorithms=["kmeans", "kmedians", "pam"], restarts=50,
        replications=50, c_grid=[2.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 40.0],
    ),
    "fig6": dict(
        kind="cer", generator="sim1", generator_params={"n": 500, "epsilon": 0.0},
        k=3, algorithms=["kmeans", "kmedians-auto", "pam"], restarts=10,
        replications=500,
    ),
    "fig7": dict(
        kind="cer", generator="sim1", generator_params={"n": 500, "epsilon": 0.05},
        k=3, algorithms=["kmeans", "kmedians-auto", "pam"], restarts=10,
        replications=500,
    ),
    "fig8": dict(
        kind="cer", generator="sim1", generator_params={"n": 1000, "epsilon": 0.10},
        k=3, algorithms=["kmeans", "kmedians-auto", "pam"], restarts=10,
        replications=500,
    ),
    "fig9": dict(
        kind="cer", generator="sim2",
        generator_params={"n": 500, "d": 50, "epsilon": 0.05},
        k=3, algorithms=["kmeans", "kmedians-auto", "pam"], restarts=25,
        replications=100,
    ),
    "table1": dict(
        kind="sweep", generator="sim1", generator_params={"epsilon": 0.05},
        k=5, ks=[2, 4, 5], sizes=[250, 500, 2000],
        algorithms=["kmedians", "kmeans", "pam"], restarts=1, replications=1,
        c_grid=[1.0], measure_time=True,
    ),
}

PRESET_NAMES = tuple(sorted(_PRESETS))


def load_experiment(experiment: str, **overrides) -> ExperimentSpec:
    """The preset named `experiment`, else the spec file at that path, with
    any OVERRIDES fields replaced; an override of None changes nothing."""
    if experiment in _PRESETS:
        fields = dict(_PRESETS[experiment], name=experiment)
    elif os.path.exists(experiment):
        with open(experiment, "r") as fh:
            fields = json.load(fh)
        if not isinstance(fields, dict):
            raise ValueError(f"{experiment}: spec file must hold a JSON object")
    else:
        raise ValueError(
            f"{experiment!r} is neither a preset ({', '.join(PRESET_NAMES)}) "
            "nor an existing spec file"
        )
    for key, val in overrides.items():
        if val is None:
            continue
        if key not in OVERRIDES:
            raise ValueError(f"preset override {key!r} not supported")
        fields[key] = val
    try:
        spec = ExperimentSpec(**fields)
    except TypeError as exc:
        raise ValueError(f"{experiment}: bad spec fields ({exc})") from exc
    return spec.validate()
