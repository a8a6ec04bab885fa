"""Pins the bytes of the files seqclust writes for valid input.

tests/data/output_hashes.json holds the sha256 of each output case and the
numpy version and platform they were taken on: a generator draws with numpy's
PCG64 streams and libm's sin, sqrt and pow, and the fits sum with numpy's
rules and take the gain with libm's pow, so the bytes hold for one build.
Two sections: `datasets`, the save_dataset CSV and sidecar of each generator
config, and `models`, the write_model file of each fit, stream and resume.
A change that moves bytes on purpose regenerates the file with

    PYTHONPATH=src python tests/test_output_hashes.py

which prints the cases that moved; the change says which moved and why.
"""

import hashlib
import json
import platform
import sys
import tempfile
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from seqclust import (FitReport, GainConfig, core, draw_seeds, kmeans_fit, kmedians_fit,
                      kmedians_fit_data_driven, kmedians_init, kmedians_step, kmedians_stream,
                      normalized_distances, pam_fit, read_model, state_from_model, write_model)
from seqclust.datagen import generate, save_dataset

HASHES = Path(__file__).parent / "data" / "output_hashes.json"

# name -> (generator, params): small configs of each generator
DATASETS = {
    "sim1-contaminated": ("sim1", {"n": 40, "epsilon": 0.1, "seed": 3}),
    "sim1-seed-list": ("sim1", {"n": 7, "seed": [11, 0, 3]}),
    "sim2-scaled": ("sim2", {"n": 30, "d": 5, "epsilon": 0.1, "scale": 10.0, "seed": 4}),
    "sim2-d2": ("sim2", {"n": 12, "d": 2, "seed": 0}),
    # two rows leave at least one of the three components empty
    "sim2-empty-component": ("sim2", {"n": 2, "d": 6, "epsilon": 0.0, "seed": 5}),
    # the sim2-highd benchmark shape at a fifth of its rows
    "sim2-highd-reduced": ("sim2", {"n": 200, "d": 200, "epsilon": 0.05, "scale": 10.0,
                                    "seed": 6}),
    "profiles-small": ("profiles", {"n": 6, "d": 50, "seed": 1}),
    "profiles-seed-list": ("profiles", {"n": 3, "d": 300, "seed": [2, 1]}),
}

# d on both sides of every loop cut-off, and restart counts that walk each
# restart alone (R = 1), alone or batched by the fit's cross-overs (R = 3: by
# R*k*d up to d = 7; above, batched in k-means and alone in k-medians) and
# batched (R = 20)
_DIMS = (1, 2, 7, 8, 9, 50)
_RESTARTS = (1, 3, 20)
_K = 3


@lru_cache(maxsize=None)
def _sample(d) -> np.ndarray:
    """120 rows of a 3-cluster mixture in dimension d, a third of them
    repeats of other rows, in a shuffled order: a row that meets the center
    seeded on it or on its twin before that center moves is a k-medians skip."""
    rng = np.random.default_rng([7, d])
    X = rng.standard_normal((_K, d))[rng.integers(0, _K, 80)] * 4.0
    X += rng.standard_normal((80, d))
    X = np.vstack([X, X[:40]])[rng.permutation(120)]
    X.setflags(write=False)
    return X


def _atom(d) -> np.ndarray:
    """15 copies of one row and one other row: no draw of 3 rows is distinct,
    so every restart's seeds take draw_seeds' jitter."""
    return np.vstack([np.ones((15, d)), np.full((1, d), 3.0)])


def _state_report(state, X) -> FitReport:
    """A k-medians stream state as the report write_model stores, scored on X."""
    D = normalized_distances(X, state.averaged)
    gain = state.gain
    return FitReport("kmedians", state.k, state.d, state.averaged, float(D.min(axis=1).mean()),
                     D.argmin(axis=1), n_queries=state.n_seen,
                     n_updates=int(state.update_counts.sum()), skips=state.skips,
                     raw_centers=state.raw, update_counts=state.update_counts,
                     c_gamma=gain.c_gamma, c_alpha=gain.c_alpha, alpha=gain.alpha)


def _chunked(X, gain, bound_K=None):
    state = kmedians_init(draw_seeds(X, _K, np.random.default_rng(1)), gain, bound_K=bound_K)
    for start in range(0, len(X), 16):
        state = kmedians_stream(state, X[start:start + 16])
    return _state_report(state, X)


def _stepwise(X, gain):
    state = kmedians_init(draw_seeds(X, _K, np.random.default_rng(1)), gain)
    for z in X:
        state = kmedians_step(state, z)
    return _state_report(state, X)


def _resumed(X, gain):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "half.json"
        write_model(kmedians_fit(X[:60], _K, gain, restarts=3, seed=2), path)
        state = state_from_model(read_model(path))
    return _state_report(kmedians_stream(state, X[60:]), X)


_C = GainConfig(c_gamma=2.0)
_C_PER_CLUSTER = GainConfig(c_gamma=[0.5, 2.0, 4.0], c_alpha=0.5, alpha=0.9)


def _model_cases() -> dict:
    """name -> zero-argument call returning the FitReport of the case."""
    cases = {}
    for d in _DIMS:
        X = _sample(d)
        for R in _RESTARTS:
            cases[f"kmeans-d{d}-R{R}"] = lambda X=X, R=R: kmeans_fit(X, _K, restarts=R, seed=5)
            cases[f"kmedians-d{d}-R{R}"] = lambda X=X, R=R: kmedians_fit(
                X, _K, _C, restarts=R, seed=5)
            cases[f"kmedians-per-cluster-shuffle-bound-d{d}-R{R}"] = lambda X=X, R=R: (
                kmedians_fit(X, _K, _C_PER_CLUSTER, restarts=R, seed=5, shuffle=True,
                             bound_check=True))
            cases[f"kmedians-auto-d{d}-R{R}"] = lambda X=X, R=R: kmedians_fit_data_driven(
                X, _K, restarts=R, seed=5)
        cases[f"pam-d{d}"] = lambda X=X: pam_fit(X, _K)
    for d in (2, 9):  # the scalar and the numpy loop of a lone state
        X = _sample(d)
        cases[f"kmeans-jitter-d{d}-R3"] = lambda d=d: kmeans_fit(_atom(d), _K, restarts=3, seed=8)
        cases[f"kmedians-jitter-d{d}-R3"] = lambda d=d: kmedians_fit(
            _atom(d), _K, _C, restarts=3, seed=8, bound_check=True)
        cases[f"stream-chunks16-d{d}"] = lambda X=X: _chunked(X, _C)
        cases[f"stream-chunks16-per-cluster-bound-d{d}"] = lambda X=X, d=d: _chunked(
            X, _C_PER_CLUSTER, bound_K=float(normalized_distances(X, np.zeros((1, d))).max()))
        cases[f"step-per-row-d{d}"] = lambda X=X: _stepwise(X, _C)
        cases[f"resume-d{d}"] = lambda X=X: _resumed(X, _C_PER_CLUSTER)
    return cases


MODELS = _model_cases()


def _build() -> dict:
    return {"numpy": np.__version__, "platform": f"{platform.system()}-{platform.machine()}"}


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _dataset_hashes(name, outdir) -> dict:
    """sha256 of the save_dataset CSV and sidecar of dataset case `name`."""
    generator, params = DATASETS[name]
    ds, config = generate(generator, params)
    csv_path = Path(outdir) / f"{name}.csv"
    sidecar = save_dataset(ds, csv_path, generator, config)
    return {"csv": _sha256(csv_path), "sidecar": _sha256(sidecar)}


def _model_hash(name, outdir) -> str:
    """sha256 of the write_model file of model case `name`."""
    path = Path(outdir) / f"{name}.json"
    write_model(MODELS[name](), path)
    return _sha256(path)


def _mismatch(section, name, recorded) -> str:
    return (f"{name}: the {section} bytes differ from the hashes recorded on "
            f"{recorded['build']}; this build is {_build()}")


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_save_dataset_writes_the_recorded_bytes(name, tmp_path):
    recorded = json.loads(HASHES.read_text())
    assert recorded["datasets"].keys() == DATASETS.keys()
    got = _dataset_hashes(name, tmp_path)
    assert got == recorded["datasets"][name], _mismatch("save_dataset", name, recorded)


@pytest.mark.parametrize("workers", [1, 3])  # three: every call of two blocks or centers split
@pytest.mark.parametrize("name", sorted(MODELS))
def test_write_model_writes_the_recorded_bytes(name, workers, tmp_path, monkeypatch):
    monkeypatch.setattr(core, "_WORKERS", workers)
    monkeypatch.setattr(core, "_RUN_VALUES", 1)
    recorded = json.loads(HASHES.read_text())
    assert recorded["models"].keys() == MODELS.keys()
    got = _model_hash(name, tmp_path)
    assert got == recorded["models"][name], _mismatch("write_model", name, recorded)


def test_the_model_cases_reach_the_skips_and_the_seed_jitter():
    # a case that stopped reaching them would pin nothing about them
    for name in ("kmedians-per-cluster-shuffle-bound-d7-R3", "kmedians-auto-d9-R20"):
        assert MODELS[name]().skips > 0
    for d in (2, 9):
        report = MODELS[f"kmedians-jitter-d{d}-R3"]()
        assert report.skips > 0
        is_row = (report.seeds[:, None, :] == _atom(d)[None]).all(axis=2).any(axis=1)
        assert not is_row.all()


if __name__ == "__main__":
    old = json.loads(HASHES.read_text()) if HASHES.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        doc = {"build": _build(),
               "datasets": {name: _dataset_hashes(name, tmp) for name in DATASETS},
               "models": {name: _model_hash(name, tmp) for name in MODELS}}
    for section in ("datasets", "models"):
        for name, value in doc[section].items():
            if old.get(section, {}).get(name) != value:
                print(f"moved or new: {section} {name}", file=sys.stderr)
    HASHES.parent.mkdir(exist_ok=True)
    HASHES.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {HASHES}", file=sys.stderr)
