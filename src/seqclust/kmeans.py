"""Recursive (single pass) k-means after MacQueen.

Each observation updates only its nearest center, with step 1/(1 + n_r)
where n_r counts the seed plus the points allocated to cluster r so far.
Centers therefore stay exact barycenters of the seed and the allocated
points at every step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FitReport, as_sample
from .recursion import (_batched_walk, _check_seeds, _fit_restarts, _numpy_walk, _run_loops,
                        _scalar_walk)

__all__ = ["KMeansState", "kmeans_init", "kmeans_step", "kmeans_fit"]


@dataclass
class KMeansState:
    centers: np.ndarray  # (k, d) running barycenters
    counts: np.ndarray   # (k,) allocation counts, seed included


def kmeans_init(seeds) -> KMeansState:
    """Start a stream from k pairwise distinct seed points (count 1 each)."""
    s = _check_seeds(seeds)
    return KMeansState(centers=s, counts=np.ones(s.shape[0], dtype=np.int64))


def _run_numpy(state: KMeansState, X) -> None:
    """MacQueen's update over the rows of X, walked with numpy, in place."""
    centers = state.centers
    cnt = state.counts.tolist()
    for r, _, diff in _numpy_walk(centers, X):
        row = centers[r]
        np.subtract(row, np.divide(diff, 1.0 + cnt[r], out=diff), out=row)
        cnt[r] += 1
    state.counts[:] = cnt


def _run_scalar(state: KMeansState, X) -> None:
    """MacQueen's update over the rows of X, walked in Python floats, in place."""
    ds = range(X.shape[1])
    cent = state.centers.tolist()
    cnt = state.counts.tolist()
    for z, r, _ in _scalar_walk(cent, X):
        row = cent[r]
        w = 1.0 + cnt[r]
        for j in ds:
            row[j] -= (row[j] - z[j]) / w
        cnt[r] += 1
    state.centers[:] = cent
    state.counts[:] = cnt


def _run_restarts(states, X, perms) -> None:
    """MacQueen's update over the rows of X for R restart states at once,
    stacked into an (R, k, d) block and (R, k) counts, in place."""
    centers = np.stack([st.centers for st in states])
    counts = np.stack([st.counts for st in states])
    flat = centers.reshape(-1, centers.shape[2])
    flat_counts = counts.reshape(-1)
    chosen = np.empty((centers.shape[0], centers.shape[2]))
    for i, _, diff in _batched_walk(centers, X, perms):
        n_i = flat_counts[i]
        np.divide(diff, (1.0 + n_i)[:, None], out=diff)
        flat[i] = np.subtract(flat.take(i, axis=0, out=chosen, mode="clip"), diff, out=chosen)
        flat_counts[i] = n_i + 1
    for st, c, n in zip(states, centers, counts):
        st.centers[:] = c
        st.counts[:] = n


_LOOPS = {"scalar": _run_scalar, "numpy": _run_numpy, "batched": _run_restarts}
# R*k*d from which R >= 2 restarts at d <= 7 walk batched, read off the
# measured (d, k, R) table in CHANGES.md
_BATCH_FROM = 60


def kmeans_step(state: KMeansState, z) -> KMeansState:
    """Consume one observation, returning the new state (input left untouched)."""
    z = np.asarray(z, dtype=float)
    if z.shape != (state.centers.shape[1],):
        raise ValueError("kmeans_step: dimension mismatch")
    if not np.isfinite(z).all():
        raise ValueError("kmeans_step: non-finite observation")
    out = KMeansState(centers=state.centers.copy(), counts=state.counts.copy())
    _run_loops(_LOOPS, _BATCH_FROM, [out], len(out.centers), z[None])
    return out


def kmeans_fit(
    data,
    k: int,
    *,
    seeds=None,
    restarts: int = 10,
    seed=None,
    shuffle: bool = False,
) -> FitReport:
    """One pass of MacQueen k-means over the data, best of `restarts` by L1 risk.

    With explicit `seeds` (shape (k, d)) a single run is performed. Otherwise
    each restart draws k distinct rows as seeds from its own RNG substream;
    the fit with the lowest empirical L1 risk is returned.
    """
    X = as_sample(data, k)

    def run_all(S, X, perms):
        states = [kmeans_init(s) for s in S]
        _run_loops(_LOOPS, _BATCH_FROM, states, k, X, perms)
        return [(st.centers, st.counts) for st in states]

    report, counts = _fit_restarts("kmeans", X, k, run_all, seeds=seeds,
                                   restarts=restarts, seed=seed, shuffle=shuffle)
    report.counts = counts
    report.n_queries = report.n_updates = X.shape[0]
    return report
