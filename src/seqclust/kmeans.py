"""Recursive (single pass) k-means after MacQueen.

Each observation updates only its nearest center, with step 1/(1 + n_r)
where n_r counts the seed plus the points allocated to cluster r so far.
Centers therefore stay exact barycenters of the seed and the allocated
points at every step.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .core import FitReport, _check_centers, as_sample, normalized_distances

__all__ = ["KMeansState", "kmeans_init", "kmeans_step", "kmeans_fit"]


@dataclass
class KMeansState:
    centers: np.ndarray  # (k, d) running barycenters
    counts: np.ndarray   # (k,) allocation counts, seed included


def _check_seeds(seeds) -> np.ndarray:
    s = _check_centers(seeds)
    k = s.shape[0]
    for a in range(k):
        for b in range(a + 1, k):
            if np.array_equal(s[a], s[b]):
                raise ValueError(f"seeds {a} and {b} coincide; seeds must be pairwise distinct")
    return s.copy()


def kmeans_init(seeds) -> KMeansState:
    """Start a stream from k pairwise distinct seed points (count 1 each)."""
    s = _check_seeds(seeds)
    return KMeansState(centers=s, counts=np.ones(s.shape[0], dtype=np.int64))


def _step_inplace(centers, counts, z) -> int:
    diff = centers - z
    r = int(np.argmin((diff * diff).sum(axis=1)))
    centers[r] -= diff[r] / (1.0 + counts[r])
    counts[r] += 1
    return r


def _run_stream(centers, counts, X) -> None:
    """Consume all rows of X in order. Low dimensions use a scalar loop; the
    per-row numpy overhead dominates the arithmetic at small k*d, and the
    operation order is identical (numpy sums of <= 8 elements are sequential)."""
    k, d = centers.shape
    if d > 8:
        for z in X:
            _step_inplace(centers, counts, z)
        return
    cent = [list(map(float, row)) for row in centers]
    cnt = [int(c) for c in counts]
    for z in X.tolist():
        best_sq = float("inf")
        r = 0
        for i in range(k):
            row = cent[i]
            s = 0.0
            for j in range(d):
                t = row[j] - z[j]
                s += t * t
            if s < best_sq:
                best_sq = s
                r = i
        row = cent[r]
        w = 1.0 + cnt[r]
        for j in range(d):
            row[j] -= (row[j] - z[j]) / w
        cnt[r] += 1
    centers[:] = cent
    counts[:] = cnt


def kmeans_step(state: KMeansState, z) -> KMeansState:
    """Consume one observation, returning the new state (input left untouched)."""
    z = np.asarray(z, dtype=float)
    if z.shape != (state.centers.shape[1],):
        raise ValueError("kmeans_step: dimension mismatch")
    if not np.all(np.isfinite(z)):
        raise ValueError("kmeans_step: non-finite observation")
    centers = state.centers.copy()
    counts = state.counts.copy()
    _step_inplace(centers, counts, z)
    return KMeansState(centers=centers, counts=counts)


def draw_seeds(X, k, rng, attempts=16) -> np.ndarray:
    """Draw k pairwise distinct rows uniformly without replacement.

    Datasets with duplicated rows may defeat the draw; after a bounded number
    of attempts the duplicates get an epsilon-scale jitter instead.
    """
    n = X.shape[0]
    idx = None
    for _ in range(attempts):
        idx = rng.choice(n, size=k, replace=False)
        s = X[idx]
        if len({row.tobytes() for row in s}) == k:
            return s.copy()
    s = X[idx].astype(float).copy()
    scale = max(1.0, float(np.abs(s).max())) * np.finfo(float).eps * 8
    while len({row.tobytes() for row in s}) < k:
        seen = set()
        for i in range(k):
            key = s[i].tobytes()
            if key in seen:
                s[i] = s[i] + rng.standard_normal(s.shape[1]) * scale
            seen.add(key)
    return s


def _fit_restarts(algorithm, X, k, run, *, seeds, restarts, seed, shuffle):
    """Restart policy shared by the sequential fits.

    Each restart draws k distinct rows as seeds from its own substream of
    SeedSequence(seed), streams the rows (in a seeded random order when
    `shuffle`) through run(seeds, rows) -> (centers, state), and scores the
    centers by empirical L1 risk. Explicit `seeds` make a single run on the
    root stream. Returns the report of the lowest-risk restart with the
    fields both fits share, and that restart's state.
    """
    t0 = time.perf_counter()
    n, d = X.shape
    ss = np.random.SeedSequence(seed)
    if seeds is not None:
        seeds = _check_seeds(seeds)
        if seeds.shape != (k, d):
            raise ValueError(f"seeds have shape {seeds.shape}, the fit needs (k, d) = {(k, d)}")
        children = [ss]
    else:
        if restarts < 1:
            raise ValueError("restarts must be >= 1")
        children = ss.spawn(restarts)

    best = None
    for ridx, child in enumerate(children):
        rng = np.random.default_rng(child)
        s = seeds if seeds is not None else draw_seeds(X, k, rng)
        centers, state = run(s, X[rng.permutation(n)] if shuffle else X)
        D = normalized_distances(X, centers)
        risk = float(D.min(axis=1).mean())
        if best is None or risk < best[0]:
            best = (risk, centers, state, D.argmin(axis=1), ridx, s)

    risk, centers, state, assignments, ridx, s = best
    report = FitReport(
        algorithm=algorithm,
        k=k,
        d=d,
        centers=centers,
        risk=risk,
        assignments=assignments,
        restart=ridx,
        restarts=len(children),
        rng_seed=seed,
        wall_time=time.perf_counter() - t0,
        distance_evals=2 * n * k * len(children),  # one stream + one scoring pass each
        seeds=s,
    )
    return report, state


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

    def run(s, rows):
        centers = s.copy()
        counts = np.ones(k, dtype=np.int64)
        _run_stream(centers, counts, rows)
        return centers, counts

    report, counts = _fit_restarts("kmeans", X, k, run, seeds=seeds, restarts=restarts,
                                   seed=seed, shuffle=shuffle)
    report.counts = counts
    report.n_queries = report.n_updates = X.shape[0]
    return report
