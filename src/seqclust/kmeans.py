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
    s = np.asarray(seeds, dtype=float)
    if not np.all(np.isfinite(s)):
        raise ValueError("seeds contain non-finite values")
    s = _check_centers(s)
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
    """Consume all rows of X in order through a fit's single restart. Up to
    d=7 a scalar loop runs; the per-row numpy overhead dominates the
    arithmetic at small k*d, and numpy sums of <= 7 elements are sequential,
    so the operation order is the numpy loop's. (At d=8 numpy pairs the
    terms of a sum, so a scalar loop there could break a near-tie the other
    way.) Fits with several restarts run _run_restarts instead, which
    measured faster at every d."""
    k, d = centers.shape
    if d > 7:
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


def _run_restarts(centers, counts, X, perms) -> None:
    """Consume all rows of X through R restarts at once, held as the (R, k, d)
    block `centers` and (R, k) `counts`, in place. Restart i reads the rows in
    the order of the i-th of the R row orders `perms` when it is given. Each
    row costs a fixed number of numpy calls over the whole block, and every
    restart's arithmetic is the one _step_inplace applies, so each restart
    ends exactly where its own numpy stream would."""
    R, k, d = centers.shape
    flat = centers.reshape(R * k, d)
    flat_counts = counts.reshape(R * k)
    base = np.arange(R) * k
    diff = np.empty_like(centers)
    flat_diff = diff.reshape(R * k, d)
    rows = X if perms is None else (X[cols][:, None, :] for cols in np.stack(list(perms)).T)
    for z in rows:
        np.subtract(centers, z, out=diff)
        i = base + (diff * diff).sum(axis=2).argmin(axis=1)
        n_i = flat_counts[i]
        flat[i] -= flat_diff[i] / (1.0 + n_i)[:, None]
        flat_counts[i] = n_i + 1


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


def _fit_restarts(algorithm, X, k, run_all, *, seeds, restarts, seed, shuffle):
    """Restart policy shared by the sequential fits.

    Each restart draws k distinct rows as seeds from its own substream of
    SeedSequence(seed), then a random row order when `shuffle`; explicit
    `seeds` make a single run on the root stream. All seeds are drawn up
    front, and each row order only when run_all takes it from the iterator
    `perms` (None without `shuffle`); as every restart has its own stream,
    the draws do not depend on how the restarts are run. run_all(S, X, perms)
    streams the rows through the (R, k, d) seed block S, restart i in the
    i-th row order, with the kernel each fit finds fastest, and returns or
    yields one (centers, state) per restart. Each restart's centers are
    scored by empirical L1 risk. Returns the report of the lowest-risk
    restart with the fields both fits share, and that restart's state.
    """
    t0 = time.perf_counter()
    n, d = X.shape
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    ss = np.random.SeedSequence(seed)
    if seeds is not None:
        seeds = _check_seeds(seeds)
        if seeds.shape != (k, d):
            raise ValueError(f"seeds have shape {seeds.shape}, the fit needs (k, d) = {(k, d)}")
        rngs = [np.random.default_rng(ss)]
        S = seeds[None]
    else:
        rngs = [np.random.default_rng(child) for child in ss.spawn(restarts)]
        S = np.stack([draw_seeds(X, k, rng) for rng in rngs])
    perms = (rng.permutation(n) for rng in rngs) if shuffle else None

    best = None
    for ridx, (centers, state) in enumerate(run_all(S, X, perms)):
        D = normalized_distances(X, centers)
        risk = float(D.min(axis=1).mean())
        if best is None or risk < best[0]:
            best = (risk, centers, state, D.argmin(axis=1), ridx)

    risk, centers, state, assignments, ridx = best
    report = FitReport(
        algorithm=algorithm,
        k=k,
        d=d,
        centers=centers,
        risk=risk,
        assignments=assignments,
        restart=ridx,
        restarts=len(rngs),
        rng_seed=seed,
        wall_time=time.perf_counter() - t0,
        distance_evals=2 * n * k * len(rngs),  # one stream + one scoring pass each
        seeds=S[ridx],
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

    def run_all(S, X, perms):
        centers = S.copy()
        counts = np.ones(S.shape[:2], dtype=np.int64)
        if len(S) > 1:
            _run_restarts(centers, counts, X, perms)
        else:
            _run_stream(centers[0], counts[0], X if perms is None else X[next(perms)])
        return zip(centers, counts)

    report, counts = _fit_restarts("kmeans", X, k, run_all, seeds=seeds,
                                   restarts=restarts, seed=seed, shuffle=shuffle)
    report.counts = counts
    report.n_queries = report.n_updates = X.shape[0]
    return report
