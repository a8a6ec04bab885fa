"""Desk-scale PAM (partitioning around medoids) baseline.

BUILD greedily adds the medoid that most lowers the total scaled-norm
dissimilarity; SWAP scans medoid/candidate exchanges in lexicographic order
and applies the first strictly improving one, rescanning until no exchange
improves. Cost is the empirical L1 risk restricted to sample points, so PAM
results are directly comparable with the recursive fits.

Tiny instances (at most `exact_limit` medoid subsets, which covers every
n <= 12) are solved by exhaustive enumeration instead: single-swap search
has non-global local optima even at n=8, and at this scale the exact answer
is cheaper than arguing about it. Fits at benchmark sizes always take the
BUILD+SWAP path.

Quadratic in n by nature; refuses inputs beyond `max_n` (default 5000) and
points at the recursive algorithms instead.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np

from .core import FitReport, as_sample, normalized_distances

__all__ = ["PamSizeError", "pam_fit"]


class PamSizeError(ValueError):
    """Raised when a sample is too large for the quadratic PAM baseline."""


class _Dissim:
    """Scaled-norm dissimilarity access with an evaluation counter.

    Caches the full matrix when n is small enough; otherwise rows are
    recomputed on demand (and re-counted, which keeps the counter an honest
    record of work done).
    """

    def __init__(self, X, cache_limit):
        self.X = X
        self.n = X.shape[0]
        self.d = X.shape[1]
        self.evals = 0
        self.cached = self.n <= cache_limit
        if self.cached:
            self.D = normalized_distances(X, X)
            self.evals += self.n * (self.n - 1) // 2
        else:
            self.D = None

    def row(self, i) -> np.ndarray:
        if self.cached:
            return self.D[i]
        diff = self.X - self.X[i]
        self.evals += self.n
        return np.sqrt((diff * diff).mean(axis=1))


def pam_fit(
    data,
    k: int,
    *,
    max_n: int = 5000,
    cache_limit: int = 2048,
    exact_limit: int = 1000,
) -> FitReport:
    """Deterministic PAM fit. Centers in the report are the medoid rows."""
    X = as_sample(data, k)
    n = X.shape[0]
    if n > max_n:
        raise PamSizeError(
            f"n={n} exceeds the PAM cap of {max_n}; PAM costs O(k n^2) per scan. "
            "Use kmedians_fit or kmeans_fit for samples of this size."
        )
    t0 = time.perf_counter()
    dis = _Dissim(X, cache_limit)

    if math.comb(n, k) <= exact_limit:
        # enumerate every medoid subset; ties go to the first (lexicographically
        # smallest) subset
        build_evals = dis.evals
        best = np.inf
        medoids = None
        for combo in itertools.combinations(range(n), k):
            rows = np.stack([dis.row(m) for m in combo], axis=1)
            cost = float(rows.min(axis=1).mean())
            if cost < best:
                best = cost
                medoids = combo
        medoids = np.asarray(medoids, dtype=np.int64)
        return _report(X, medoids, dis, build_evals, t0)

    # BUILD: first medoid minimizes the total dissimilarity to all points,
    # each further medoid is the point whose addition lowers it the most.
    totals = np.empty(n)
    for i in range(n):
        totals[i] = dis.row(i).sum()
    medoids = [int(np.argmin(totals))]
    nearest = dis.row(medoids[0]).copy()
    for _ in range(1, k):
        best_j = -1
        best_total = np.inf
        for j in range(n):
            if j in medoids:
                continue
            t = np.minimum(nearest, dis.row(j)).sum()
            if t < best_total:
                best_total = t
                best_j = j
        medoids.append(best_j)
        nearest = np.minimum(nearest, dis.row(best_j))
    build_evals = dis.evals

    # SWAP: first improvement in lexicographic (medoid, candidate) order.
    medoids = np.asarray(medoids, dtype=np.int64)
    current = float(nearest.mean())
    improved = True
    while improved:
        improved = False
        member = set(int(m) for m in medoids)
        for mi in range(k):
            if k > 1:
                others = np.minimum.reduce([dis.row(m) for j, m in enumerate(medoids) if j != mi])
            else:
                others = np.full(n, np.inf)
            for o in range(n):
                if o in member:
                    continue
                cand = float(np.minimum(others, dis.row(o)).mean())
                if cand < current:
                    medoids[mi] = o
                    current = cand
                    improved = True
                    break
            if improved:
                break
    return _report(X, medoids, dis, build_evals, t0)


def _report(X, medoids, dis, build_evals, t0) -> FitReport:
    n, d = X.shape
    rows = np.stack([dis.row(m) for m in medoids], axis=1)  # (n, k)
    assignments = rows.argmin(axis=1)
    risk = float(rows.min(axis=1).mean())
    return FitReport(
        algorithm="pam",
        k=int(medoids.shape[0]),
        d=d,
        centers=X[medoids].copy(),
        risk=risk,
        assignments=assignments,
        restart=0,
        restarts=1,
        wall_time=time.perf_counter() - t0,
        distance_evals=dis.evals,
        n_queries=n,
        n_updates=0,
        medoid_indices=medoids,
        build_evals=build_evals,
    )
