"""Desk-scale PAM (partitioning around medoids) baseline.

BUILD greedily adds the medoid that most lowers the total scaled-norm
dissimilarity; SWAP scans medoid/candidate exchanges in lexicographic order
and applies the first strictly improving one, rescanning until no exchange
improves. Cost is the empirical L1 risk restricted to sample points, so PAM
results are directly comparable with the recursive fits.

Tiny instances (at most `_EXACT_LIMIT` medoid subsets, which covers every
n <= 12) are solved by exhaustive enumeration instead: single-swap search
has non-global local optima even at n=8, and at this scale the exact answer
is cheaper than arguing about it. Fits at benchmark sizes always take the
BUILD+SWAP path.

Both solvers read one n x n matrix of float64 dissimilarities, built once per
fit, so memory grows as 8 n^2 bytes: 191 MiB at the cap of n = 5000
(`_MAX_N`). Larger inputs are refused with a pointer to the recursive
algorithms.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np

from .core import FitReport, as_sample, normalized_distances

__all__ = ["PamSizeError", "pam_fit"]

_MAX_N = 5000
_EXACT_LIMIT = 1000


class PamSizeError(ValueError):
    """Raised when a sample is too large for the quadratic PAM baseline."""


def pam_fit(data, k: int) -> FitReport:
    """Deterministic PAM fit. Centers in the report are the medoid rows."""
    X = as_sample(data, k)
    n = X.shape[0]
    if n > _MAX_N:
        raise PamSizeError(
            f"n={n} exceeds the PAM cap of {_MAX_N}; PAM costs O(k n^2) per scan. "
            "Use kmedians_fit or kmeans_fit for samples of this size."
        )
    t0 = time.perf_counter()
    # symmetric bit for bit, so row m doubles as the distances to medoid m
    D = normalized_distances(X, X)
    solve = _enumerate if math.comb(n, k) <= _EXACT_LIMIT else _build_swap
    medoids = np.asarray(solve(D, k), dtype=np.int64)

    rows = np.stack([D[m] for m in medoids], axis=1)  # (n, k)
    evals = n * (n - 1) // 2
    return FitReport(
        algorithm="pam",
        k=len(medoids),
        d=X.shape[1],
        centers=X[medoids].copy(),
        risk=float(rows.min(axis=1).mean()),
        assignments=rows.argmin(axis=1),
        restart=0,
        restarts=1,
        wall_time=time.perf_counter() - t0,
        distance_evals=evals,
        n_queries=n,
        n_updates=0,
        medoid_indices=medoids,
        build_evals=evals,
    )


def _enumerate(D, k):
    """Every medoid subset; ties go to the first (lexicographically smallest)."""
    best = np.inf
    medoids = None
    for combo in itertools.combinations(range(D.shape[0]), k):
        rows = np.stack([D[m] for m in combo], axis=1)
        cost = float(rows.min(axis=1).mean())
        if cost < best:
            best = cost
            medoids = combo
    return medoids


def _build_swap(D, k):
    n = D.shape[0]
    # BUILD: first medoid minimizes the total dissimilarity to all points,
    # each further medoid is the point whose addition lowers it the most.
    totals = D.sum(axis=1)
    medoids = [int(np.argmin(totals))]
    nearest = D[medoids[0]].copy()
    for _ in range(1, k):
        best_j = -1
        best_total = np.inf
        for j in range(n):
            if j in medoids:
                continue
            t = np.minimum(nearest, D[j]).sum()
            if t < best_total:
                best_total = t
                best_j = j
        medoids.append(best_j)
        nearest = np.minimum(nearest, D[best_j])

    # SWAP: first improvement in lexicographic (medoid, candidate) order.
    current = float(nearest.mean())
    improved = True
    while improved:
        improved = False
        member = set(medoids)
        for mi in range(k):
            others = np.minimum.reduce([D[m] for j, m in enumerate(medoids) if j != mi], initial=np.inf)
            for o in range(n):
                if o in member:
                    continue
                cand = float(np.minimum(others, D[o]).mean())
                if cand < current:
                    medoids[mi] = o
                    current = cand
                    improved = True
                    break
            if improved:
                break
    return medoids
