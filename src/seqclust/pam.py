"""Desk-scale PAM (partitioning around medoids) baseline.

One scan, `_candidates`, costs every candidate medoid j: the total
dissimilarity of all points to their nearest of a reference medoid set plus
j. BUILD runs it k times from no medoids, adding the first candidate with the
least total; SWAP runs it per medoid slot against the other medoids, applies
the first candidate that strictly lowers the mean dissimilarity and rescans
from the first slot until no exchange improves. Cost is the empirical L1
risk restricted to sample points, so PAM results are directly comparable
with the recursive fits.

Tiny instances (at most `_EXACT_LIMIT` medoid subsets, which covers every
n <= 12) are solved by exhaustive enumeration instead: single-swap search
has non-global local optima even at n=8, and at this scale the exact answer
is cheaper than arguing about it. Fits at benchmark sizes always take the
BUILD+SWAP path.

Both solvers read one n x n matrix of float64 dissimilarities, built once per
fit, so memory grows as 8 n^2 bytes: 191 MiB at the cap of n = 5000
(`_MAX_N`). Larger inputs are refused with a pointer to the recursive
algorithms. The matrix is symmetric bit for bit, so a medoid set's cost is
read from its gathered columns. Only its upper triangle is computed, in
slabs of rows written straight into the matrix, and each slab is mirrored
below the diagonal, so memory stays 8 n^2 bytes plus the kernel's buffers,
one per thread that shares a slab and at most 4 (`_dissimilarities`).
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np

from .core import FitReport, _distances_into, _row_min, as_sample

__all__ = ["PamSizeError", "pam_fit"]

_MAX_N = 5000
_EXACT_LIMIT = 1000
# Rows per slab of the triangle build: at d from 2 to 200 and n from 500 to
# 3000, 32 rows ran about as fast as 64 or faster (the table in CHANGES.md)
_SLAB_ROWS = 32


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
    D = _dissimilarities(X)
    solve = _enumerate if math.comb(n, k) <= _EXACT_LIMIT else _build_swap
    medoids = np.asarray(solve(D, k), dtype=np.int64)

    rows = D[:, medoids]  # (n, k)
    evals = n * (n - 1) // 2
    return FitReport(
        algorithm="pam",
        k=len(medoids),
        d=X.shape[1],
        centers=X[medoids].copy(),
        risk=float(_row_min(rows.T).mean()),
        assignments=rows.argmin(axis=1),
        wall_time=time.perf_counter() - t0,
        distance_evals=evals,
        n_queries=n,
        medoid_indices=medoids,
        build_evals=evals,
    )


def _dissimilarities(X):
    """normalized_distances(X, X), bit for bit. Each slab of rows [i, j) runs
    through the kernel against the rows X[i:] into D[i:j, i:], and its part
    right of the slab is mirrored into D[j:, i:j]: an upper entry is the
    kernel's own value at any call shape, and a mirrored one is equal because
    (a - b)**2 == (b - a)**2 and the sum over d runs in the same order."""
    n = X.shape[0]
    D = np.empty((n, n))
    for i in range(0, n, _SLAB_ROWS):
        j = i + _SLAB_ROWS
        _distances_into(X[i:j], X[i:], D[i:j, i:])
        D[j:, i:j] = D[i:j, j:].T
    return D


def _enumerate(D, k):
    """Every medoid subset; ties go to the first (lexicographically smallest)."""
    return min(itertools.combinations(range(D.shape[0]), k),
               key=lambda c: _row_min(D[:, c].T).mean())


def _candidates(D, ref, medoids):
    """(j, total of min(ref, D[j])) for each non-medoid j in index order, where
    ref is each point's dissimilarity to its nearest reference medoid."""
    for j in range(D.shape[0]):
        if j not in medoids:
            yield j, np.minimum(ref, D[j]).sum()


def _build_swap(D, k):
    n = D.shape[0]
    # BUILD: k times, add the first point that leaves the least total
    medoids = []
    nearest = np.full(n, np.inf)
    for _ in range(k):
        j = min(_candidates(D, nearest, medoids), key=lambda c: c[1])[0]
        medoids.append(j)
        nearest = np.minimum(nearest, D[j])

    # SWAP: first improvement in lexicographic (slot, candidate) order; total / n
    # is the division np.mean makes, so each comparison has mean's bits
    current = nearest.sum() / n
    mi = 0
    while mi < k:
        others = D[medoids[:mi] + medoids[mi + 1:]].min(axis=0, initial=np.inf)
        better = next(((j, t / n) for j, t in _candidates(D, others, medoids) if t / n < current), None)
        if better is None:
            mi += 1
        else:  # apply it and rescan from the first slot
            medoids[mi], current = better
            mi = 0
    return medoids
