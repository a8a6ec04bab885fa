"""Evaluation metrics: empirical L1 risk and clustering error rate."""

from __future__ import annotations

import numpy as np

from .core import normalized_distances

__all__ = ["empirical_l1_risk", "cer"]


def empirical_l1_risk(data, centers) -> float:
    """Mean scaled distance from each observation to its nearest center.

    `data` may be a Dataset or a plain (n, d) array.
    """
    X = getattr(data, "X", data)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("empirical_l1_risk: need a non-empty (n, d) sample")
    D = normalized_distances(X, centers)
    return float(D.min(axis=1).mean())


def cer(p, q, outlier_flags=None) -> float:
    """Clustering error rate between two partitions given by label vectors.

    Fraction of unordered pairs on which the partitions disagree about
    co-membership. Label values are irrelevant, only the induced partition
    matters. Rows with a true outlier flag are excluded from the pair set.
    The pairs are counted from cluster sizes (the pair-counting identity
    behind the Rand index), in O(m log m) time and O(m) memory.
    """
    p = np.asarray(p)
    q = np.asarray(q)
    if p.ndim != 1 or p.shape != q.shape:
        raise ValueError("cer: p and q must be 1-d arrays of equal length")
    if any(v.dtype.kind == "f" and np.isnan(v).any() for v in (p, q)):
        raise ValueError("cer: labels contain NaN")
    if outlier_flags is not None:
        keep = ~np.asarray(outlier_flags, dtype=bool)
        if keep.shape != p.shape:
            raise ValueError("cer: outlier_flags length mismatch")
        p = p[keep]
        q = q[keep]
    m = p.size
    if m < 2:
        raise ValueError("cer: need at least 2 elements after outlier exclusion")
    # disagreeing pairs = pairs together in p + pairs together in q
    # - 2 * pairs together in both; `both` holds the nonzero cells of the
    # contingency table, found as the distinct (p, q) code pairs
    _, pc, a = np.unique(p, return_inverse=True, return_counts=True)
    _, qc, b = np.unique(q, return_inverse=True, return_counts=True)
    _, both = np.unique(pc.astype(np.int64) * b.size + qc, return_counts=True)
    disagree = _pairs(a) + _pairs(b) - 2 * _pairs(both)
    # integer count over integer pair total, so equal partitions give exactly 0.0
    return float(disagree / (m * (m - 1) // 2))


def _pairs(counts) -> int:
    """Number of unordered pairs within groups of the given sizes."""
    return int((counts * (counts - 1) // 2).sum())
