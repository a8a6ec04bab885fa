"""Shared geometry, data containers and file formats.

Every distance in this package is the dimension-scaled Euclidean norm
sqrt(mean((a - b)**2)), so risk values stay comparable across dimensions.
Assignment ties always break to the lowest cluster index, which keeps runs
reproducible bit for bit.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = [
    "normalized_distances",
    "assign_nearest",
    "Dataset",
    "FitReport",
    "as_sample",
    "read_csv",
    "write_csv",
    "write_model",
    "read_model",
]


def _check_centers(centers) -> np.ndarray:
    c = np.asarray(centers, dtype=float)
    if c.ndim != 2 or c.shape[0] < 1 or c.shape[1] < 1:
        raise ValueError("centers must be a (k, d) array with k >= 1, d >= 1")
    if not np.all(np.isfinite(c)):
        raise ValueError("centers contain non-finite values")
    return c


# numpy adds up to 7 terms along a contiguous axis left to right and 8 or more in
# pairs, along a non-contiguous axis left to right at any length, and its ** can
# differ from scalar pow by 1 ulp (tests/test_kmeans.py pins these rules). So a sum
# of d <= _SCALAR_EXACT_D terms has the same bits in a scalar loop, over a contiguous
# row and over d stacked slabs; the loop shapes and both distance layouts rest on it.
_SCALAR_EXACT_D = 7

# Working-memory target of normalized_distances: rows of X are taken in blocks
# whose rows*k*d difference buffer fills about this many bytes, which keeps
# the buffer in cache at large d and makes small inputs a single block.
_BLOCK_BYTES = 256 * 1024


def normalized_distances(X, centers) -> np.ndarray:
    """Matrix of scaled distances between rows of X and each center, shape (n, k).

    Walks X in blocks of B rows, B sized so that one reused buffer of B*k*d
    values holds about _BLOCK_BYTES (at least one row, so it holds k*d values
    when those alone exceed the target): each block's differences to every
    center are written into the buffer, squared in place and summed over d;
    the division by d and the square root are taken once over the (n, k)
    result. For d <= _SCALAR_EXACT_D the buffer is (d, B, k) and its d slabs
    of shape (B, k) are added in turn, which spends one numpy loop per slab
    rather than one per (row, center) pair; for larger d it is (B, k, d),
    summed over the contiguous d axis. Working memory is the buffer plus the
    result, never an n×d temporary, and X is only read. Every entry is
    computed as sqrt(((x - c)**2).mean()) computes it for a C-order row x, bit
    for bit, whatever the memory layout of X.

    X is not checked for NaN or inf: fits call this once per restart on rows
    `as_sample` has checked, and the public scorers (`assign_nearest`,
    `empirical_l1_risk`, `mc_gradient`) check their rows first.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be a 2-d array")
    C = _check_centers(centers)
    (n, d), k = X.shape, C.shape[0]
    if d != C.shape[1]:
        raise ValueError(f"dimension mismatch: data has d={d}, centers have d={C.shape[1]}")
    out = np.empty((n, k))
    rows = max(1, _BLOCK_BYTES // (8 * k * d))
    if d <= _SCALAR_EXACT_D:  # d slabs added left to right, as a short row is
        buf = np.empty((d, min(rows, n), k))
        XT, CT = X.T[:, :, None], C.T[:, None, :]
        for i in range(0, n, rows):
            block = XT[:, i:i + rows]
            diff = buf[:, :block.shape[1]]
            np.subtract(block, CT, out=diff)
            np.multiply(diff, diff, out=diff)
            np.add.reduce(diff, axis=0, out=out[i:i + rows])
    else:
        buf = np.empty((min(rows, n), k, d))
        for i in range(0, n, rows):
            block = X[i:i + rows, None, :]
            diff = buf[:block.shape[0]]
            np.subtract(block, C, out=diff)
            np.multiply(diff, diff, out=diff)
            np.add.reduce(diff, axis=2, out=out[i:i + rows])
    out /= d
    return np.sqrt(out, out=out)


def assign_nearest(X, centers) -> np.ndarray:
    """Nearest-center index for every row of X (a Dataset or a finite 2-d array)."""
    return normalized_distances(_rows(X), centers).argmin(axis=1)


@dataclass
class Dataset:
    """A fixed sample: rows X (n, d) with optional integer labels and outlier flags.

    Labels mark the generating component; outlier flags mark contaminated rows.
    Arrays are made read-only on construction, observations never mutate.
    """

    X: np.ndarray
    labels: Optional[np.ndarray] = None
    outlier_flags: Optional[np.ndarray] = None

    def __post_init__(self):
        X = np.ascontiguousarray(np.asarray(self.X, dtype=float))
        if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
            raise ValueError("Dataset.X must be a (n, d) array with n >= 1, d >= 1")
        if not np.all(np.isfinite(X)):
            raise ValueError("Dataset.X contains non-finite values")
        if self.labels is not None:
            self.labels = _column(self.labels, "labels", X.shape[0], np.int64)
        if self.outlier_flags is not None:
            self.outlier_flags = _column(self.outlier_flags, "outlier_flags", X.shape[0], bool)
        if X.shape[1] == 1:
            warnings.warn(
                "d=1 data: the scaled norm reduces to |z|; results are valid but "
                "this library is aimed at multivariate data",
                RuntimeWarning,
                stacklevel=2,
            )
        X.setflags(write=False)
        self.X = X

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


def _column(values, name, n, dtype) -> np.ndarray:
    """A read-only (n,) column of integer labels (dtype int64) or of 0/1 outlier
    flags (dtype bool). The entries are checked as given, before the cast, and
    the error names the first bad one."""
    v = np.asarray(values)
    v = v if v.dtype.kind in "biuf" else v.astype(float)
    if v.shape != (n,):
        raise ValueError(f"{name} must have shape (n,)")
    if dtype is bool:
        ok, want = (v == 0) | (v == 1), "0 or 1"
    else:
        ok, want = np.isfinite(v) & (v == np.floor(v)), "a finite integer"
    if not ok.all():
        i = int(np.argmin(ok))
        raise ValueError(f"{name}[{i}] is {v[i]}, not {want}")
    col = v.astype(dtype)
    col.setflags(write=False)
    return col


def _rows(data) -> np.ndarray:
    """The (n, d) rows of `data`. A Dataset is taken as is (its constructor
    already checked it); any other input must be a finite 2-d array with
    d >= 1, and the error names the first row holding NaN or inf."""
    if isinstance(data, Dataset):
        return data.X
    X = np.asarray(data, dtype=float)
    if X.ndim != 2 or X.shape[1] < 1:
        raise ValueError(f"data must be a 2-d (n, d) array with d >= 1, got shape {X.shape}")
    if not np.isfinite(X).all():
        row = int(np.argmin(np.isfinite(X).all(axis=1)))
        raise ValueError(f"data row {row} contains non-finite values")
    return X


def as_sample(data, k: int) -> np.ndarray:
    """The (n, d) rows a fit of k clusters runs on, checked by `_rows`.
    Also requires 1 <= k <= n."""
    X = _rows(data)
    if k < 1:
        raise ValueError("k must be >= 1")
    if X.shape[0] < k:
        raise ValueError(f"need at least k={k} observations, got n={X.shape[0]}")
    return X


@dataclass
class FitReport:
    """Result of one fit: the selected centers plus bookkeeping.

    `centers` is the returned estimate (for k-medians, the averaged centers).
    `distance_evals` counts scaled-norm evaluations over the entire fit, the
    unit used by the complexity checks.
    """

    algorithm: str
    k: int
    d: int
    centers: np.ndarray
    risk: float
    assignments: np.ndarray
    restart: int = 0
    restarts: int = 1
    rng_seed: object = None
    wall_time: float = 0.0
    distance_evals: int = 0
    n_queries: int = 0
    n_updates: int = 0
    skips: int = 0
    counts: Optional[np.ndarray] = None
    seeds: Optional[np.ndarray] = None
    raw_centers: Optional[np.ndarray] = None
    update_counts: Optional[np.ndarray] = None
    c_gamma: object = None
    c_alpha: Optional[float] = None
    alpha: Optional[float] = None
    medoid_indices: Optional[np.ndarray] = None
    build_evals: Optional[int] = None


# ---------------------------------------------------------------------------
# CSV dataset format: d numeric feature columns, then an optional integer
# `label` column and an optional 0/1 `outlier` column, selected by header name.

_LABEL_COL = "label"
_OUTLIER_COL = "outlier"


def write_csv(dataset: Dataset, path) -> None:
    """Write a dataset to CSV with full float precision (round-trips exactly)."""
    cols = [f"x{j + 1}" for j in range(dataset.d)]
    fmt = ["%.17g"] * dataset.d
    blocks = [dataset.X]
    if dataset.labels is not None:
        cols.append(_LABEL_COL)
        fmt.append("%d")
        blocks.append(dataset.labels[:, None].astype(float))
    if dataset.outlier_flags is not None:
        cols.append(_OUTLIER_COL)
        fmt.append("%d")
        blocks.append(dataset.outlier_flags[:, None].astype(float))
    data = np.hstack(blocks)
    np.savetxt(path, data, fmt=fmt, delimiter=",", header=",".join(cols), comments="")


def read_csv(path) -> Dataset:
    """Read a dataset written by write_csv (or any CSV following the format)."""
    with open(path, "r") as fh:
        header = fh.readline().strip()
        if not header:
            raise ValueError(f"{path}: empty file")
        names = [c.strip() for c in header.split(",")]
        try:
            with warnings.catch_warnings():  # a file without rows gets the error below
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                raw = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ValueError(f"{path}: could not parse numeric data ({exc})") from exc
    if raw.shape[0] == 0:
        raise ValueError(f"{path}: no data rows")
    if raw.shape[1] != len(names):
        raise ValueError(f"{path}: header names {len(names)} columns, rows have {raw.shape[1]}")
    feature_idx = [i for i, c in enumerate(names) if c not in (_LABEL_COL, _OUTLIER_COL)]
    if not feature_idx:
        raise ValueError(f"{path}: no feature columns")
    labels = raw[:, names.index(_LABEL_COL)] if _LABEL_COL in names else None
    flags = raw[:, names.index(_OUTLIER_COL)] if _OUTLIER_COL in names else None
    try:  # Dataset checks the label and outlier columns
        return Dataset(raw[:, feature_idx], labels=labels, outlier_flags=flags)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Model snapshot files (JSON). Deterministic for a fixed fit: no timing fields.


# What a model file stores of a FitReport: these fields as they are, and these
# arrays, which read_model restores to their dtypes.
_MODEL_FIELDS = ("algorithm", "k", "d", "risk", "restart", "restarts", "rng_seed", "skips",
                 "n_queries", "n_updates", "c_gamma", "c_alpha", "alpha")
_MODEL_ARRAYS = {"centers": float, "seeds": float, "raw_centers": float,
                 "counts": np.int64, "update_counts": np.int64, "medoid_indices": np.int64}


def write_model(report: FitReport, path) -> None:
    """Serialize a fit to JSON. Holds everything needed to resume a k-medians
    stream bit-exactly (gain config, seeds, raw and averaged centers, counts)."""
    doc = {key: getattr(report, key) for key in (*_MODEL_FIELDS, *_MODEL_ARRAYS)}
    _write_json(dict(doc, format="seqclust-model", version=1), path)


def _plain(obj):
    """JSON form of a numpy array or scalar, at any depth of a document."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _write_json(doc, path) -> None:
    """Every JSON file the package writes: sorted keys, indent 1, final newline.
    The text is built before the file is opened, so a failed encode writes nothing."""
    text = json.dumps(doc, sort_keys=True, indent=1, default=_plain)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def read_model(path) -> dict:
    with open(path, "r") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("format") != "seqclust-model":
        raise ValueError(f"{path}: not a seqclust model file")
    if doc.get("centers") is None:
        raise ValueError(f"{path}: model has no centers")
    if not isinstance(doc.get("algorithm"), str):
        raise ValueError(f"{path}: model has no algorithm name")
    for key, dtype in _MODEL_ARRAYS.items():
        if doc.get(key) is not None:
            doc[key] = np.asarray(doc[key], dtype=dtype)
    return doc
