"""Shared geometry, data containers and file formats.

Every distance in this package is the dimension-scaled Euclidean norm
sqrt(mean((a - b)**2)), so risk values stay comparable across dimensions.
Assignment ties always break to the lowest cluster index, which keeps runs
reproducible bit for bit.
"""

from __future__ import annotations

import json
import math
import os
import threading
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


def _check_centers(centers, name="centers") -> np.ndarray:
    """A float copy of centers, which must be a finite (k, d) array with k, d >= 1;
    the error calls them `name`."""
    try:
        c = np.array(centers, dtype=float)
    except (TypeError, ValueError):  # ragged nesting, or a string
        c = None
    if c is None or c.ndim != 2 or c.size == 0:
        raise ValueError(f"{name} must be a (k, d) array with k >= 1, d >= 1")
    if not _finite(c):
        raise ValueError(f"{name} contain non-finite values")
    return c


# numpy adds up to 7 terms along a contiguous axis left to right and 8 or more in
# pairs, along a non-contiguous axis left to right at any length, and its ** can
# differ from scalar pow by 1 ulp (tests/test_kmeans.py pins these rules). So a sum
# of d <= _SCALAR_EXACT_D terms has the same bits in a scalar loop, over a contiguous
# row and over d stacked slabs; the loop shapes and both distance layouts rest on it.
_SCALAR_EXACT_D = 7

# Working-memory target of normalized_distances: rows of X are taken in blocks
# whose rows*k*d difference buffer fills about this many bytes, which keeps
# the buffer in cache at large d and makes small inputs a single block. Each
# thread of a split call holds its own buffer: halving it per thread lost the
# gain of the second thread on a 2-vCPU machine (the table in CHANGES.md).
_BLOCK_BYTES = 256 * 1024

# Threads that share one kernel call, the calling thread included: one per CPU
# this process may run on, at most 4, so the extra buffers stay within 1 MiB.
# bench's worker processes divide the CPUs among themselves (bench._share_cpus).
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_WORKERS = min(4, _CPUS)

# Least work one thread of a split call takes on: 2**18 differences, eight full
# buffers. Starting and joining a thread takes about 70 us, which a shorter run
# does not win back: split in two, PAM's 32-row slabs of a 2000 x 2 sample (128000
# differences each) built its matrix 8% slower than one thread (CHANGES.md).
_RUN_VALUES = 2**18


def normalized_distances(X, centers) -> np.ndarray:
    """Matrix of scaled distances between rows of X and each center, shape (n, k).

    Walks X in blocks of B rows, B sized so that one reused buffer of B*k*d
    values holds about _BLOCK_BYTES (at least one row, so it holds k*d values
    when those alone exceed the target): each block's differences to every
    center are written into the buffer, squared in place and summed over d;
    the division by d and the square root are taken over the result. For
    d <= _SCALAR_EXACT_D the buffer is (d, B, k) and its d slabs of shape
    (B, k) are added in turn, which spends one numpy loop per slab rather than
    one per (row, center) pair; for larger d it is (B, k, d), summed over the
    contiguous d axis. A call of at least 2 * _RUN_VALUES differences is split
    into contiguous runs of blocks, one per thread, each run started and joined
    within the call; when one row's k*d values already exceed the target, the
    centers are split into runs instead. Up to _WORKERS threads (one per
    usable CPU, at most 4) each hold one buffer, so working memory is at most
    4 buffers plus the result, never an n×d temporary, and X is only read.
    Every entry is computed as sqrt(((x - c)**2).mean()) computes it for a
    C-order row x, bit for bit, whatever the memory layout of X and however
    the call is split.

    X is not checked for NaN or inf: fits call this once per restart on rows
    `as_sample` has checked, and the public scorers (`assign_nearest`,
    `empirical_l1_risk`, `mc_gradient`) check their rows first.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be a 2-d array")
    C = _check_centers(centers)
    (n, d), (k, dc) = X.shape, C.shape
    if d != dc:
        raise ValueError(f"dimension mismatch: data has d={d}, centers have d={dc}")
    out = np.empty((n, k))
    _distances_into(X, C, out)
    return out


def _distances_into(X, C, out) -> None:
    """normalized_distances(X, C) written into out, an (n, k) float64 view of
    any strides, for float64 arrays X (n, d) and C (k, d) taken unchecked.
    Each entry gets the same bits whatever the shape of the call, so the call
    is split into up to _WORKERS runs of row blocks, or of centers when a
    block holds one row (and k >= 2), each run at least _RUN_VALUES
    differences: the calling thread walks the first run and one new thread
    each of the others, all joined before the call returns or raises, so no
    thread outlives it. A call too small for two runs starts no thread."""
    (n, d), k = X.shape, C.shape[0]
    rows = max(1, _BLOCK_BYTES // (8 * k * d))
    by_rows = rows >= 2 or k == 1
    units = -(-n // rows) if by_rows else k
    parts = min(_WORKERS, units, n * k * d // _RUN_VALUES)
    if parts <= 1:
        _blocks_into(X, C, out)
        return
    cuts = [units * p // parts for p in range(parts + 1)]
    if by_rows:
        runs = [(X[a * rows:b * rows], C, out[a * rows:b * rows]) for a, b in zip(cuts, cuts[1:])]
    else:
        runs = [(X, C[a:b], out[:, a:b]) for a, b in zip(cuts, cuts[1:])]
    errors: list = []
    threads = []
    try:
        for run in runs[1:]:
            t = threading.Thread(target=_walk, args=(run, errors))
            t.start()
            threads.append(t)
        _blocks_into(*runs[0])
    finally:  # no thread may still write into out once the call returns or raises
        for t in threads:
            t.join()
    if errors:
        raise errors[0]


def _walk(run, errors) -> None:
    """One thread's run of a split call; an error goes back to the caller."""
    try:
        _blocks_into(*run)
    except Exception as e:
        errors.append(e)


def _blocks_into(X, C, out) -> None:
    """The serial kernel: _distances_into on one thread, through one buffer."""
    (n, d), k = X.shape, C.shape[0]
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
    np.sqrt(out, out=out)


def _row_min(cols, out=None) -> np.ndarray:
    """The minimum over the first axis of `cols`, by len(cols) - 1 np.minimum
    calls over whole slices, into out (by default a new C-order array); the
    row minimums of an (n, k) matrix D are _row_min(D.T). A minimum is exact,
    so this has the bits of D.min(axis=1), which numpy runs 14-17x slower at
    k = 3 to 5: a reduction over a few values per row (tests/test_core.py)."""
    if out is None:
        out = np.empty(cols.shape[1:])
    if len(cols) == 1:
        np.copyto(out, cols[0])
        return out
    np.minimum(cols[0], cols[1], out=out)
    for col in cols[2:]:
        np.minimum(out, col, out=out)
    return out


def assign_nearest(X, centers) -> np.ndarray:
    """Nearest-center index for every row of X (a Dataset or a finite 2-d array)."""
    return normalized_distances(_rows(X), centers).argmin(axis=1)


@dataclass
class Dataset:
    """A fixed sample: rows X (n, d) with optional integer labels and outlier flags.

    Labels mark the generating component; outlier flags mark contaminated rows.
    Arrays are made read-only on construction, observations never mutate. A C-contiguous
    float64 X is kept without a copy, so the caller's own array becomes read-only
    too; any other X is copied, and the caller's array stays writable.
    """

    X: np.ndarray
    labels: Optional[np.ndarray] = None
    outlier_flags: Optional[np.ndarray] = None

    def __post_init__(self):
        X = np.ascontiguousarray(np.asarray(self.X, dtype=float))
        if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
            raise ValueError("Dataset.X must be a (n, d) array with n >= 1, d >= 1")
        if not _all_finite(X):
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


def _all_finite(X) -> bool:
    """Whether every entry of the non-empty float array X is finite. min() and
    max() propagate NaN, so both are finite exactly when every entry is, and
    unlike np.isfinite(X) they allocate no temporary the size of X."""
    return bool(np.isfinite(X.min()) and np.isfinite(X.max()))


# Values up to which _finite sums in Python floats: 0.4 us for 6 values and
# 0.8 us for 32, against 1.4 us for numpy's check at any small size. A stream
# checks its rows and its state's centers on every call, 16 rows at a time.
_FEW_VALUES = 64


def _finite(a) -> bool:
    """Whether every entry of the float array a is finite. A sum with a NaN or
    inf term is NaN or inf, so a finite sum of a few entries proves them all
    finite; more entries, or a sum that is not finite (finite entries may
    overflow it), take numpy's elementwise check."""
    if a.size <= _FEW_VALUES and math.isfinite(sum(a.ravel().tolist())):
        return True
    return bool(np.isfinite(a).all())


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


def _numbers(values):
    """values as an array of integers or floats, else None (bools, strings, ragged nesting)."""
    try:
        v = np.asarray(values)
    except ValueError:
        return None
    return v if v.dtype.kind in "iuf" else None


def _integers(values):
    """values as an int64 array when every entry is an integer in value that
    int64 holds (3.0 is one; 1.5, NaN, 2**63, True and "3" are not), else None."""
    v = _numbers(values)
    if v is None or not (np.isfinite(v) & (v == np.floor(v)) & (np.abs(v) < 2.0 ** 63)).all():
        return None
    return v.astype(np.int64)


def _rows(data) -> np.ndarray:
    """The (n, d) rows of `data`. A Dataset is taken as is (its constructor
    already checked it); any other input must be a finite 2-d array with
    d >= 1, and the error names the first row holding NaN or inf."""
    if isinstance(data, Dataset):
        return data.X
    X = np.asarray(data, dtype=float)
    if X.ndim != 2 or X.shape[1] < 1:
        raise ValueError(f"data must be a 2-d (n, d) array with d >= 1, got shape {X.shape}")
    if X.shape[0] and not _all_finite(X):
        row = int(np.argmin(np.isfinite(X).all(axis=1)))
        raise ValueError(f"data row {row} contains non-finite values")
    return X


def _is_int(v) -> bool:
    """Whether v is a Python or numpy integer, and not a bool."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _check_k(k, n) -> None:
    """Require k to be an integer with 1 <= k <= n, the rows there are to choose from."""
    if not _is_int(k):
        raise ValueError(f"k must be an integer, got {k!r}")
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < k:
        raise ValueError(f"need at least k={k} observations, got n={n}")


def as_sample(data, k: int) -> np.ndarray:
    """The (n, d) rows a fit of k clusters runs on, checked by `_rows`.
    Also requires k to be an integer with 1 <= k <= n."""
    X = _rows(data)
    _check_k(k, X.shape[0])
    return X


@dataclass
class FitReport:
    """Result of one fit: the selected centers plus bookkeeping.

    `centers` is the returned estimate (for k-medians, the averaged centers).
    `distance_evals` counts scaled-norm evaluations over the entire fit, the
    unit used by the complexity checks. A sequential fit counts 2*n*k per
    restart, one stream and one scoring pass: each restart is still scored
    once, though a restart that cannot win is scored only by its bounds
    (one matrix product entry per row and center) and not by the kernel.
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


# Values per block of rows that write_csv formats with one `%`. Small blocks hold
# little memory; blocks of 65536 values ran slower on a 5422x1440 dataset.
_CSV_BLOCK_VALUES = 4096


def write_csv(dataset: Dataset, path) -> None:
    """Write a dataset to CSV with full float precision (round-trips exactly).

    The bytes are those np.savetxt writes with %.17g per feature and %d per
    label or flag column, but rows are formatted _CSV_BLOCK_VALUES values at a
    time, so no copy of X is made."""
    extra = {name: col for name, col in ((_LABEL_COL, dataset.labels),
                                         (_OUTLIER_COL, dataset.outlier_flags)) if col is not None}
    cols = [f"x{j + 1}" for j in range(dataset.d)] + list(extra)
    line = ",".join(["%.17g"] * dataset.d + ["%d"] * len(extra)) + "\n"
    rows = max(1, _CSV_BLOCK_VALUES // len(cols))
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for i in range(0, dataset.n, rows):
            block = dataset.X[i:i + rows]
            if extra:  # labels and flags join as floats, which %d prints as integers
                block = np.hstack([block, *(c[i:i + rows, None] for c in extra.values())],
                                  dtype=float)
            fh.write((line * len(block)) % tuple(block.ravel().tolist()))


def read_csv(path) -> Dataset:
    """Read a dataset written by write_csv (or any CSV following the format).

    When every column is a feature, the array `np.loadtxt` parses becomes
    `Dataset.X` as it is; otherwise the feature columns are gathered in one
    C-order copy. `label` and `outlier` may each appear once, in any column."""
    with open(path, "r") as fh:
        header = fh.readline().strip()
        if not header:
            raise ValueError(f"{path}: empty file")
        names = [c.strip() for c in header.split(",")]
        for name in (_LABEL_COL, _OUTLIER_COL):
            if names.count(name) > 1:
                raise ValueError(f"{path}: header names column '{name}' more than once")
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
    X = raw if len(feature_idx) == len(names) else raw.take(feature_idx, axis=1)
    try:  # Dataset checks the label and outlier columns
        return Dataset(X, labels=labels, outlier_flags=flags)
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
        if doc.get(key) is None:
            continue
        try:
            values = np.asarray(doc[key], dtype=float) if dtype is float else _integers(doc[key])
        except (TypeError, ValueError):  # ragged nesting, or a string
            values = None
        if values is None:
            kind = "numbers" if dtype is float else "integers"
            raise ValueError(f"{path}: model {key} is not an array of {kind}")
        doc[key] = values
    return doc
