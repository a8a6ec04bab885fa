"""What the sequential fits share: seeds, the restart policy, the row walks
and the checks of a stream's rows and counts.

MacQueen k-means and averaged k-medians walk the rows alike: in a fixed
order, each row to its nearest center (ties to the lowest index), which
alone is updated. A walk owns the row order, the search and the gather of
the chosen rows, one walk per loop shape, each the fastest on some inputs;
each fit keeps only its three update loops, `for ... in walk(...)`, and
`_run_loops` alone picks which of them runs.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .core import (_BLOCK_BYTES, _SCALAR_EXACT_D, FitReport, _check_centers, _check_k, _finite,
                   _is_int, _row_min, normalized_distances)

__all__ = ["draw_seeds"]

_SEED_ATTEMPTS = 16  # draws of k rows before duplicated seeds get a jitter


def _row_keys(s) -> list:
    """One key per row of the float array s, equal for rows equal in value:
    adding 0.0 turns -0.0 into 0.0 and leaves every other float as it is."""
    return [row.tobytes() for row in s + 0.0]


def _check_seeds(seeds) -> np.ndarray:
    s = _check_centers(seeds, "seeds")
    keys = _row_keys(s)
    for a in range(len(keys)):
        if keys[a] in keys[a + 1:]:
            b = keys.index(keys[a], a + 1)
            raise ValueError(f"seeds {a} and {b} coincide; seeds must be pairwise distinct")
    return s


def _stream_rows(X, d) -> np.ndarray:
    """X as the finite (m, d) float rows a stream or a step (m = 1) consumes."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != d:
        raise ValueError(f"observations must be an (m, {d}) array matching the state, "
                         f"got shape {X.shape}")
    if not _finite(X):
        raise ValueError("observations contain non-finite values")
    return X


def _state_counts(counts, name, k, least) -> np.ndarray:
    """A copy of a stream state's per-cluster counts, which must be a (k,)
    integer array with every entry >= least; the error names the field."""
    if (not isinstance(counts, np.ndarray) or counts.shape != (k,)
            or counts.dtype.kind not in "iu" or min(counts.tolist()) < least):
        raise ValueError(f"state {name} must be a ({k},) array of integers >= {least}, "
                         f"got {counts!r}")
    return counts.copy()


def draw_seeds(X, k, rng) -> np.ndarray:
    """Draw k pairwise distinct rows uniformly without replacement.

    Datasets with duplicated rows may defeat the draw; after _SEED_ATTEMPTS
    draws the duplicates get an epsilon-scale jitter instead. X must be a 2-d
    array and k an integer with 1 <= k <= n; the rows are not scanned for NaN
    or inf, as the fits draw from rows they have checked.
    """
    X = np.asarray(X)
    if X.ndim != 2 or X.shape[1] < 1:
        raise ValueError(f"X must be a 2-d (n, d) array with d >= 1, got shape {X.shape}")
    n = X.shape[0]
    _check_k(k, n)
    idx = None
    for _ in range(_SEED_ATTEMPTS):
        idx = rng.choice(n, size=k, replace=False)
        s = X[idx]
        if len(set(_row_keys(s))) == k:
            return s.copy()
    s = X[idx].astype(float).copy()
    scale = max(1.0, float(np.abs(s).max())) * np.finfo(float).eps * 8
    while len(set(_row_keys(s))) < k:
        seen = set()
        for i, key in enumerate(_row_keys(s)):
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
    i-th row order, with the loops `_run_loops` picks, and returns one
    (centers, state) per restart. `_best_restart` picks the restart of least
    empirical L1 risk: each restart's risk is first bounded from one matrix
    product per block of rows, and only the restarts whose interval can still
    hold the least risk are scored by the exact kernel, so the risk, restart
    and assignments are those of exact scoring of every restart, bit for bit,
    on a BLAS whose dgemm sums each entry's d products (fused or not, in any
    order) and never uses a Strassen-type scheme. Returns the report of the
    lowest-risk restart, the first of equal ones, with the fields both fits
    share, and that restart's state.
    """
    t0 = time.perf_counter()
    n, d = X.shape
    if not _is_int(restarts):
        raise ValueError(f"restarts must be an integer, got {restarts!r}")
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

    results = run_all(S, X, perms)
    risk, ridx, assignments = _best_restart(X, [centers for centers, _ in results])
    centers, state = results[ridx]
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


def _best_restart(X, centers):
    """(risk, i, assignments) of the lowest-risk (k, d) center set of the list
    `centers` by empirical L1 risk over the rows of X, i its index; ties go to
    the lowest index. With two or more sets, `_risk_bounds` first gives each
    an interval that holds its exact risk: a risk from one matrix product per
    block of rows, widened by a rounding-error bound that holds for any dgemm
    that sums each entry's products in some order, fused or not, and uses no
    Strassen-type scheme. Only the sets whose lower bound is at or below the
    least upper bound are scored exactly: every other set is beaten by the set
    of that upper bound, and the winner is never dropped. The sets left are
    scored g at a time, g = _BLOCK_BYTES // (8*n*k) but at least 1, with one
    kernel call over their g*k stacked centers, so a group's (n, g*k)
    distances fill at most one kernel buffer, or one set's (n, k) when that
    alone is larger. The bits are those of one
    D.min(axis=1).mean() per set: an entry of the kernel does not depend on
    the centers beside it, `_row_min` is exact, and each row of a C-order
    (g, n) array has the mean its 1-D copy has (tests/test_kmeans.py)."""
    n, k = X.shape[0], centers[0].shape[0]
    keep = [0]
    if len(centers) >= 2:
        lo, hi = _risk_bounds(X, centers)
        keep = np.flatnonzero(lo <= hi.min()).tolist()
    g = max(1, _BLOCK_BYTES // (8 * n * k))
    best = None
    for i in range(0, len(keep), g):
        group = keep[i:i + g]
        D = normalized_distances(X, np.concatenate([centers[j] for j in group]))
        mins = _row_min(D.reshape(n, -1, k).transpose(2, 1, 0))  # (g, n), C order
        for p, risk in enumerate(mins.mean(axis=1).tolist()):
            if best is None or risk < best[0]:
                best = (risk, group[p], D[:, p * k:(p + 1) * k].argmin(axis=1))
        del D, mins  # the next group's call holds nothing of this one
    return best


# float64's unit roundoff u and least subnormal
_U = 2.0 ** -53
_TINY = 2.0 ** -1074


def _gamma(m):
    """Higham's gamma_m = m*u / (1 - m*u), which bounds the relative error
    of m roundings in a row (Accuracy and Stability of Numerical Algorithms,
    section 3.1)."""
    return m * _U / (1 - m * _U)


def _risk_bounds(X, centers):
    """(lo, hi), two (R,) arrays with lo[j] <= risk <= hi[j] for each (k, d)
    center set j of the list `centers`, risk the value the exact scoring gives
    it: D.min(axis=1).mean() of D = normalized_distances(X, centers[j]).

    X is walked in blocks of rows, each through one matrix product with the
    R*k stacked centers, laid out so that center r of set j is row r*R + j.
    A row x's squared distance to c is taken as s~ = -2 x.c + |c|^2 + |x|^2,
    which is off by at most gamma_(d+3) (|x| + |c|)^2 + 2d*tiny when the
    product and the norms sum their d terms in any order, fused or not; BLAS's
    dgemm is assumed to do that, and to use no Strassen-type scheme. So the
    least exact squared distance from x to a set lies within
    E = 2 gamma_(2d+8) (|x|^2 + max |c|^2) + 4d*tiny of that set's least s~,
    m~, taken by `_row_min` over the set's k columns. The sums over the rows
    of sqrt(max(m~ - E, 0)) and sqrt(m~ + E), over n sqrt(d), are then widened
    by the factor 1 -+ gamma_(2(n+d)+16) and by 2^-535. That covers the
    kernel's rounding (gamma_(d+4) per distance, 2^-536 where its squares
    underflow), the mean's (gamma_n, in any order), and the bounds' own.
    When a square might overflow, 2 (max |x|^2 + max |c|^2) not below
    2^1020, or a sum is not finite, nothing is certified: every interval is
    (-inf, inf), which keeps every set.

    The product's buffer holds about _BLOCK_BYTES, and X is only read."""
    n, d = X.shape
    R, k = len(centers), centers[0].shape[0]
    m = R * k
    C = np.stack(centers, axis=1).reshape(m, d)  # a new array: row r*R + j is centers[j][r]
    rows = max(1, _BLOCK_BYTES // (8 * (m + R)))
    buf = np.empty((m + R) * min(rows, n))
    sums = np.zeros((2, R))  # of sqrt(max(m~ - E, 0)) and of sqrt(m~ + E) over the rows
    x_max = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        cn = np.einsum("ij,ij->i", C, C)
        c_max = cn.max()
        C *= -2.0
        for i in range(0, n, rows):
            block = X[i:i + rows]
            b = block.shape[0]
            P = np.matmul(C, block.T, out=buf[:m * b].reshape(m, b))
            P += cn[:, None]
            M = _row_min(P.reshape(k, R, b), out=buf[m * b:(m + R) * b].reshape(R, b))
            xn = np.einsum("ij,ij->i", block, block)
            M += xn
            x_max = max(x_max, xn.max())
            E = xn  # now each row's margin
            E += c_max
            E *= 2.0 * _gamma(2 * d + 8)
            E += 4 * d * _TINY
            low = buf[:R * b].reshape(R, b)  # P is spent
            np.subtract(M, E, out=low)
            np.maximum(low, 0.0, out=low)
            np.sqrt(low, out=low)
            sums[0] += low.sum(axis=1)
            M += E
            np.sqrt(M, out=M)
            sums[1] += M.sum(axis=1)
    if not (2.0 * (x_max + c_max) < 2.0 ** 1020 and np.isfinite(sums).all()):
        return np.full(R, -np.inf), np.full(R, np.inf)
    sums /= n * math.sqrt(d)
    delta = _gamma(2 * (n + d) + 16)
    return sums[0] * (1.0 - delta) - 2.0 ** -535, sums[1] * (1.0 + delta) + 2.0 ** -535


def _scalar_walk(centers, X):
    """Yield (z, r, sq) per row of the float array X, in order: the row as a
    list, its nearest center's index and their squared distance. The caller
    updates `centers`, a list of k lists, in place, so the next row sees the
    update. Fastest at small k*d, where numpy's per-call overhead outweighs
    the arithmetic. Its sums are numpy's only up to d = core._SCALAR_EXACT_D."""
    ks = range(len(centers))
    ds = range(X.shape[1])  # built once: a range per row and center cost ~20% at d=2
    for z in X.tolist():
        best_sq = math.inf
        r = 0
        for i in ks:
            row = centers[i]
            s = 0.0
            for j in ds:
                t = row[j] - z[j]
                s += t * t
            if s < best_sq:
                best_sq = s
                r = i
        yield z, r, best_sq


def _numpy_walk(centers, X):
    """Yield (r, sq, diff) per row z of X, in order: its nearest center's
    index, their squared distance and diff = centers[r] - z. The caller
    updates the (k, d) array `centers` in place, so the next row sees it.
    diff is a row of a buffer the walk refills each row, which the caller may
    overwrite: the walk allocates no array per row."""
    diffs = np.empty_like(centers)
    squares = np.empty_like(centers)
    sq = np.empty(centers.shape[0])
    for z in X:
        np.subtract(centers, z, out=diffs)
        np.multiply(diffs, diffs, out=squares)
        np.add.reduce(squares, axis=1, out=sq)  # what .sum(axis=1) runs: the same bits
        r = int(sq.argmin())
        yield r, sq.item(r), diffs[r]


def _batched_walk(centers, X, perms):
    """Walk the rows of X through R restarts at once, with a fixed number of
    numpy calls per row. The caller updates the contiguous (R, k, d) block
    `centers` in place, through its (R*k, d) view, so the next row sees it.
    Restart i reads the rows in the i-th of the R row orders `perms` if given.
    Yields (i, sq, diff): i the (R,) flat indices of each restart's nearest
    center, sq all R*k squared distances (k-means needs none, so no gather)
    and diff the (R, d) rows i of centers - z, each as _numpy_walk computes
    it. sq and diff are buffers the walk refills each row, and the caller may
    overwrite diff: the walk allocates no (R, k, d) or (R, d) array per row."""
    R, k, d = centers.shape
    base = np.arange(R) * k
    diffs = np.empty_like(centers)
    flat_diffs = diffs.reshape(R * k, d)
    squares = np.empty_like(centers)
    sq = np.empty((R, k))
    flat_sq = sq.reshape(R * k)
    diff = np.empty((R, d))
    rows = X if perms is None else (X[cols][:, None, :] for cols in np.stack(list(perms)).T)
    for z in rows:
        np.subtract(centers, z, out=diffs)
        np.multiply(diffs, diffs, out=squares)
        np.add.reduce(squares, axis=2, out=sq)
        i = base + sq.argmin(axis=1)
        # i is in range, and mode="raise" would fill `out` through a buffer
        flat_diffs.take(i, axis=0, out=diff, mode="clip")
        yield i, flat_sq, diff


def _run_loops(loops, batch_from, states, k, X, perms=None) -> None:
    """Feed the rows of X through every state of `states` (k centers each) in
    place with one of a fit's three update loops: loops["scalar"](state, X) and
    loops["numpy"](state, X) walk one state, loops["batched"](states, X, perms)
    all at once. State i reads the rows in the i-th row order the iterator
    `perms` yields, or in order if it is None. batch_from is the fit's pair of
    measured cross-overs (R*k*d at d <= _SCALAR_EXACT_D, R above): R >= 2
    states walk as one batched block when R*k*d reaches the first at
    d <= _SCALAR_EXACT_D, or R reaches the second above; otherwise each walks
    alone, in Python floats up to d = _SCALAR_EXACT_D and with numpy above.
    Every loop gives the same bits at every d, so this rule only chooses speed."""
    R, d = len(states), X.shape[1]
    low_d, high_d = batch_from
    if R >= 2 and (R >= high_d if d > _SCALAR_EXACT_D else R * k * d >= low_d):
        loops["batched"](states, X, perms)
        return
    loop = loops["scalar" if d <= _SCALAR_EXACT_D else "numpy"]
    for st in states:
        loop(st, X if perms is None else X[next(perms)])
