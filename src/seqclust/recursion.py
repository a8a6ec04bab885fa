"""What the sequential fits share: seeds, the restart policy and the row walks.

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

from .core import _SCALAR_EXACT_D, FitReport, _check_centers, normalized_distances

__all__ = ["draw_seeds"]

_SEED_ATTEMPTS = 16  # draws of k rows before duplicated seeds get a jitter


def _row_keys(s) -> list:
    """One key per row of the float array s, equal for rows equal in value:
    adding 0.0 turns -0.0 into 0.0 and leaves every other float as it is."""
    return [row.tobytes() for row in s + 0.0]


def _check_seeds(seeds) -> np.ndarray:
    s = np.asarray(seeds, dtype=float)
    if not np.all(np.isfinite(s)):
        raise ValueError("seeds contain non-finite values")
    s = _check_centers(s)
    keys = _row_keys(s)
    for a in range(len(keys)):
        if keys[a] in keys[a + 1:]:
            b = keys.index(keys[a], a + 1)
            raise ValueError(f"seeds {a} and {b} coincide; seeds must be pairwise distinct")
    return s.copy()


def draw_seeds(X, k, rng) -> np.ndarray:
    """Draw k pairwise distinct rows uniformly without replacement.

    Datasets with duplicated rows may defeat the draw; after _SEED_ATTEMPTS
    draws the duplicates get an epsilon-scale jitter instead.
    """
    n = X.shape[0]
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
    (centers, state) per restart. Each restart's centers are scored by
    empirical L1 risk. Returns the report of the lowest-risk restart with
    the fields both fits share, and that restart's state.
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
    `perms` yields, or in order if it is None. R >= 2 states walk as one batched
    block when d > _SCALAR_EXACT_D or R*k*d reaches the fit's measured
    cross-over `batch_from`; otherwise each walks alone, in Python floats up to
    d = _SCALAR_EXACT_D and with numpy above. Every loop gives the same bits at
    every d, so this rule only chooses speed."""
    R, d = len(states), X.shape[1]
    if R >= 2 and (d > _SCALAR_EXACT_D or R * k * d >= batch_from):
        loops["batched"](states, X, perms)
        return
    loop = loops["scalar" if d <= _SCALAR_EXACT_D else "numpy"]
    for st in states:
        loop(st, X if perms is None else X[next(perms)])
