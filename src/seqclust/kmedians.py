"""Stochastic gradient k-medians with Polyak-Ruppert averaging.

Each observation moves its nearest raw center by a fixed-length step along
the unit direction toward the observation, with gain

    a_r = c_gamma / (1 + c_alpha * n_r)**alpha,   1/2 < alpha <= 1,

where n_r counts the updates cluster r has received so far (0 at the first
update, so the first step equals c_gamma). The averaged centers are the
running mean of the seed and the raw iterates after each update; they are
the returned estimate and drive restart selection.

An observation exactly equal to its nearest raw center has no descent
direction; such steps are skipped entirely and counted.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .core import (FitReport, _check_centers, _integers, _is_int, _numbers, _rows, as_sample,
                   normalized_distances)
from .kmeans import kmeans_fit
from .recursion import (_batched_walk, _check_seeds, _fit_restarts, _numpy_walk, _run_loops,
                        _scalar_walk, _state_counts, _stream_rows)

__all__ = [
    "GainConfig",
    "KMediansState",
    "kmedians_init",
    "kmedians_step",
    "kmedians_stream",
    "kmedians_fit",
    "kmedians_fit_data_driven",
    "mc_gradient",
    "state_from_model",
]

_BOUND_SLACK = 1e-12


def _norm_limits(bound, c):
    """What bound_check holds each raw center Z_r to, given bound_K (or None)
    and the (k,) gain constants c: |Z_r| <= bound_K + 2*c_r. A step moves Z_r
    by at most c_r toward a row within bound_K, so |Z_r| never passes
    max(|seed_r|, bound_K + c_r), and kmedians_init holds the seeds to bound_K."""
    return None if bound is None else bound + 2.0 * c + _BOUND_SLACK


def _norms(A) -> np.ndarray:
    """(n, 1) scaled norms of the rows of A (n, d), by the kernel: no n×d temporary."""
    return normalized_distances(A, np.zeros((1, A.shape[1])))


def _unbounded(r, nr, bound, c_r, where="") -> AssertionError:
    return AssertionError(f"boundedness violated{where}: |raw[{r}]|={nr:.9g} > "
                          f"{bound:.9g} + 2*{c_r:.9g}")


@dataclass(frozen=True)
class GainConfig:
    """Gain schedule parameters. c_gamma may be a scalar or one value per cluster."""

    c_gamma: object = 1.0
    c_alpha: float = 1.0
    alpha: float = 0.75

    def __post_init__(self):
        c, c_alpha, alpha = (_numbers(v) for v in (self.c_gamma, self.c_alpha, self.alpha))
        if c is None or not (np.isfinite(c) & (c > 0)).all():
            raise ValueError("c_gamma must be positive and finite")
        if c_alpha is None or c_alpha.ndim or not (np.isfinite(c_alpha) and c_alpha > 0):
            raise ValueError("c_alpha must be positive and finite")
        if alpha is None or alpha.ndim or not (0.5 < alpha <= 1.0):
            raise ValueError("alpha must lie in (1/2, 1]")
        object.__setattr__(self, "_c", c.astype(float).reshape(-1))  # c_vector only broadcasts it

    def _check_length(self, k: int) -> None:
        """Refuse a c_gamma that is neither scalar nor of length k."""
        if self._c.size not in (1, k):
            raise ValueError(f"c_gamma must be scalar or length {k}, got length {self._c.size}")

    def c_vector(self, k: int) -> np.ndarray:
        """(k,) gain constants: c_gamma broadcast to the k clusters."""
        self._check_length(k)
        return self._c.repeat(k) if self._c.size == 1 else self._c.copy()


@dataclass
class KMediansState:
    """Mutable per-stream state. `raw` are the gradient iterates, `averaged`
    the running means returned as the estimate. What else a stream reports
    follows from the update counts, the skips and the gain. A stream takes a
    state whose raw and averaged centers are finite (k, d) arrays of one shape,
    update_counts a (k,) integer array >= 0, skips an integer >= 0, gain a
    GainConfig with c_gamma scalar or of length k, and bound_K None or a
    finite number."""

    raw: np.ndarray
    averaged: np.ndarray
    update_counts: np.ndarray   # (k,) completed updates per cluster
    gain: GainConfig
    bound_K: object = None      # when set, each update asserts |raw[r]| <= bound_K + 2*c_r
    skips: int = 0

    @property
    def k(self) -> int:
        return self.raw.shape[0]

    @property
    def d(self) -> int:
        return self.raw.shape[1]

    @property
    def n_seen(self) -> int:
        """Rows consumed: each one either updated a cluster or was skipped."""
        return int(self.update_counts.sum()) + self.skips

    @property
    def current_steps(self) -> np.ndarray:
        """(k,) last gain used per cluster, 0 before its first update."""
        cvec = self.gain.c_vector(self.k)
        steps = np.zeros(self.k)
        updated = self.update_counts > 0
        steps[updated] = cvec[updated] / _gain_powers(self.gain, self.update_counts[updated] - 1)
        return steps


def _finite_bound(bound_K) -> float:
    """bound_K as a float. NaN and inf are refused: no norm exceeds them, so
    either would turn the bound check off without a word."""
    K = _numbers(bound_K)
    if K is None or K.ndim or not np.isfinite(K):
        raise ValueError(f"bound_K must be a finite number, got {bound_K!r}")
    return float(K)


def kmedians_init(seeds, gain: GainConfig, *, bound_K=None) -> KMediansState:
    """Start a stream from k pairwise distinct seeds with the given gains.
    A bound_K, when given, must be a finite number, and every seed's norm within it."""
    s = _check_seeds(seeds)
    if bound_K is not None:
        bound_K = _finite_bound(bound_K)
        worst = float(_norms(s).max())
        if worst > bound_K + _BOUND_SLACK:
            raise ValueError(f"seed norm {worst:.6g} exceeds bound_K={bound_K:.6g}")
    return _checked(KMediansState(s, s, np.zeros(len(s), dtype=np.int64), gain, bound_K))


def _gain_powers(gain: GainConfig, us) -> np.ndarray:
    """p[i] = (1 + c_alpha*us[i])**alpha in the per-row loops' scalar pow (recursion's rules)."""
    c_alpha, alpha = float(gain.c_alpha), float(gain.alpha)
    return np.array([(1.0 + c_alpha * int(u)) ** alpha for u in us], dtype=float)


def _gain_terms(state: KMediansState):
    """(c_r list, bound_check limits or None, c_alpha, alpha) of the per-state loops."""
    cvec, gain = state.gain.c_vector(state.k), state.gain
    return cvec.tolist(), _norm_limits(state.bound_K, cvec), float(gain.c_alpha), float(gain.alpha)


def _consume(state: KMediansState, X) -> None:
    """Feed the rows of X through the recursion of one state, walked with
    numpy, mutating it in place: the loop `_run_loops` gives each restart,
    stream and step that runs alone at d > core._SCALAR_EXACT_D. The gain is
    taken in Python floats, whose sqrt, pow and division give the bits numpy's
    scalars do."""
    raw = state.raw
    avg = state.averaged
    d = raw.shape[1]
    counts = state.update_counts.tolist()
    cvec, limit, c_alpha, alpha = _gain_terms(state)
    skips = 0
    for r, sq, diff in _numpy_walk(raw, X):
        nrm = math.sqrt(sq / d)
        if nrm == 0.0:
            skips += 1
            continue
        u = counts[r]
        a = cvec[r] / (1.0 + c_alpha * u) ** alpha
        row, mean_row = raw[r], avg[r]
        np.multiply(diff, a / nrm, out=diff)
        np.subtract(row, diff, out=row)
        # running mean over {seed} + raw iterates after each update:
        # ((u + 1) * avg + raw) / (u + 2), in place
        np.multiply(mean_row, u + 1, out=mean_row)
        np.add(mean_row, row, out=mean_row)
        np.divide(mean_row, u + 2, out=mean_row)
        counts[r] = u + 1
        if limit is not None:
            nr = np.sqrt((row * row).mean())
            if nr > limit[r]:
                raise _unbounded(r, nr, state.bound_K, cvec[r])
    state.update_counts[:] = counts
    state.skips += skips


def _consume_small(state: KMediansState, X) -> None:
    """Scalar twin of the numpy loop, with its bits: the loop `_run_loops` gives
    each restart, stream and step that runs alone at d <= core._SCALAR_EXACT_D
    (the hot path of every 2-d benchmark)."""
    d = state.raw.shape[1]
    raw = state.raw.tolist()
    avg = state.averaged.tolist()
    counts = state.update_counts.tolist()
    cvec, limit, c_alpha, alpha = _gain_terms(state)
    skips = 0
    ds = range(d)
    for z, r, best_sq in _scalar_walk(raw, X):
        nrm = math.sqrt(best_sq / d)
        if nrm == 0.0:
            skips += 1
            continue
        u = counts[r]
        a = cvec[r] / (1.0 + c_alpha * u) ** alpha
        scale = a / nrm
        row = raw[r]
        mean_row = avg[r]
        w = u + 1
        for j in ds:
            row[j] -= scale * (row[j] - z[j])
            mean_row[j] = (w * mean_row[j] + row[j]) / (u + 2)
        counts[r] = w
        if limit is not None:
            s = 0.0
            for j in ds:
                s += row[j] * row[j]
            nr = math.sqrt(s / d)
            if nr > limit[r]:
                raise _unbounded(r, nr, state.bound_K, cvec[r])
    state.raw[:] = raw
    state.averaged[:] = avg
    state.update_counts[:] = counts
    state.skips += skips


def _consume_restarts(states, X, perms) -> None:
    """Feed the rows of X through R restart states of one gain at once,
    stacked into (R, k, d) blocks, mutating them in place; restart i reads
    the rows in the i-th of the R row orders `perms` when it is given. Skips
    are masked per restart. The gain comes from the table c_r / p[u] of
    scalar powers (_gain_powers), and every other operation is the one
    _consume applies element for element, so each state ends with the same
    bits as its own _consume pass."""
    R = len(states)
    k, d = states[0].raw.shape
    gain, bound = states[0].gain, states[0].bound_K
    raw = np.stack([st.raw for st in states])
    avg = np.stack([st.averaged for st in states])
    counts = np.stack([st.update_counts for st in states])
    skips = np.zeros(R, dtype=np.int64)
    powers = _gain_powers(gain, range(int(counts.max()) + X.shape[0]))
    cvec = np.tile(gain.c_vector(k), R)
    limit = _norm_limits(bound, cvec)
    flat_raw, flat_avg = raw.reshape(R * k, d), avg.reshape(R * k, d)
    flat_counts = counts.reshape(R * k)
    new_buf, mean_buf = np.empty((R, d)), np.empty((R, d))
    for i, sq, diff in _batched_walk(raw, X, perms):
        nrm = np.sqrt(sq[i] / d)
        live = nrm != 0.0
        if not live.all():
            skips += ~live
            i, nrm, diff = i[live], nrm[live], diff[live]
        new, mean = new_buf[: len(i)], mean_buf[: len(i)]
        u = flat_counts[i]
        a = cvec[i] / powers[u]
        np.divide(a, nrm, out=a)
        np.multiply(diff, a[:, None], out=diff)
        np.subtract(flat_raw.take(i, axis=0, out=new, mode="clip"), diff, out=new)
        flat_raw[i] = new
        # running mean over {seed} + raw iterates after each update:
        # ((u + 1) * avg + raw) / (u + 2), in place, with u + 1 as a float
        # (exact below 2**53): an int column would be cast inside each (R, d) op
        w = u + 1.0
        np.multiply(flat_avg.take(i, axis=0, out=mean, mode="clip"), w[:, None], out=mean)
        np.add(mean, new, out=mean)
        np.divide(mean, (w + 1.0)[:, None], out=mean)
        flat_avg[i] = mean
        flat_counts[i] = u + 1
        if limit is not None:
            nr = np.sqrt((new * new).mean(axis=1))
            over = nr > limit[i]
            if over.any():
                j = int(np.argmax(over))
                rr, r = divmod(int(i[j]), k)
                raise _unbounded(r, nr[j], bound, cvec[i[j]], f" in restart {rr}")
    for j, st in enumerate(states):
        st.raw[:] = raw[j]
        st.averaged[:] = avg[j]
        st.update_counts[:] = counts[j]
        st.skips += int(skips[j])


_LOOPS = {"scalar": _consume_small, "numpy": _consume, "batched": _consume_restarts}
# (R*k*d from which R >= 2 restarts at d <= 7 walk batched, R from which they
# do at d > 7), read off the measured (d, k, R) tables in CHANGES.md
_BATCH_FROM = (300, 4)


def _checked(state: KMediansState) -> KMediansState:
    """A float copy of state after the one check of KMediansState's rules, which
    every stream entry point and state_from_model call; the error names the field."""
    raw = _check_centers(state.raw, "state raw centers")
    avg = _check_centers(state.averaged, "state averaged centers")
    if avg.shape != raw.shape:
        raise ValueError(f"state averaged centers have shape {avg.shape}, raw centers "
                         f"{raw.shape}; they must match")
    k = raw.shape[0]
    counts = _state_counts(state.update_counts, "update_counts", k, 0)
    if not _is_int(state.skips) or state.skips < 0:
        raise ValueError(f"state skips must be an integer >= 0, got {state.skips!r}")
    if not isinstance(state.gain, GainConfig):
        raise ValueError(f"state gain must be a GainConfig, got {state.gain!r}")
    state.gain._check_length(k)
    bound = None if state.bound_K is None else _finite_bound(state.bound_K)
    return KMediansState(raw, avg, counts, state.gain, bound, state.skips)


def kmedians_step(state: KMediansState, z) -> KMediansState:
    """Consume one observation, returning the new state (input left untouched):
    kmedians_stream on z as a (1, d) batch."""
    return kmedians_stream(state, np.asarray(z, dtype=float)[None])


def kmedians_stream(state: KMediansState, X) -> KMediansState:
    """Consume a batch of observations in row order; returns the new state
    (input left untouched). A state that breaks KMediansState's rules, or rows
    X that are not a finite (m, d) array, raise a ValueError naming the field."""
    out = _checked(state)
    _run_loops(_LOOPS, _BATCH_FROM, [out], out.k, _stream_rows(X, out.d))
    return out


def kmedians_fit(
    data,
    k: int,
    gain: GainConfig | None = None,
    *,
    seeds=None,
    restarts: int = 10,
    seed=None,
    shuffle: bool = False,
    bound_check: bool = False,
) -> FitReport:
    """One pass of averaged k-medians, best of `restarts` by the L1 risk of
    the averaged centers. Explicit `seeds` (shape (k, d)) make a single run."""
    X = as_sample(data, k)
    gain = GainConfig() if gain is None else gain

    def run_all(S, X, perms):
        # the bound covers the seeds too: draw_seeds' jitter may leave the rows' ball
        norms = (_norms(A).max() for A in (X, S.reshape(-1, X.shape[1])))
        bound_K = float(max(norms)) if bound_check else None
        states = [kmedians_init(s, gain, bound_K=bound_K) for s in S]
        _run_loops(_LOOPS, _BATCH_FROM, states, k, X, perms)
        return [(st.averaged, st) for st in states]

    report, st = _fit_restarts("kmedians", X, k, run_all, seeds=seeds,
                               restarts=restarts, seed=seed, shuffle=shuffle)
    report.n_queries = st.n_seen
    report.n_updates = int(st.update_counts.sum())
    report.skips = st.skips
    report.raw_centers = st.raw
    report.update_counts = st.update_counts
    report.c_gamma = gain.c_gamma
    report.c_alpha = gain.c_alpha
    report.alpha = gain.alpha
    return report


def _derived_entropy(seed, tag: int):
    if seed is None:
        return None
    if isinstance(seed, (list, tuple)):
        return [*seed, tag]
    return [seed, tag]


def kmedians_fit_data_driven(
    data,
    k: int,
    *,
    restarts: int = 10,
    seed=None,
    shuffle: bool = False,
    bound_check: bool = False,
) -> FitReport:
    """Data-driven procedure: run k-means, take its empirical L1 risk as
    c_gamma, then run averaged k-medians with that gain (c_alpha=1, alpha=3/4).

    The k-means phase uses the caller's seed unchanged, so it coincides with a
    standalone kmeans_fit at the same seed. A zero k-means risk (degenerate
    data) returns the k-means centers directly.
    """
    t0 = time.perf_counter()
    km = kmeans_fit(data, k, restarts=restarts, seed=seed, shuffle=shuffle)
    c = km.risk
    if c == 0.0:
        out = replace(km, algorithm="kmedians-auto", c_gamma=0.0)
        out.wall_time = time.perf_counter() - t0
        return out
    rep = kmedians_fit(
        data,
        k,
        GainConfig(c_gamma=c),
        restarts=restarts,
        seed=_derived_entropy(seed, 1),
        shuffle=shuffle,
        bound_check=bound_check,
    )
    rep.algorithm = "kmedians-auto"
    rep.rng_seed = seed
    rep.wall_time = time.perf_counter() - t0
    rep.distance_evals += km.distance_evals
    return rep


def mc_gradient(centers, X):
    """Monte-Carlo estimate of the risk gradient at `centers` over sample X.

    Returns (grad, skipped): grad has shape (k, d), row j is the sample mean
    of the unit pull toward center j over the points assigned to it. Sample
    points exactly equal to a center are skipped and counted. X is a Dataset
    or a finite 2-d array; a row holding NaN or inf is rejected by number.
    """
    C = np.asarray(centers, dtype=float)
    X = _rows(X)
    if C.ndim != 2 or C.shape[1] != X.shape[1]:
        raise ValueError("mc_gradient: centers (k, d) and sample (n, d) must match")
    k, d = C.shape
    D = normalized_distances(X, C)
    r = D.argmin(axis=1)
    dmin = D[np.arange(X.shape[0]), r]
    keep = dmin > 0.0
    skipped = int(np.count_nonzero(~keep))
    used = int(np.count_nonzero(keep))
    grad = np.zeros_like(C)
    if used == 0:
        return grad, skipped
    for j in range(k):
        sel = keep & (r == j)  # an empty cluster sums to grad's zero row
        diff = C[j] - X[sel]
        grad[j] = (diff / dmin[sel][:, None]).sum(axis=0)
    return grad / used, skipped


def state_from_model(model: dict) -> KMediansState:
    """Rebuild a resumable stream state from a model snapshot dict: raw_centers
    become the state's raw, centers its averaged. A snapshot no k-medians
    stream could have left fails kmedians_stream's own check of the state,
    whose ValueError names the state field."""
    if model.get("raw_centers") is None:
        raise ValueError("model has no raw centers; only k-medians fits are resumable")
    try:
        gain = GainConfig(**{key: model.get(key) for key in ("c_gamma", "c_alpha", "alpha")})
    except ValueError as exc:
        raise ValueError(f"model {exc}") from None
    return _checked(KMediansState(raw=model["raw_centers"], averaged=model.get("centers"),
                                  update_counts=_integers(model.get("update_counts")),
                                  gain=gain, skips=model.get("skips", 0)))
