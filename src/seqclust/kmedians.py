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

from .core import FitReport, _rows, as_sample, normalized_distances
from .kmeans import kmeans_fit
from .recursion import (_batched_walk, _check_seeds, _fit_restarts, _numpy_walk, _run_loops,
                        _scalar_walk)

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


def _unbounded(r, nr, bound, max_step, where="") -> AssertionError:
    return AssertionError(f"boundedness violated{where}: |raw[{r}]|={nr:.9g} > "
                          f"{bound:.9g} + 2*{max_step:.9g}")


@dataclass(frozen=True)
class GainConfig:
    """Gain schedule parameters. c_gamma may be a scalar or one value per cluster."""

    c_gamma: object = 1.0
    c_alpha: float = 1.0
    alpha: float = 0.75

    def __post_init__(self):
        c = np.asarray(self.c_gamma, dtype=float).reshape(-1)
        if not np.all(np.isfinite(c)) or np.any(c <= 0):
            raise ValueError("c_gamma must be positive and finite")
        if not (np.isfinite(self.c_alpha) and self.c_alpha > 0):
            raise ValueError("c_alpha must be positive and finite")
        if not (0.5 < self.alpha <= 1.0):
            raise ValueError("alpha must lie in (1/2, 1]")
        object.__setattr__(self, "_c", c)  # checked once here; c_vector only broadcasts it

    def c_vector(self, k: int) -> np.ndarray:
        """(k,) gain constants: c_gamma broadcast to the k clusters."""
        c = self._c
        if c.size == 1:
            return np.full(k, c[0])
        if c.size != k:
            raise ValueError(f"c_gamma must be scalar or length {k}, got length {c.size}")
        return c.copy()


@dataclass
class KMediansState:
    """Mutable per-stream state. `raw` are the gradient iterates, `averaged`
    the running means returned as the estimate. What else a stream reports
    follows from the update counts, the skips and the gain."""

    raw: np.ndarray
    averaged: np.ndarray
    update_counts: np.ndarray   # (k,) completed updates per cluster
    gain: GainConfig
    bound_K: object = None      # when set, the norm bound is asserted per step
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

    @property
    def max_step(self) -> float:
        """Largest gain used so far: a cluster's first step, c_r, is its largest."""
        updated = self.update_counts > 0
        return float(self.gain.c_vector(self.k)[updated].max()) if updated.any() else 0.0


def kmedians_init(seeds, gain: GainConfig, *, bound_K=None) -> KMediansState:
    """Start a stream from k pairwise distinct seeds with the given gains."""
    s = _check_seeds(seeds)
    k = s.shape[0]
    gain.c_vector(k)  # validate early
    if bound_K is not None:
        bound_K = float(bound_K)
        worst = max(float(np.sqrt((row * row).mean())) for row in s)
        if worst > bound_K + _BOUND_SLACK:
            raise ValueError(f"seed norm {worst:.6g} exceeds bound_K={bound_K:.6g}")
    return KMediansState(
        raw=s,
        averaged=s.copy(),
        update_counts=np.zeros(k, dtype=np.int64),
        gain=gain,
        bound_K=bound_K,
    )


def _gain_powers(gain: GainConfig, us) -> np.ndarray:
    """p[i] = (1 + c_alpha*us[i])**alpha in the per-row loops' scalar pow (recursion's rules)."""
    c_alpha, alpha = float(gain.c_alpha), float(gain.alpha)
    return np.array([(1.0 + c_alpha * int(u)) ** alpha for u in us], dtype=float)


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
    cvec = state.gain.c_vector(raw.shape[0]).tolist()
    c_alpha = float(state.gain.c_alpha)
    alpha = float(state.gain.alpha)
    bound = state.bound_K
    skips = 0
    max_step = None if bound is None else state.max_step
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
        if bound is not None:
            max_step = max(max_step, cvec[r])
            nr = np.sqrt((row * row).mean())
            if nr > bound + 2.0 * max_step + _BOUND_SLACK:
                raise _unbounded(r, nr, bound, max_step)
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
    cvec = state.gain.c_vector(len(raw)).tolist()
    c_alpha = float(state.gain.c_alpha)
    alpha = float(state.gain.alpha)
    bound = state.bound_K
    skips = 0
    max_step = None if bound is None else state.max_step
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
        if bound is not None:
            max_step = max(max_step, cvec[r])
            s = 0.0
            for j in ds:
                s += row[j] * row[j]
            nr = math.sqrt(s / d)
            if nr > bound + 2.0 * max_step + _BOUND_SLACK:
                raise _unbounded(r, nr, bound, max_step)
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
    max_step = None if bound is None else np.array([st.max_step for st in states])
    skips = np.zeros(R, dtype=np.int64)
    powers = _gain_powers(gain, range(int(counts.max()) + X.shape[0]))
    cvec = np.tile(gain.c_vector(k), R)
    flat_raw, flat_avg = raw.reshape(R * k, d), avg.reshape(R * k, d)
    flat_counts = counts.reshape(R * k)
    new_buf, mean_buf = np.empty((R, d)), np.empty((R, d))
    for i, sq, diff in _batched_walk(raw, X, perms):
        nrm = np.sqrt(sq[i] / d)
        live = nrm != 0.0
        if live.all():
            ri = slice(None)
        else:
            skips += ~live
            ri = np.flatnonzero(live)
            i, nrm, diff = i[ri], nrm[ri], diff[ri]
        new, mean = new_buf[: len(i)], mean_buf[: len(i)]
        u = flat_counts[i]
        a = cvec[i] / powers[u]
        np.divide(a, nrm, out=a)
        np.multiply(diff, a[:, None], out=diff)
        np.subtract(flat_raw.take(i, axis=0, out=new, mode="clip"), diff, out=new)
        flat_raw[i] = new
        # running mean over {seed} + raw iterates after each update:
        # ((u + 1) * avg + raw) / (u + 2), in place
        np.multiply(flat_avg.take(i, axis=0, out=mean, mode="clip"), (u + 1)[:, None], out=mean)
        np.add(mean, new, out=mean)
        np.divide(mean, (u + 2)[:, None], out=mean)
        flat_avg[i] = mean
        flat_counts[i] = u + 1
        if bound is not None:
            max_step[ri] = np.maximum(max_step[ri], cvec[i])
            nr = np.sqrt((new * new).mean(axis=1))
            over = nr > bound + 2.0 * max_step[ri] + _BOUND_SLACK
            if over.any():
                j = int(np.argmax(over))
                rr, r = divmod(int(i[j]), k)
                raise _unbounded(r, nr[j], bound, max_step[rr], f" in restart {rr}")
    for j, st in enumerate(states):
        st.raw[:] = raw[j]
        st.averaged[:] = avg[j]
        st.update_counts[:] = counts[j]
        st.skips += int(skips[j])


_LOOPS = {"scalar": _consume_small, "numpy": _consume, "batched": _consume_restarts}
# R*k*d from which R >= 2 restarts at d <= 7 walk batched, read off the
# measured (d, k, R) table in CHANGES.md
_BATCH_FROM = 300


def kmedians_step(state: KMediansState, z) -> KMediansState:
    """Consume one observation, returning the new state (input left untouched)."""
    z = np.asarray(z, dtype=float)
    if z.shape != (state.d,):
        raise ValueError("kmedians_step: dimension mismatch")
    return kmedians_stream(state, z[None, :])


def kmedians_stream(state: KMediansState, X) -> KMediansState:
    """Consume a batch of observations in row order; returns the new state."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != state.d:
        raise ValueError("kmedians_stream: expected (m, d) batch matching the state")
    if not np.isfinite(X).all():
        raise ValueError("kmedians_stream: non-finite observations")
    out = KMediansState(state.raw.copy(), state.averaged.copy(), state.update_counts.copy(),
                        state.gain, state.bound_K, state.skips)
    _run_loops(_LOOPS, _BATCH_FROM, [out], out.k, X)
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
        norms = (np.sqrt((A * A).mean(axis=-1)).max() for A in (X, S))
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
        sel = keep & (r == j)
        if not np.any(sel):
            continue
        diff = C[j] - X[sel]
        grad[j] = (diff / dmin[sel][:, None]).sum(axis=0)
    return grad / used, skipped


def state_from_model(model: dict) -> KMediansState:
    """Rebuild a resumable stream state from a model snapshot dict."""
    if model.get("raw_centers") is None:
        raise ValueError("model has no raw centers; only k-medians fits are resumable")
    gain = GainConfig(
        c_gamma=model["c_gamma"] if np.isscalar(model["c_gamma"]) else np.asarray(model["c_gamma"], float),
        c_alpha=float(model["c_alpha"]),
        alpha=float(model["alpha"]),
    )
    return KMediansState(
        raw=np.asarray(model["raw_centers"], dtype=float).copy(),
        averaged=np.asarray(model["centers"], dtype=float).copy(),
        update_counts=np.asarray(model["update_counts"], dtype=np.int64).copy(),
        gain=gain,
        skips=int(model.get("skips", 0)),
    )
