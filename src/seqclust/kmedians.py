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

from .core import FitReport, as_sample, normalized_distances
from .kmeans import _check_seeds, _fit_restarts, kmeans_fit

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


@dataclass(frozen=True)
class GainConfig:
    """Gain schedule parameters. c_gamma may be a scalar or one value per cluster."""

    c_gamma: object = 1.0
    c_alpha: float = 1.0
    alpha: float = 0.75

    def c_vector(self, k: int) -> np.ndarray:
        c = np.asarray(self.c_gamma, dtype=float).reshape(-1)
        if c.size == 1:
            c = np.full(k, c[0])
        if c.size != k:
            raise ValueError(f"c_gamma must be scalar or length {k}, got length {c.size}")
        if not np.all(np.isfinite(c)) or np.any(c <= 0):
            raise ValueError("c_gamma must be positive and finite")
        if not (np.isfinite(self.c_alpha) and self.c_alpha > 0):
            raise ValueError("c_alpha must be positive and finite")
        if not (0.5 < self.alpha <= 1.0):
            raise ValueError("alpha must lie in (1/2, 1]")
        return c


@dataclass
class KMediansState:
    """Mutable per-stream state. `raw` are the gradient iterates, `averaged`
    the running means returned as the estimate."""

    raw: np.ndarray
    averaged: np.ndarray
    update_counts: np.ndarray   # (k,) completed updates per cluster
    current_steps: np.ndarray   # (k,) last gain used, 0 before the first update
    gain: GainConfig
    bound_K: object = None      # when set, the norm bound is asserted per step
    skips: int = 0
    n_seen: int = 0
    max_step: float = 0.0

    @property
    def k(self) -> int:
        return self.raw.shape[0]

    @property
    def d(self) -> int:
        return self.raw.shape[1]


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
        current_steps=np.zeros(k),
        gain=gain,
        bound_K=bound_K,
    )


def _gain_powers(gain: GainConfig, us) -> np.ndarray:
    """p[i] = (1 + c_alpha*us[i])**alpha, each taken with scalar pow like the
    per-row loops: vectorised ** differs from it by 1 ulp on some entries."""
    c_alpha, alpha = float(gain.c_alpha), float(gain.alpha)
    return np.array([(1.0 + c_alpha * int(u)) ** alpha for u in us], dtype=float)


def _consume(state: KMediansState, X) -> None:
    """Feed rows of X through the recursion of one state, mutating it in place.

    This is the kernel of kmedians_stream, kmedians_step and of fits with a
    single restart or d <= 8; fits with several restarts at d > 8 run
    _consume_restarts. Low dimensions go through a scalar inner loop: at k*d
    this small the per-observation numpy call overhead costs more than the
    arithmetic, and the stream is the hot path of every 2-d benchmark.
    """
    if state.raw.shape[1] <= 8:
        _consume_small(state, np.asarray(X, dtype=float))
        return
    raw = state.raw
    avg = state.averaged
    counts = state.update_counts
    steps = state.current_steps
    cvec = state.gain.c_vector(raw.shape[0])
    c_alpha = state.gain.c_alpha
    alpha = state.gain.alpha
    bound = state.bound_K
    d = raw.shape[1]
    skips = 0
    max_step = state.max_step
    for z in X:
        diff = raw - z
        sq = (diff * diff).sum(axis=1)
        r = int(np.argmin(sq))
        nrm = np.sqrt(sq[r] / d)
        if nrm == 0.0:
            skips += 1
            continue
        u = counts[r]
        a = cvec[r] / (1.0 + c_alpha * u) ** alpha
        raw[r] -= (a / nrm) * diff[r]
        # running mean over {seed} + raw iterates after each update
        avg[r] = ((u + 1) * avg[r] + raw[r]) / (u + 2)
        counts[r] = u + 1
        steps[r] = a
        if a > max_step:
            max_step = a
        if bound is not None:
            nr = np.sqrt((raw[r] * raw[r]).mean())
            if nr > bound + 2.0 * max_step + _BOUND_SLACK:
                raise AssertionError(
                    f"boundedness violated: |raw[{r}]|={nr:.9g} > "
                    f"{bound:.9g} + 2*{max_step:.9g}"
                )
    state.skips += skips
    state.n_seen += X.shape[0]
    state.max_step = max_step


def _consume_small(state: KMediansState, X) -> None:
    """Scalar-arithmetic twin of the numpy loop for d <= 8. Up to d=7 the
    operation order matches the array version exactly (numpy sums of <= 7
    elements are sequential), so both paths apply the identical recursion;
    at d=8 numpy pairs the terms of a sum, which can differ by an ulp."""
    k, d = state.raw.shape
    raw = [list(map(float, row)) for row in state.raw]
    avg = [list(map(float, row)) for row in state.averaged]
    counts = [int(c) for c in state.update_counts]
    steps = [float(s) for s in state.current_steps]
    cvec = [float(c) for c in state.gain.c_vector(k)]
    c_alpha = float(state.gain.c_alpha)
    alpha = float(state.gain.alpha)
    bound = state.bound_K
    skips = 0
    max_step = state.max_step
    for z in X.tolist():
        best_sq = math.inf
        r = 0
        for i in range(k):
            row = raw[i]
            s = 0.0
            for j in range(d):
                t = row[j] - z[j]
                s += t * t
            if s < best_sq:
                best_sq = s
                r = i
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
        for j in range(d):
            row[j] -= scale * (row[j] - z[j])
            mean_row[j] = (w * mean_row[j] + row[j]) / (u + 2)
        counts[r] = w
        steps[r] = a
        if a > max_step:
            max_step = a
        if bound is not None:
            s = 0.0
            for j in range(d):
                s += row[j] * row[j]
            nr = math.sqrt(s / d)
            if nr > bound + 2.0 * max_step + _BOUND_SLACK:
                raise AssertionError(
                    f"boundedness violated: |raw[{r}]|={nr:.9g} > "
                    f"{bound:.9g} + 2*{max_step:.9g}"
                )
    state.raw[:] = raw
    state.averaged[:] = avg
    state.update_counts[:] = counts
    state.current_steps[:] = steps
    state.skips += skips
    state.n_seen += X.shape[0]
    state.max_step = max_step


def _consume_restarts(states, X, perms) -> None:
    """Feed the rows of X through R restart states of one gain at once,
    mutating them in place; restart i reads the rows in the i-th of the R
    row orders `perms` when it is given.

    The states are stacked into (R, k, d) blocks, so each row costs a fixed
    number of numpy calls over the whole block instead of a loop per
    restart. Skips are masked per restart. The gain comes from the table
    c_r / p[u] of scalar powers (_gain_powers), and every other operation is
    the one _consume applies element for element, so each state ends with
    the same bits as its own _consume pass.
    """
    R = len(states)
    k, d = states[0].raw.shape
    gain, bound = states[0].gain, states[0].bound_K
    raw = np.stack([st.raw for st in states])
    avg = np.stack([st.averaged for st in states])
    counts = np.stack([st.update_counts for st in states])
    steps = np.stack([st.current_steps for st in states])
    max_step = np.array([st.max_step for st in states])
    skips = np.zeros(R, dtype=np.int64)
    powers = _gain_powers(gain, range(int(counts.max()) + X.shape[0]))
    cvec = np.tile(gain.c_vector(k), R)
    flat_raw, flat_avg = raw.reshape(R * k, d), avg.reshape(R * k, d)
    flat_counts, flat_steps = counts.reshape(R * k), steps.reshape(R * k)
    base = np.arange(R) * k
    diff = np.empty_like(raw)
    flat_diff = diff.reshape(R * k, d)
    rows = X if perms is None else (X[cols][:, None, :] for cols in np.stack(list(perms)).T)
    for z in rows:
        np.subtract(raw, z, out=diff)
        sq = (diff * diff).sum(axis=2)
        i = base + sq.argmin(axis=1)
        nrm = np.sqrt(sq.reshape(R * k)[i] / d)
        live = nrm != 0.0
        if live.all():
            ri = slice(None)
        else:
            skips += ~live
            ri = np.flatnonzero(live)
            i, nrm = i[ri], nrm[ri]
        u = flat_counts[i]
        a = cvec[i] / powers[u]
        new = flat_raw[i] - (a / nrm)[:, None] * flat_diff[i]
        flat_raw[i] = new
        # running mean over {seed} + raw iterates after each update
        flat_avg[i] = ((u + 1)[:, None] * flat_avg[i] + new) / (u + 2)[:, None]
        flat_counts[i] = u + 1
        flat_steps[i] = a
        max_step[ri] = np.maximum(max_step[ri], a)
        if bound is not None:
            nr = np.sqrt((new * new).mean(axis=1))
            over = nr > bound + 2.0 * max_step[ri] + _BOUND_SLACK
            if over.any():
                j = int(np.argmax(over))
                rr, r = divmod(int(i[j]), k)
                raise AssertionError(
                    f"boundedness violated in restart {rr}: |raw[{r}]|={nr[j]:.9g} > "
                    f"{bound:.9g} + 2*{max_step[rr]:.9g}"
                )
    for j, st in enumerate(states):
        st.raw[:] = raw[j]
        st.averaged[:] = avg[j]
        st.update_counts[:] = counts[j]
        st.current_steps[:] = steps[j]
        st.skips += int(skips[j])
        st.n_seen += X.shape[0]
        st.max_step = float(max_step[j])


def _copy_state(state: KMediansState) -> KMediansState:
    return replace(state, raw=state.raw.copy(), averaged=state.averaged.copy(),
                   update_counts=state.update_counts.copy(),
                   current_steps=state.current_steps.copy())


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
    if not np.all(np.isfinite(X)):
        raise ValueError("kmedians_stream: non-finite observations")
    out = _copy_state(state)
    _consume(out, X)
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
    if gain is None:
        gain = GainConfig()
    gain.c_vector(k)
    bound_K = float(np.sqrt((X * X).mean(axis=1)).max()) if bound_check else None

    def run_all(S, X, perms):
        states = [kmedians_init(s, gain, bound_K=bound_K) for s in S]
        batched = X.shape[1] > 8 and len(states) > 1
        if batched:
            _consume_restarts(states, X, perms)
        for st in states:
            if not batched:
                _consume(st, X if perms is None else X[next(perms)])
            yield st.averaged, st

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
    points exactly equal to a center are skipped and counted.
    """
    C = np.asarray(centers, dtype=float)
    X = np.asarray(X, dtype=float)
    if C.ndim != 2 or X.ndim != 2 or C.shape[1] != X.shape[1]:
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
    raw = np.asarray(model["raw_centers"], dtype=float).copy()
    counts = np.asarray(model["update_counts"], dtype=np.int64).copy()
    k = raw.shape[0]
    cvec = gain.c_vector(k)
    steps = np.zeros(k)
    updated = counts > 0
    steps[updated] = cvec[updated] / _gain_powers(gain, counts[updated] - 1)
    max_step = float(cvec[updated].max()) if np.any(updated) else 0.0
    return KMediansState(
        raw=raw,
        averaged=np.asarray(model["centers"], dtype=float).copy(),
        update_counts=counts,
        current_steps=steps,
        gain=gain,
        skips=int(model.get("skips", 0)),
        n_seen=int(model.get("n_queries", 0)),
        max_step=max_step,
    )
