"""Tests for the sequential MacQueen k-means."""

import math

import numpy as np
import pytest

from seqclust import (
    Dataset,
    KMeansState,
    Sim2Config,
    core,
    draw_seeds,
    empirical_l1_risk,
    kmeans_fit,
    kmeans_init,
    kmeans_step,
    kmedians_fit,
    normalized_distances,
    recursion,
    sim2_sample,
)
from seqclust.core import _BLOCK_BYTES, _SCALAR_EXACT_D
from seqclust.recursion import _best_restart, _risk_bounds
from test_core import _traced_peak


def test_init_sets_seeds_and_unit_counts():
    state = kmeans_init([[0.0, 0.0], [5.0, 5.0]])
    np.testing.assert_array_equal(state.centers, [[0.0, 0.0], [5.0, 5.0]])
    np.testing.assert_array_equal(state.counts, [1, 1])


def test_init_rejects_duplicate_seeds():
    with pytest.raises(ValueError):
        kmeans_init([[1.0, 2.0], [1.0, 2.0]])


def test_init_single_seed():
    state = kmeans_init([[3.0, -1.0]])
    np.testing.assert_array_equal(state.counts, [1])


def test_step_is_midpoint_on_first_update():
    state = kmeans_init([[1.0, 1.0]])
    out = kmeans_step(state, [3.0, 3.0])
    np.testing.assert_allclose(out.centers, [[2.0, 2.0]])
    np.testing.assert_array_equal(out.counts, [2])
    # input state untouched
    np.testing.assert_array_equal(state.centers, [[1.0, 1.0]])


@pytest.mark.parametrize("d", [2, 9])
def test_step_of_an_integer_state_runs_in_floats(d):
    # a hand-built state may hold integer centers; the step's copy is a float
    # one, so the half-step is not truncated (d=2) nor refused by numpy (d=9)
    centers = np.zeros((2, d), dtype=np.int64)
    centers[1] = 4
    state = KMeansState(centers=centers, counts=np.ones(2, dtype=np.int64))
    out = kmeans_step(state, np.ones(d))
    assert out.centers.dtype == np.float64
    np.testing.assert_array_equal(out.centers, [[0.5] * d, [4.0] * d])
    np.testing.assert_array_equal(out.counts, [2, 1])
    assert state.centers.dtype == np.int64 and not state.centers[0].any()


def test_step_moves_only_nearest_center():
    state = kmeans_init([[0.0, 0.0], [10.0, 10.0]])
    out = kmeans_step(state, [1.0, 0.0])
    np.testing.assert_allclose(out.centers, [[0.5, 0.0], [10.0, 10.0]])
    np.testing.assert_array_equal(out.counts, [2, 1])


def test_step_dimension_mismatch():
    state = kmeans_init([[0.0, 0.0]])
    with pytest.raises(ValueError, match=r"^observations must be an \(m, 2\) array matching "
                                         r"the state, got shape \(1, 3\)$"):
        kmeans_step(state, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="^observations contain non-finite values$"):
        kmeans_step(state, [1.0, np.nan])


def test_single_cluster_closed_form():
    # seed (0,0), stream (0,0),(2,0),(4,0): barycenter of all four points
    report = kmeans_fit(
        Dataset(X=np.array([[0.0, 0.0], [2.0, 0.0], [4.0, 0.0]])),
        1,
        seeds=[[0.0, 0.0]],
    )
    np.testing.assert_allclose(report.centers, [[1.5, 0.0]], atol=1e-10)


def test_data_equal_to_seeds_is_fixed_point():
    seeds = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
    report = kmeans_fit(Dataset(X=seeds.copy()), 3, seeds=seeds)
    np.testing.assert_array_equal(report.centers, seeds)
    np.testing.assert_array_equal(report.counts, [2, 2, 2])


def test_barycenter_identity_along_stream():
    rng = np.random.default_rng(20)
    X = rng.standard_normal((60, 3))
    seeds = X[rng.choice(60, 2, replace=False)].copy()
    state = kmeans_init(seeds)
    allocated = [[s.copy()] for s in seeds]
    for z in X:
        diff = state.centers - z
        r = int(np.argmin((diff * diff).sum(axis=1)))
        state = kmeans_step(state, z)
        allocated[r].append(z)
        for j in range(2):
            bary = np.mean(allocated[j], axis=0)
            np.testing.assert_allclose(state.centers[j], bary, rtol=1e-10, atol=1e-12)
    assert state.counts.sum() == 2 + 60


@pytest.mark.parametrize("d", [1, 2, 7, 8, 9, 50])
def test_fit_single_restart_replays_recursion(d):
    # up to d=7 a single restart runs the scalar loop, whose left-to-right
    # sums are numpy's order only for up to 7 terms; from d=8 on it runs numpy's
    rng = np.random.default_rng(21)
    X = rng.standard_normal((50, d))
    seeds = X[:3].copy()
    report = kmeans_fit(X, 3, seeds=seeds)
    centers = seeds.copy()
    counts = np.ones(3)
    for z in X:
        diff = centers - z
        r = int(np.argmin((diff * diff).sum(axis=1)))
        centers[r] -= diff[r] / (1.0 + counts[r])
        counts[r] += 1
    assert report.centers.tobytes() == centers.tobytes()
    np.testing.assert_array_equal(report.counts, counts)
    assert math.isclose(report.risk, empirical_l1_risk(X, centers), rel_tol=1e-12)


def test_fit_at_d8_breaks_near_ties_like_kmeans_step():
    # numpy sums 8 squared differences in pairs, not left to right; on this
    # coarse grid a left-to-right sum sends one row to the other center
    X = np.round(np.random.default_rng(271).standard_normal((800, 8)) * 3) / 7.0
    state = kmeans_init(X[:4])
    for z in X:
        state = kmeans_step(state, z)
    report = kmeans_fit(Dataset(X=X), 4, seeds=X[:4])
    assert report.centers.tobytes() == state.centers.tobytes()
    assert report.counts.tobytes() == state.counts.tobytes()


def _left_to_right(rows):
    sums = []
    for row in rows.tolist():
        s = 0.0
        for t in row:
            s += t
        sums.append(s)
    return np.array(sums)


def test_numpy_summation_rules():
    # the rules core.py states and every loop-shape and kernel-layout agreement rests on
    where = f"core._SCALAR_EXACT_D = {_SCALAR_EXACT_D}, numpy {np.__version__}"
    rng = np.random.default_rng(7)
    for d in range(1, _SCALAR_EXACT_D + 2):
        A = rng.standard_normal((2000, d)) ** 2  # squared differences, as the walks sum them
        same = np.add.reduce(A, axis=1) == _left_to_right(A)
        if d <= _SCALAR_EXACT_D:
            assert same.all(), f"{d} contiguous terms are not added left to right ({where})"
            # normalized_distances' (d, B, k) layout: d slabs of shape (B, k) added in turn
            slabs = np.ascontiguousarray(A.T).reshape(d, 40, 50)
            assert (np.add.reduce(slabs, axis=0).ravel() == np.add.reduce(A, axis=1)).all(), (
                f"{d} slabs do not add as {d} contiguous terms ({where})")
        else:
            assert not same.all(), f"{d} contiguous terms are added left to right ({where})"
    for m in (8, 9, 50, 300):
        A = rng.standard_normal((m, 40))
        assert (np.add.reduce(A, axis=0) == _left_to_right(A.T)).all(), (
            f"a non-contiguous axis of {m} terms is not added left to right ({where})")
    # restart scoring takes each risk as one row's mean of a C-order (g, n) array
    for g, n in ((2, 5000), (10, 1000), (5, 2000), (3, 20001)):
        A = rng.random((g, n))
        assert (A.mean(axis=1) == np.array([row.copy().mean() for row in A])).all(), (
            f"a row of a ({g}, {n}) array does not have its 1-d mean ({where})")
    base = 1.0 + 0.37 * np.arange(20000.0)
    scalar = np.array([b ** 0.75 for b in base.tolist()])
    ulps = np.abs(scalar.view(np.int64) - (base ** 0.75).view(np.int64))
    assert ulps.max() <= 1, f"scalar pow and ** differ by {ulps.max()} ulp ({where})"


def test_kmeans_step_chain_equals_single_restart_fit():
    # kmeans_step and the R=1 fit both walk in Python floats at d=2 and with
    # numpy at d=12; the chain copies its state every row and must neither
    # drift from the fit nor touch the state it was given
    rng = np.random.default_rng(272)
    for d in (2, 12):
        X = rng.standard_normal((80, d))
        X = np.vstack([X, X[rng.integers(0, 80, 40)]])
        seeds = X[:3].copy()
        first = kmeans_init(seeds)
        state = first
        for z in X:
            state = kmeans_step(state, z)
        report = kmeans_fit(X, 3, seeds=seeds, restarts=1)
        assert report.centers.tobytes() == state.centers.tobytes()
        assert report.counts.tobytes() == state.counts.tobytes()
        assert first.centers.tobytes() == seeds.tobytes()
        np.testing.assert_array_equal(first.counts, [1, 1, 1])


def test_fit_restart_selection_minimizes_risk():
    rng = np.random.default_rng(22)
    X = np.vstack([
        rng.normal((0, 0), 0.3, (30, 2)),
        rng.normal((8, 0), 0.3, (30, 2)),
    ])
    multi = kmeans_fit(Dataset(X=X), 2, restarts=8, seed=5)
    single = kmeans_fit(Dataset(X=X), 2, restarts=1, seed=5)
    assert multi.risk <= single.risk + 1e-15
    assert 0 <= multi.restart < 8


def _one_call_per_restart(X, centers):
    """Restart scoring with one kernel call per center set: the reference."""
    best = None
    for i, C in enumerate(centers):
        D = normalized_distances(X, C)
        risk = float(D.min(axis=1).mean())
        if best is None or risk < best[0]:
            best = (risk, i, D.argmin(axis=1))
    return best


@pytest.mark.parametrize("d", [2, 7, 9, 200])
def test_grouped_scoring_equals_one_kernel_call_per_restart(d):
    n, k = 2000, 3
    g = _BLOCK_BYTES // (8 * n * k)  # center sets per kernel call
    assert g == 5
    rng = np.random.default_rng(45)
    means = 3.0 * rng.standard_normal((k, d))
    X = means[rng.integers(0, k, n)] + rng.standard_normal((n, d))

    def center_sets(R):
        return [X[rng.choice(n, k, replace=False)] for _ in range(R)]

    for R in (1, g - 1, g, g + 1, 2 * g + 1):
        centers = center_sets(R)
        risk, i, assignments = _best_restart(X, centers)
        want_risk, want_i, want_assignments = _one_call_per_restart(X, centers)
        assert (risk, i) == (want_risk, want_i), R
        assert assignments.tobytes() == want_assignments.tobytes(), R
    # equal risks in one group and across groups: the lowest index wins
    centers = center_sets(2 * g + 1)
    for i in (g + 1, g + 2, 2 * g):
        centers[i] = means.copy()
    best = _best_restart(X, centers)
    assert best[1] == g + 1
    assert best[:2] == _one_call_per_restart(X, centers)[:2]


def test_grouped_scoring_holds_at_most_one_more_buffer(monkeypatch):
    # sim2-highd's scoring at twice its rows: groups of 5 restarts, whose
    # (n, 15) distances fill one kernel buffer
    monkeypatch.setattr(core, "_WORKERS", 1)  # the same kernel buffers on any machine
    n, d, k, R = 2000, 200, 3, 50
    rng = np.random.default_rng(46)
    X = rng.standard_normal((n, d))
    centers = [X[rng.choice(n, k, replace=False)] for _ in range(R)]
    one_each = _traced_peak(lambda: _one_call_per_restart(X, centers))
    grouped = _traced_peak(lambda: _best_restart(X, centers))
    assert grouped <= one_each + 8 * n * k + _BLOCK_BYTES, (grouped, one_each)


def _exactly_scored(monkeypatch):
    """The number of centers each exact scoring call of recursion takes, as a
    list that fills while the test runs."""
    sizes = []

    def counted(X, C):
        sizes.append(len(C))
        return normalized_distances(X, C)

    monkeypatch.setattr(recursion, "normalized_distances", counted)
    return sizes


@pytest.mark.parametrize("d", [1, 2, 7, 8, 200])
@pytest.mark.parametrize("scale, offset", [(1.0, 0.0), (1e-162, 0.0), (1e-170, 0.0), (1.0, 1e6)],
                         ids=["unit", "subnormal", "tiny", "offset"])
def test_screened_interval_holds_every_exact_risk(d, scale, offset):
    # at 1e-162 the kernel's squares are subnormal and at 1e-170 they underflow
    # to 0, and a 1e6 offset makes the norms dwarf the distances: each loosens
    # the bounds, none breaks them
    n, k, R = 600, 3, 12
    rng = np.random.default_rng([d, 47])
    means = 3.0 * rng.standard_normal((k, d))
    X = (means[rng.integers(0, k, n)] + rng.standard_normal((n, d))) * scale + offset
    centers = [X[rng.choice(n, k, replace=False)] + 0.3 * scale * rng.standard_normal((k, d))
               for _ in range(R)]
    centers[3] = means * scale + offset
    centers[7] = centers[3].copy()  # a duplicated set: index 3 scores first
    centers[9] = np.nextafter(centers[3], np.inf)  # a set 1 ulp away
    lo, hi = _risk_bounds(X, centers)
    risks = np.array([normalized_distances(X, C).min(axis=1).mean() for C in centers])
    assert np.isfinite(lo).all() and np.isfinite(hi).all()
    assert (lo <= risks).all() and (risks <= hi).all(), (lo - risks, hi - risks)
    risk, i, assignments = _best_restart(X, centers)
    want_risk, want_i, want_assignments = _one_call_per_restart(X, centers)
    assert (risk, i) == (want_risk, want_i) and i != 7
    assert assignments.tobytes() == want_assignments.tobytes()


@pytest.mark.parametrize("scale", [1e153, 1e160])
def test_restarts_whose_squares_may_overflow_are_all_scored_exactly(scale, monkeypatch):
    # at 1e153 the norms come too near the overflow for a certified bound,
    # though every distance is finite; at 1e160 the squares overflow, every
    # risk is inf, and the lowest index wins
    n, d, k, R = 300, 8, 3, 6
    rng = np.random.default_rng(48)
    X = rng.standard_normal((n, d)) * scale
    centers = [X[rng.choice(n, k, replace=False)] for _ in range(R)]
    lo, hi = _risk_bounds(X, centers)
    assert (lo == -np.inf).all() and (hi == np.inf).all()
    with np.errstate(over="ignore"):
        want = _one_call_per_restart(X, centers)
        scored = _exactly_scored(monkeypatch)
        risk, i, assignments = _best_restart(X, centers)
    assert sum(scored) == R * k
    assert (risk, i) == want[:2] and assignments.tobytes() == want[2].tobytes()
    assert math.isfinite(risk) == (scale < 1e155)


def test_sim2_restarts_are_screened_before_exact_scoring(monkeypatch):
    # sim2-highd's shape: a screen that kept every restart would still give
    # the right bits, so only the count of exactly scored centers shows it
    data = sim2_sample(Sim2Config(n=1000, d=200, epsilon=0.05, scale=10.0, seed=1))
    scored = _exactly_scored(monkeypatch)
    kmeans_fit(data, 3, restarts=50, seed=1)
    assert 3 <= sum(scored) < 50 * 3


def test_fit_deterministic_given_seed():
    rng = np.random.default_rng(23)
    X = rng.standard_normal((40, 2))
    a = kmeans_fit(Dataset(X=X), 3, restarts=4, seed=9)
    b = kmeans_fit(Dataset(X=X), 3, restarts=4, seed=9)
    np.testing.assert_array_equal(a.centers, b.centers)
    assert a.risk == b.risk and a.restart == b.restart


def test_fit_shuffle_deterministic_but_order_sensitive():
    rng = np.random.default_rng(24)
    X = rng.standard_normal((40, 2))
    a = kmeans_fit(Dataset(X=X), 2, restarts=3, seed=1, shuffle=True)
    b = kmeans_fit(Dataset(X=X), 2, restarts=3, seed=1, shuffle=True)
    np.testing.assert_array_equal(a.centers, b.centers)
    # the recursion is sequential: a different presentation order may move
    # centers differently (permutation invariance must not be assumed)
    plain = kmeans_fit(Dataset(X=X), 2, restarts=3, seed=1, shuffle=False)
    assert not np.array_equal(a.centers, plain.centers)


def test_fit_rejects_k_larger_than_n():
    with pytest.raises(ValueError):
        kmeans_fit(Dataset(X=np.zeros((2, 2)) + np.arange(2)[:, None]), 5)


def test_draw_seeds_distinct_rows():
    rng = np.random.default_rng(25)
    X = rng.standard_normal((30, 2))
    s = draw_seeds(X, 4, rng)
    assert s.shape == (4, 2)
    assert len({row.tobytes() for row in s}) == 4


def test_draw_seeds_jitters_duplicated_rows():
    # every row identical: impossible to draw distinct rows, jitter kicks in
    X = np.ones((10, 2))
    rng = np.random.default_rng(26)
    s = draw_seeds(X, 3, rng)
    assert len({row.tobytes() for row in s}) == 3
    assert np.allclose(s, 1.0, atol=1e-16 * 100)


_ROWS5 = np.arange(10.0).reshape(5, 2)


@pytest.mark.parametrize("X, k, message", [
    (_ROWS5, 0, "k must be >= 1"),
    (_ROWS5, True, "k must be an integer, got True"),
    (_ROWS5, 2.0, "k must be an integer, got 2.0"),
    (_ROWS5, 6, "need at least k=6 observations, got n=5"),
    (np.arange(5.0), 2, r"X must be a 2-d \(n, d\) array with d >= 1, got shape \(5,\)"),
    (np.zeros((5, 0)), 2, r"X must be a 2-d \(n, d\) array with d >= 1, got shape \(5, 0\)"),
], ids=["k0", "k-bool", "k-float", "k-above-n", "X-1d", "X-no-columns"])
def test_draw_seeds_names_a_bad_k_or_X(X, k, message):
    # k = 0 returned a (0, d) array, True and 2.0 failed inside numpy, k > n with
    # numpy's "Cannot take a larger sample than population", and a 1-d X
    # returned k scalars
    with pytest.raises(ValueError, match=f"^{message}$"):
        draw_seeds(X, k, np.random.default_rng(0))


def test_rows_equal_in_value_are_one_seed():
    # 0.0 == -0.0: the two rows differ in bytes but are the same point, so the
    # draw jitters one of them and every fit starts from two distinct centers
    X = np.array([[0.0, 1.0], [-0.0, 1.0]])
    s = draw_seeds(X, 2, np.random.default_rng(0))
    assert not np.array_equal(s[0], s[1])
    for fit in (kmeans_fit, kmedians_fit):
        report = fit(X, 2, restarts=1, seed=0)
        assert not np.array_equal(report.seeds[0], report.seeds[1]), fit.__name__
    with pytest.raises(ValueError, match="seeds 0 and 1 coincide"):
        kmeans_init(X)


def test_counter_scales_linearly_in_n():
    rng = np.random.default_rng(27)
    big = kmeans_fit(Dataset(X=rng.standard_normal((400, 2))), 3, restarts=2, seed=0)
    small = kmeans_fit(Dataset(X=rng.standard_normal((100, 2))), 3, restarts=2, seed=0)
    assert big.distance_evals == 4 * small.distance_evals
