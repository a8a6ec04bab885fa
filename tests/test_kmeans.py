"""Tests for the sequential MacQueen k-means."""

import math

import numpy as np
import pytest

from seqclust import (
    Dataset,
    draw_seeds,
    empirical_l1_risk,
    kmeans_fit,
    kmeans_init,
    kmeans_step,
    kmedians_fit,
)
from seqclust.core import _SCALAR_EXACT_D


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


def test_step_moves_only_nearest_center():
    state = kmeans_init([[0.0, 0.0], [10.0, 10.0]])
    out = kmeans_step(state, [1.0, 0.0])
    np.testing.assert_allclose(out.centers, [[0.5, 0.0], [10.0, 10.0]])
    np.testing.assert_array_equal(out.counts, [2, 1])


def test_step_dimension_mismatch():
    state = kmeans_init([[0.0, 0.0]])
    with pytest.raises(ValueError, match="kmeans_step: dimension mismatch"):
        kmeans_step(state, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="kmeans_step: non-finite observation"):
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
