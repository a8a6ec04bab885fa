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
)


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
    with pytest.raises(ValueError):
        kmeans_step(state, [1.0, 2.0, 3.0])


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
    # up to d=7 the fit runs a scalar loop, whose left-to-right sums are
    # numpy's order only for up to 7 terms; from d=8 on it runs numpy's
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


def test_counter_scales_linearly_in_n():
    rng = np.random.default_rng(27)
    big = kmeans_fit(Dataset(X=rng.standard_normal((400, 2))), 3, restarts=2, seed=0)
    small = kmeans_fit(Dataset(X=rng.standard_normal((100, 2))), 3, restarts=2, seed=0)
    assert big.distance_evals == 4 * small.distance_evals
