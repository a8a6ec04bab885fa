"""Tests for the PAM baseline against an exhaustive medoid oracle."""

import itertools
import math

import numpy as np
import pytest

from seqclust import Dataset, PamSizeError, normalized_distances, pam_fit
from seqclust.pam import _build_swap


def _oracle_cost(X, k):
    """Minimum mean scaled-norm cost over all k-subsets of rows."""
    n = X.shape[0]
    best = np.inf
    for combo in itertools.combinations(range(n), k):
        D = normalized_distances(X, X[list(combo)])
        best = min(best, float(D.min(axis=1).mean()))
    return best


def test_each_point_its_own_medoid():
    X = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]])
    report = pam_fit(Dataset(X=X), 3)
    assert report.risk == 0.0
    assert sorted(report.medoid_indices.tolist()) == [0, 1, 2]


def test_two_group_line_matches_exhaustive_search():
    X = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [10.0, 0.0], [11.0, 0.0]])
    report = pam_fit(Dataset(X=X), 2)
    assert math.isclose(report.risk, _oracle_cost(X, 2), rel_tol=1e-12)
    # the left medoid has to be the middle point of the triple
    assert 1 in report.medoid_indices.tolist()


def test_matches_exhaustive_oracle_on_small_instances():
    rng = np.random.default_rng(40)
    for trial in range(40):
        n = int(rng.integers(3, 13))
        k = int(rng.integers(1, min(n, 4)))
        X = rng.standard_normal((n, 2)) * rng.uniform(0.5, 3.0)
        report = pam_fit(Dataset(X=X), k)
        assert math.isclose(report.risk, _oracle_cost(X, k), rel_tol=1e-12), (
            f"trial {trial}: PAM stuck above the exhaustive optimum"
        )


def test_build_swap_ends_at_a_swap_local_optimum():
    # BUILD+SWAP runs even where pam_fit would enumerate, so the local search
    # itself is checked: no single medoid/non-medoid exchange may lower the
    # cost of the medoids it returns
    rng = np.random.default_rng(47)
    misses = small = 0
    for trial in range(120):
        n = int(rng.integers(8, 41))
        k = int(rng.integers(2, 5))
        X = rng.standard_normal((n, 2)) * rng.uniform(0.5, 3.0)
        D = normalized_distances(X, X)
        medoids = _build_swap(D, k)
        risk = float(D[:, medoids].min(axis=1).mean())
        for mi in range(k):
            for o in set(range(n)) - set(medoids):
                swapped = medoids[:mi] + [o] + medoids[mi + 1:]
                cost = float(D[:, swapped].min(axis=1).mean())
                assert cost >= risk, f"trial {trial}: swapping {medoids[mi]} for {o} lowers the cost"
        if n <= 12:
            small += 1
            misses += risk > _oracle_cost(X, k)
    print(f"BUILD+SWAP missed the exhaustive optimum on {misses} of {small} instances with n <= 12")


def test_k1_medoid_minimizes_row_sums():
    rng = np.random.default_rng(41)
    X = rng.standard_normal((60, 3))
    report = pam_fit(Dataset(X=X), 1)
    D = normalized_distances(X, X)
    assert report.medoid_indices[0] == int(D.sum(axis=0).argmin())


def test_report_consistency():
    rng = np.random.default_rng(42)
    X = rng.standard_normal((50, 2))
    report = pam_fit(Dataset(X=X), 3)
    # centers are dataset rows
    np.testing.assert_array_equal(report.centers, X[report.medoid_indices])
    assert len(set(report.medoid_indices.tolist())) == 3
    D = normalized_distances(X, report.centers)
    np.testing.assert_array_equal(report.assignments, D.argmin(axis=1))
    assert math.isclose(report.risk, float(D.min(axis=1).mean()), rel_tol=1e-12)


def test_deterministic():
    rng = np.random.default_rng(43)
    X = rng.standard_normal((80, 2))
    a = pam_fit(Dataset(X=X), 3)
    b = pam_fit(Dataset(X=X), 3)
    np.testing.assert_array_equal(a.medoid_indices, b.medoid_indices)
    assert a.risk == b.risk
    # nor does the memory layout of the input
    X = rng.standard_normal((60, 8))
    a, b = pam_fit(X, 3), pam_fit(np.asfortranarray(X), 3)
    np.testing.assert_array_equal(a.medoid_indices, b.medoid_indices)
    assert a.risk == b.risk and a.assignments.tobytes() == b.assignments.tobytes()


def test_size_cap():
    rng = np.random.default_rng(44)
    X = rng.standard_normal((5001, 2))
    with pytest.raises(PamSizeError, match="n=5001 exceeds the PAM cap of 5000.*kmedians"):
        pam_fit(Dataset(X=X), 2)


def test_cached_build_counter_is_quadratic():
    rng = np.random.default_rng(45)
    X = rng.standard_normal((64, 2))
    report = pam_fit(Dataset(X=X), 3)
    assert report.build_evals == 64 * 63 // 2
