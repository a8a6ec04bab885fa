"""Tests for the L1 risk and classification error rate."""

import itertools
import math

import numpy as np
import pytest

from seqclust import Dataset, cer, empirical_l1_risk


def test_risk_zero_when_centers_cover_data():
    X = np.array([[0.0, 0.0], [5.0, 5.0], [0.0, 0.0]])
    centers = np.array([[0.0, 0.0], [5.0, 5.0]])
    assert empirical_l1_risk(Dataset(X=X), centers) == 0.0


def test_risk_direct_two_point_example():
    # {(0,0),(2,0)} with single center (0,0): (0 + sqrt(4/2))/2
    X = np.array([[0.0, 0.0], [2.0, 0.0]])
    risk = empirical_l1_risk(Dataset(X=X), np.array([[0.0, 0.0]]))
    assert math.isclose(risk, math.sqrt(2.0) / 2.0, rel_tol=1e-15)


def test_risk_translation_invariance_and_homogeneity():
    rng = np.random.default_rng(10)
    X = rng.standard_normal((40, 3))
    C = rng.standard_normal((4, 3))
    v = rng.standard_normal(3)
    lam = 3.7
    base = empirical_l1_risk(Dataset(X=X), C)
    shifted = empirical_l1_risk(Dataset(X=X + v), C + v)
    scaled = empirical_l1_risk(Dataset(X=lam * X), lam * C)
    assert math.isclose(base, shifted, rel_tol=1e-12)
    assert math.isclose(scaled, lam * base, rel_tol=1e-12)


def test_risk_matches_brute_force_mean():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((23, 2))
    C = rng.standard_normal((3, 2))
    expected = np.mean(
        [min(np.sqrt(np.mean((x - c) * (x - c))) for c in C) for x in X]
    )
    assert math.isclose(empirical_l1_risk(Dataset(X=X), C), expected, rel_tol=1e-12)


def test_risk_accepts_bare_arrays():
    X = np.array([[1.0, 1.0], [3.0, 1.0]])
    assert empirical_l1_risk(X, np.array([[1.0, 1.0]])) > 0.0
    with pytest.raises(ValueError, match=r"empirical_l1_risk: need a non-empty \(n, d\) sample"):
        empirical_l1_risk(np.empty((0, 2)), np.array([[1.0, 1.0]]))


def test_cer_three_point_example():
    # pairs (0,1) disagree, (0,2) agree, (1,2) disagree
    assert cer([0, 0, 1], [0, 1, 1]) == 2.0 / 3.0


def test_cer_perfect_agreement_and_relabeling():
    p = np.array([0, 1, 2, 1, 0])
    assert cer(p, p) == 0.0
    relabeled = np.array([7, 3, 5, 3, 7])
    assert cer(p, relabeled) == 0.0


def test_cer_symmetric_and_bounded():
    rng = np.random.default_rng(12)
    for _ in range(20):
        n = int(rng.integers(2, 15))
        p = rng.integers(0, 4, n)
        q = rng.integers(0, 4, n)
        v = cer(p, q)
        assert 0.0 <= v <= 1.0
        assert v == cer(q, p)


def _cer_brute(p, q):
    n = len(p)
    bad = 0
    total = 0
    for i, j in itertools.combinations(range(n), 2):
        total += 1
        if (p[i] == p[j]) != (q[i] == q[j]):
            bad += 1
    return bad / total


def test_cer_matches_brute_force_oracle():
    rng = np.random.default_rng(13)
    for _ in range(60):
        n = int(rng.integers(2, 31))
        p = rng.integers(0, 5, n)
        q = rng.integers(0, 5, n)
        assert cer(p, q) == _cer_brute(p, q)


def test_cer_pair_counts_match_pair_loop_on_any_labels():
    rng = np.random.default_rng(15)
    kinds = {
        "negative": lambda m: rng.integers(-4, 2, m),
        "strided": lambda m: rng.integers(0, 3, 3 * m)[::3],
        "float": lambda m: rng.integers(-2, 3, m) * 0.5,
        "singletons": lambda m: rng.permutation(m),
    }
    for name, labels in kinds.items():
        for m in [2, 2, 3, 7, 40, 120]:
            p, q = labels(m), labels(m)
            assert cer(p, q) == _cer_brute(p, q), (name, m)
            flags = rng.random(m) < 0.3
            if (~flags).sum() >= 2:
                assert cer(p, q, flags) == _cer_brute(p[~flags], q[~flags]), (name, m)
    with pytest.raises(ValueError, match="NaN"):
        cer([0.0, np.nan, np.nan], [0, 1, 1])


def test_cer_outlier_exclusion():
    p = np.array([0, 0, 1, 2])
    q = np.array([0, 1, 1, 2])
    flags = np.array([False, False, False, True])
    # excluding the last element leaves the 3-point example above
    assert cer(p, q, flags) == 2.0 / 3.0
    # both members of a pair must be non-outliers; here one non-outlier is left
    with pytest.raises(ValueError):
        cer(p, q, np.array([True, True, True, False]))


def test_cer_exclusion_matches_subsetting():
    rng = np.random.default_rng(14)
    for _ in range(20):
        n = int(rng.integers(4, 25))
        p = rng.integers(0, 3, n)
        q = rng.integers(0, 3, n)
        flags = rng.random(n) < 0.3
        if (~flags).sum() < 2:
            continue
        assert cer(p, q, flags) == cer(p[~flags], q[~flags])


def test_cer_length_mismatch():
    with pytest.raises(ValueError):
        cer([0, 1], [0, 1, 2])
    with pytest.raises(ValueError, match="cer: outlier_flags length mismatch"):
        cer([0, 1, 1], [0, 1, 2], [False, True])
