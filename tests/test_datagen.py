"""Tests for the synthetic data generators."""

import json
from pathlib import Path

import numpy as np
import pytest

from seqclust import (
    Sim1Config,
    Sim2Config,
    profiles_sample,
    read_csv,
    save_dataset,
    sim1_sample,
    sim2_sample,
)
from seqclust.datagen import SIM1_COVS, SIM1_MEANS, SIM1_OUTLIER, SIM2_RHOS


def test_sim1_full_contamination():
    ds = sim1_sample(Sim1Config(n=50, epsilon=1.0, seed=0))
    np.testing.assert_array_equal(ds.X, np.tile(SIM1_OUTLIER, (50, 1)))
    assert ds.outlier_flags.all()
    assert (ds.labels == -1).all()


def test_sim1_labels_flags_consistent():
    ds = sim1_sample(Sim1Config(n=2000, epsilon=0.1, seed=1))
    np.testing.assert_array_equal(ds.outlier_flags, ds.labels == -1)
    # flagged rows are the atom exactly, unflagged rows never are
    np.testing.assert_array_equal(ds.X[ds.outlier_flags],
                                  np.tile(SIM1_OUTLIER, (ds.outlier_flags.sum(), 1)))
    clean = ds.X[~ds.outlier_flags]
    assert not np.any((clean == SIM1_OUTLIER).all(axis=1))
    assert set(np.unique(ds.labels[~ds.outlier_flags])) <= {0, 1, 2}


def test_sim1_contamination_rate_binomial():
    n, eps = 10000, 0.05
    ds = sim1_sample(Sim1Config(n=n, epsilon=eps, seed=2))
    count = int(ds.outlier_flags.sum())
    slack = 4.0 * np.sqrt(n * eps * (1 - eps))
    assert abs(count - n * eps) <= slack


def test_sim1_component_moments():
    n = 200000
    ds = sim1_sample(Sim1Config(n=n, epsilon=0.0, seed=3))
    assert ds.outlier_flags.sum() == 0
    for c in range(3):
        rows = ds.X[ds.labels == c]
        n_c = rows.shape[0]
        assert n_c > n // 4
        tol = 4.0 * np.sqrt(np.trace(SIM1_COVS[c]) / n_c)
        assert np.linalg.norm(rows.mean(axis=0) - SIM1_MEANS[c]) <= tol
        emp_cov = np.cov(rows.T)
        np.testing.assert_allclose(emp_cov, SIM1_COVS[c], atol=0.1)


def test_sim1_deterministic():
    a = sim1_sample(Sim1Config(n=100, epsilon=0.05, seed=9))
    b = sim1_sample(Sim1Config(n=100, epsilon=0.05, seed=9))
    np.testing.assert_array_equal(a.X, b.X)
    np.testing.assert_array_equal(a.labels, b.labels)
    c = sim1_sample(Sim1Config(n=100, epsilon=0.05, seed=10))
    assert not np.array_equal(a.X, c.X)


def test_sim2_full_contamination_scaled():
    ds = sim2_sample(Sim2Config(n=20, d=10, epsilon=1.0, scale=10.0, seed=0))
    np.testing.assert_array_equal(ds.X, np.full((20, 10), 40.0))


def test_sim2_mean_curves_use_one_based_index():
    d = 50
    n = 60000
    ds = sim2_sample(Sim2Config(n=n, d=d, epsilon=0.0, seed=4))
    j = np.arange(1, d + 1)
    for c, phase in enumerate((0.0, 2 * np.pi / 3, 4 * np.pi / 3)):
        rows = ds.X[ds.labels == c]
        expected = 2.0 * np.sin(phase + 2.0 * np.pi * j / (d - 1))
        np.testing.assert_allclose(rows.mean(axis=0), expected, atol=0.06)


def test_sim2_variance_and_autocorrelation():
    d = 40
    ds = sim2_sample(Sim2Config(n=90000, d=d, epsilon=0.0, seed=5))
    j = np.arange(1, d + 1)
    for c, (rho, phase) in enumerate(zip(SIM2_RHOS, (0.0, 2 * np.pi / 3, 4 * np.pi / 3))):
        rows = ds.X[ds.labels == c]
        resid = rows - 2.0 * np.sin(phase + 2.0 * np.pi * j / (d - 1))
        var = resid.var(axis=0)
        np.testing.assert_allclose(var, 1.5, atol=0.1)
        lag1 = np.mean(resid[:, 1:] * resid[:, :-1], axis=0) / 1.5
        np.testing.assert_allclose(lag1, rho, atol=0.05)


def test_sim2_recursion_covariance_identity():
    # the forward recursion is a lower-triangular map M of the innovations;
    # M M^T must equal the stationary AR(1) covariance 1.5 rho^|j-l| exactly
    d = 12
    for rho in SIM2_RHOS:
        M = np.zeros((d, d))
        M[0, 0] = np.sqrt(1.5)
        innov = np.sqrt(1.5 * (1.0 - rho * rho))
        for row in range(1, d):
            M[row] = rho * M[row - 1]
            M[row, row] += innov
        jj, ll = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
        sigma = 1.5 * rho ** np.abs(jj - ll)
        np.testing.assert_allclose(M @ M.T, sigma, rtol=0, atol=1e-12)


def test_sim2_matches_cholesky_sampler_in_distribution():
    d = 6
    rho = 0.9
    ds = sim2_sample(Sim2Config(n=300000, d=d, epsilon=0.0, seed=50))
    j = np.arange(1, d + 1)
    rows = ds.X[ds.labels == 2]  # the rho=0.9 component
    assert rows.shape[0] >= 90000
    resid = rows[:100000] - 2.0 * np.sin(4 * np.pi / 3 + 2.0 * np.pi * j / (d - 1))
    jj, ll = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    sigma = 1.5 * rho ** np.abs(jj - ll)
    L = np.linalg.cholesky(sigma)
    oracle = np.random.default_rng(51).standard_normal((100000, d)) @ L.T
    np.testing.assert_allclose(np.cov(resid.T), np.cov(oracle.T), atol=0.05)


def test_sim2_rejects_bad_dims():
    with pytest.raises(ValueError):
        sim2_sample(Sim2Config(n=10, d=1, epsilon=0.0))
    with pytest.raises(ValueError):
        sim2_sample(Sim2Config(n=10, d=5, epsilon=0.0, scale=0.0))
    with pytest.raises(ValueError):
        sim1_sample(Sim1Config(n=10, epsilon=1.5))


def test_profiles_shape_and_values():
    ds = profiles_sample(n=40, d=200, seed=6)
    assert ds.X.shape == (40, 200)
    assert set(np.unique(ds.X)) <= {0.0, 1.0}
    assert (ds.X.sum(axis=1) >= 1).all()
    assert ds.labels is None and ds.outlier_flags is None


def test_profiles_deterministic():
    a = profiles_sample(n=25, d=120, seed=7)
    b = profiles_sample(n=25, d=120, seed=7)
    np.testing.assert_array_equal(a.X, b.X)


def test_save_dataset_sidecar(tmp_path):
    cfg = Sim1Config(n=30, epsilon=0.1, seed=8)
    ds = sim1_sample(cfg)
    csv_path = tmp_path / "toy.csv"
    sidecar = save_dataset(ds, csv_path, "sim1", cfg)
    back = read_csv(csv_path)
    np.testing.assert_array_equal(back.X, ds.X)
    np.testing.assert_array_equal(back.labels, ds.labels)
    meta = json.loads(Path(sidecar).read_text())
    assert meta["generator"] == "sim1"
    assert meta["params"] == {"n": 30, "epsilon": 0.1, "seed": 8}
    assert meta["rng"] == "numpy-pcg64"
    assert meta["n"] == 30 and meta["d"] == 2
    assert meta["has_labels"] and meta["has_outlier_flags"]
    assert "package_version" in meta
