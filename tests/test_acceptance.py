"""Acceptance gate: one test per numbered criterion of the package's
acceptance checklist (README, "Acceptance criteria"). Every test prints one
summary line with its measured values before asserting, so a failing
criterion reports its numbers. Criteria 2-4 dominate the runtime (PAM at
n=500..2000 across many replications); the whole file takes a few minutes.

The replication protocol is frozen: dataset seed [B, 0, rep], fits seed
[B, 1, rep] (and [B, 2, rep, ci] for gain grids) with a distinct base B per
criterion, so every number here is bit-reproducible.
"""

import itertools
import math
import time

import numpy as np

from seqclust import (
    GainConfig,
    Sim1Config,
    Sim2Config,
    assign_nearest,
    cer,
    draw_seeds,
    empirical_l1_risk,
    kmeans_fit,
    kmeans_init,
    kmeans_step,
    kmedians_fit,
    kmedians_fit_data_driven,
    kmedians_init,
    kmedians_step,
    kmedians_stream,
    mc_gradient,
    normalized_distances,
    pam_fit,
    profiles_sample,
    sim1_sample,
    sim2_sample,
    write_model,
)


def _verdict(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return line


def test_criterion_1_sim1_risk_level():
    cs = [0.5, 1.0, 2.0, 4.0]
    km = []
    kmed = {c: [] for c in cs}
    for rep in range(50):
        data = sim1_sample(Sim1Config(n=250, epsilon=0.05, seed=[11, 0, rep]))
        km.append(kmeans_fit(data, 3, restarts=10, seed=[11, 1, rep]).risk)
        for ci, c in enumerate(cs):
            kmed[c].append(
                kmedians_fit(data, 3, GainConfig(c_gamma=c), restarts=10,
                             seed=[11, 2, rep, ci]).risk)
    km_mean = float(np.mean(km))
    means = [float(np.mean(kmed[c])) for c in cs]
    lo, hi = min(means), max(means)
    level_ok = abs(km_mean - 2.31) <= 0.15
    below_ok = all(m < km_mean for m in means)
    flat_ok = (hi - lo) / lo <= 0.02
    detail = (f"kmeans mean {km_mean:.4f} target 2.31+-0.15; kmedians means "
              + ", ".join(f"{m:.4f}" for m in means)
              + f"; spread {(hi - lo) / lo:.4f} limit 0.02")
    line = _verdict(1, level_ok and below_ok and flat_ok, detail)
    assert level_ok and below_ok and flat_ok, line


def test_criterion_2_sim2_d50_risk_level_and_pam_ordering():
    cs = [0.5, 1.0, 2.0, 3.0]
    km = []
    kmed = {c: [] for c in cs}
    pam = []
    for rep in range(50):
        data = sim2_sample(Sim2Config(n=500, d=50, epsilon=0.05,
                                      seed=[22, 0, rep]))
        km.append(kmeans_fit(data, 3, restarts=25, seed=[22, 1, rep]).risk)
        for ci, c in enumerate(cs):
            kmed[c].append(
                kmedians_fit(data, 3, GainConfig(c_gamma=c), restarts=25,
                             seed=[22, 2, rep, ci]).risk)
        pam.append(pam_fit(data, 3).risk)
    km_mean = float(np.mean(km))
    pam_mean = float(np.mean(pam))
    best = min(float(np.mean(v)) for v in kmed.values())
    level_ok = abs(best - 1.36) <= 0.08
    order_ok = pam_mean > km_mean and pam_mean > best
    detail = (f"kmedians min mean {best:.4f} target 1.36+-0.08; "
              f"pam {pam_mean:.4f} vs kmeans {km_mean:.4f}")
    line = _verdict(2, level_ok and order_ok, detail)
    assert level_ok and order_ok, line


def test_criterion_3_sim2_scaled_d200_risk_level():
    cs = [5.0, 10.0, 25.0]
    kmed = {c: [] for c in cs}
    for rep in range(20):
        data = sim2_sample(Sim2Config(n=1000, d=200, epsilon=0.05, scale=10.0,
                                      seed=[33, 0, rep]))
        for ci, c in enumerate(cs):
            kmed[c].append(
                kmedians_fit(data, 3, GainConfig(c_gamma=c), restarts=50,
                             seed=[33, 1, rep, ci]).risk)
    means = [float(np.mean(kmed[c])) for c in cs]
    lo, hi = min(means), max(means)
    level_ok = all(abs(m - 13.6) <= 0.7 for m in means)
    flat_ok = (hi - lo) / lo <= 0.03
    detail = ("means " + ", ".join(f"{m:.4f}" for m in means)
              + f" target 13.6+-0.7; spread {(hi - lo) / lo:.4f} limit 0.03")
    line = _verdict(3, level_ok and flat_ok, detail)
    assert level_ok and flat_ok, line


def _cer_of(report, data):
    pred = assign_nearest(data.X, report.centers)
    return cer(pred, data.labels, data.outlier_flags)


def test_criterion_4_cer_ordering_under_contamination():
    km, kmed, pam = [], [], []
    for rep in range(100):
        data = sim1_sample(Sim1Config(n=500, epsilon=0.05, seed=[44, 0, rep]))
        km.append(_cer_of(kmeans_fit(data, 3, restarts=10,
                                     seed=[44, 1, rep]), data))
        kmed.append(_cer_of(kmedians_fit_data_driven(
            data, 3, restarts=10, seed=[44, 2, rep]), data))
        pam.append(_cer_of(pam_fit(data, 3), data))
    m_km = float(np.median(km))
    m_kmed = float(np.median(kmed))
    m_pam = float(np.median(pam))
    near_pam_ok = m_kmed <= m_pam + 0.02
    gap_ok = m_km - m_kmed >= 0.05

    kmed2, pam2 = [], []
    for rep in range(100):
        data = sim1_sample(Sim1Config(n=1000, epsilon=0.10, seed=[45, 0, rep]))
        kmed2.append(_cer_of(kmedians_fit_data_driven(
            data, 3, restarts=10, seed=[45, 1, rep]), data))
        pam2.append(_cer_of(pam_fit(data, 3), data))
    m_kmed2 = float(np.median(kmed2))
    m_pam2 = float(np.median(pam2))
    heavy_ok = m_kmed2 < m_pam2
    detail = (f"eps=0.05 medians kmeans {m_km:.4f} kmedians {m_kmed:.4f} "
              f"pam {m_pam:.4f}; eps=0.10 kmedians {m_kmed2:.4f} "
              f"pam {m_pam2:.4f}")
    line = _verdict(4, near_pam_ok and gap_ok and heavy_ok, detail)
    assert near_pam_ok and gap_ok and heavy_ok, line


def test_criterion_5_complexity_counter_ratios():
    gain = GainConfig(c_gamma=1.0)
    small = sim1_sample(Sim1Config(n=250, epsilon=0.05, seed=[55, 0]))
    large = sim1_sample(Sim1Config(n=2000, epsilon=0.05, seed=[55, 1]))
    e_small = kmedians_fit(small, 5, gain, restarts=3,
                           seed=[55, 2]).distance_evals
    e_large = kmedians_fit(large, 5, gain, restarts=3,
                           seed=[55, 3]).distance_evals
    km_ratio = e_large / e_small
    b_small = pam_fit(small, 5).build_evals
    b_large = pam_fit(large, 5).build_evals
    pam_ratio = b_large / b_small
    km_ok = abs(km_ratio - 8.0) <= 0.8
    pam_ok = abs(pam_ratio - 64.0) <= 16.0
    detail = (f"kmedians evals ratio {km_ratio:.3f} target 8+-10%; "
              f"pam build ratio {pam_ratio:.2f} target 64+-25%")
    line = _verdict(5, km_ok and pam_ok, detail)
    assert km_ok and pam_ok, line


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_6_pam_kmedians_timing_ratio():
    data = sim1_sample(Sim1Config(n=2000, epsilon=0.05, seed=[66, 0]))
    gain = GainConfig(c_gamma=2.0)

    def kmed():
        kmedians_fit(data, 5, gain, restarts=1, seed=[66, 1])

    def pam():
        pam_fit(data, 5)

    kmed(), pam()  # warm-up
    # interleaved, so that both medians see the same machine phases: each PAM
    # call sits between k-medians calls, and the short k-medians fit runs 5
    # times per PAM call
    t_kmed, t_pam = [], []
    for _ in range(5):
        t_kmed += [_timed(kmed) for _ in range(3)]
        t_pam.append(_timed(pam))
        t_kmed += [_timed(kmed) for _ in range(2)]
    t_kmed, t_pam = float(np.median(t_kmed)), float(np.median(t_pam))
    ratio = t_pam / t_kmed
    ok = ratio >= 50.0
    detail = (f"kmedians {t_kmed * 1e3:.2f} ms, pam {t_pam * 1e3:.1f} ms, "
              f"ratio {ratio:.1f} limit >= 50")
    line = _verdict(6, ok, detail)
    assert ok, line


def test_criterion_7_profiles_scale_run():
    data = profiles_sample(n=5422, d=1440, seed=77)
    km = kmeans_fit(data, 5, restarts=10, seed=[77, 1])
    auto = kmedians_fit_data_driven(data, 5, restarts=10, seed=[77, 2])
    assert auto.centers.shape == (5, 1440)
    assert np.isfinite(auto.risk) and auto.risk > 0
    ok = auto.wall_time <= 10.0 * km.wall_time
    detail = (f"kmedians-auto {auto.wall_time:.2f} s vs kmeans "
              f"{km.wall_time:.2f} s, limit 10x")
    line = _verdict(7, ok, detail)
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 8: property suite


def _check_boundedness_million_steps():
    rng = np.random.default_rng(88)
    configs = [
        (3, 2, 1.0, GainConfig(c_gamma=0.2)),
        (3, 2, 1.0, GainConfig(c_gamma=7.0)),
        (1, 1, 1.0, GainConfig(c_gamma=1.0)),
        (8, 2, 1.0, GainConfig(c_gamma=2.0, alpha=1.0)),
        (5, 5, 1.0, GainConfig(c_gamma=3.0, c_alpha=0.5)),
        (4, 3, 1.0, GainConfig(c_gamma=[0.3, 1.0, 2.5, 6.0])),
        (3, 2, 10.0, GainConfig(c_gamma=0.5)),
        (3, 2, 10.0, GainConfig(c_gamma=12.0)),
        (6, 4, 5.0, GainConfig(c_gamma=1.5, alpha=0.6)),
        (2, 8, 2.0, GainConfig(c_gamma=4.0)),
    ]
    total = 0
    for k, d, span, gain in configs:
        X = rng.uniform(-span, span, size=(100_000, d))
        K = float(np.sqrt((X * X).mean(axis=1)).max())
        seeds = draw_seeds(X, k, rng)
        state = kmedians_init(seeds, gain, bound_K=K)
        kmedians_stream(state, X)  # raises AssertionError on any violation
        total += X.shape[0]
    # one wide stream exercises the vectorized update path as well
    X = rng.uniform(-1.0, 1.0, size=(50_000, 12))
    K = float(np.sqrt((X * X).mean(axis=1)).max())
    state = kmedians_init(draw_seeds(X, 4, rng), GainConfig(c_gamma=2.0),
                          bound_K=K)
    kmedians_stream(state, X)
    total += X.shape[0]
    assert total >= 1_000_000
    return total


def _check_running_mean_identity():
    data = sim1_sample(Sim1Config(n=5000, epsilon=0.05, seed=80))
    gain = GainConfig(c_gamma=2.0)
    seeds = draw_seeds(data.X, 3, np.random.default_rng(81))
    state = kmedians_init(seeds, gain)
    history = [[seeds[r].copy()] for r in range(3)]
    for z in data.X:
        counts_before = state.update_counts.copy()
        state = kmedians_step(state, z)
        changed = np.nonzero(state.update_counts != counts_before)[0]
        for r in changed:
            history[r].append(state.raw[r].copy())
    for r in range(3):
        np.testing.assert_allclose(state.averaged[r],
                                   np.mean(history[r], axis=0), atol=1e-10)


def _check_barycenter_identity():
    data = sim1_sample(Sim1Config(n=3000, epsilon=0.05, seed=82))
    seeds = draw_seeds(data.X, 3, np.random.default_rng(83))
    state = kmeans_init(seeds)
    members = [[seeds[r].copy()] for r in range(3)]
    for z in data.X:
        counts_before = state.counts.copy()
        state = kmeans_step(state, z)
        r = int(np.nonzero(state.counts != counts_before)[0][0])
        members[r].append(np.asarray(z, dtype=float))
    for r in range(3):
        np.testing.assert_allclose(state.centers[r],
                                   np.mean(members[r], axis=0), atol=1e-10)


def _check_gradient_finite_differences():
    data = sim1_sample(Sim1Config(n=5000, epsilon=0.0, seed=84))
    centers = np.random.default_rng(85).uniform(-5.0, 5.0, size=(3, 2))
    grad, skipped = mc_gradient(centers, data.X)
    assert skipped == 0
    h = 1e-5
    for r in range(3):
        for t in range(2):
            up, dn = centers.copy(), centers.copy()
            up[r, t] += h
            dn[r, t] -= h
            fd = (empirical_l1_risk(data.X, up)
                  - empirical_l1_risk(data.X, dn)) / (2 * h)
            assert abs(grad[r, t] - 2 * fd) < 1e-4  # d = 2


def _check_cer_brute_oracle():
    rng = np.random.default_rng(86)
    for _ in range(40):
        n = int(rng.integers(2, 31))
        p = rng.integers(0, 4, size=n)
        q = rng.integers(0, 4, size=n)
        bad = sum(1 for i, j in itertools.combinations(range(n), 2)
                  if (p[i] == p[j]) != (q[i] == q[j]))
        assert cer(p, q) == bad / (n * (n - 1) / 2)


def _check_pam_exhaustive_oracle():
    rng = np.random.default_rng(87)
    for _ in range(40):
        n = int(rng.integers(3, 13))
        k = int(rng.integers(1, min(n, 4)))
        X = rng.normal(size=(n, 2)) * rng.uniform(0.5, 3.0)
        best = min(
            float(normalized_distances(X, X[list(combo)]).min(axis=1).mean())
            for combo in itertools.combinations(range(n), k))
        assert math.isclose(pam_fit(X, k).risk, best, rel_tol=1e-12)


def _check_ar1_matches_cholesky():
    d = 6
    rho = 0.9
    ds = sim2_sample(Sim2Config(n=300000, d=d, epsilon=0.0, seed=89))
    j = np.arange(1, d + 1)
    rows = ds.X[ds.labels == 2][:100000]  # the rho=0.9 component
    assert rows.shape[0] == 100000
    resid = rows - 2.0 * np.sin(4 * np.pi / 3 + 2.0 * np.pi * j / (d - 1))
    jj, ll = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    sigma = 1.5 * rho ** np.abs(jj - ll)
    L = np.linalg.cholesky(sigma)
    oracle = np.random.default_rng(90).standard_normal((100000, d)) @ L.T
    np.testing.assert_allclose(np.cov(resid.T), np.cov(oracle.T), atol=0.05)


def _check_seeded_reruns_bit_exact(tmp_path):
    a = sim1_sample(Sim1Config(n=400, epsilon=0.05, seed=91))
    b = sim1_sample(Sim1Config(n=400, epsilon=0.05, seed=91))
    np.testing.assert_array_equal(a.X, b.X)
    np.testing.assert_array_equal(a.labels, b.labels)
    s1 = sim2_sample(Sim2Config(n=100, d=20, epsilon=0.1, seed=92))
    s2 = sim2_sample(Sim2Config(n=100, d=20, epsilon=0.1, seed=92))
    np.testing.assert_array_equal(s1.X, s2.X)
    p1 = profiles_sample(n=50, d=40, seed=93)
    p2 = profiles_sample(n=50, d=40, seed=93)
    np.testing.assert_array_equal(p1.X, p2.X)

    fits = [
        lambda: kmeans_fit(a, 3, restarts=4, seed=94),
        lambda: kmedians_fit(a, 3, GainConfig(c_gamma=1.5), restarts=4,
                             seed=95),
        lambda: kmedians_fit_data_driven(a, 3, restarts=4, seed=96),
        lambda: pam_fit(a, 3),
    ]
    for idx, fit in enumerate(fits):
        r1, r2 = fit(), fit()
        f1 = tmp_path / f"m{idx}_a.json"
        f2 = tmp_path / f"m{idx}_b.json"
        write_model(r1, f1)
        write_model(r2, f2)
        assert f1.read_bytes() == f2.read_bytes()
        np.testing.assert_array_equal(r1.centers, r2.centers)
        assert r1.risk == r2.risk


def test_criterion_8_property_suite(tmp_path):
    steps = _check_boundedness_million_steps()
    _check_running_mean_identity()
    _check_barycenter_identity()
    _check_gradient_finite_differences()
    _check_cer_brute_oracle()
    _check_pam_exhaustive_oracle()
    _check_ar1_matches_cholesky()
    _check_seeded_reruns_bit_exact(tmp_path)
    _verdict(8, True, f"boundedness steps {steps}, identities at 1e-10, "
                      "gradient at 1e-4, oracle equalities exact, "
                      "AR(1) match at 0.05, reruns bit-exact")
