"""Tests for the averaged stochastic-gradient k-medians."""

import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from seqclust import (
    Dataset,
    GainConfig,
    KMeansState,
    KMediansState,
    Sim1Config,
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
    read_model,
    sim1_sample,
    state_from_model,
    write_model,
)
from seqclust import kmeans, kmedians
from seqclust.kmedians import _consume_restarts
from test_core import _traced_peak

SQ2 = math.sqrt(2.0)


def test_gain_config_validation():
    GainConfig(c_gamma=1.0, alpha=1.0).c_vector(2)  # alpha=1 allowed
    # a bad value is rejected where the config is built, not where it is used
    for kwargs, message in (
        (dict(alpha=0.4), r"alpha must lie in \(1/2, 1\]"),
        (dict(alpha=0.5), r"alpha must lie in \(1/2, 1\]"),  # boundary excluded
        (dict(c_gamma=0.0), "c_gamma must be positive and finite"),
        (dict(c_gamma=[1.0, -2.0]), "c_gamma must be positive and finite"),
        (dict(c_gamma=None), "c_gamma must be positive and finite"),
        (dict(c_gamma=math.inf), "c_gamma must be positive and finite"),
        (dict(c_alpha=-1.0), "c_alpha must be positive and finite"),
        (dict(c_alpha=math.nan), "c_alpha must be positive and finite"),
        # a string, a bool or a list where a number belongs is named, not cast
        (dict(c_gamma="2"), "c_gamma must be positive and finite"),
        (dict(c_gamma=[1.0, "2"]), "c_gamma must be positive and finite"),
        (dict(c_gamma=True), "c_gamma must be positive and finite"),
        (dict(c_alpha="1"), "c_alpha must be positive and finite"),
        (dict(c_alpha=[1.0, 2.0]), "c_alpha must be positive and finite"),
        (dict(alpha="0.75"), r"alpha must lie in \(1/2, 1\]"),
    ):
        with pytest.raises(ValueError, match=message):
            GainConfig(**kwargs)
    # the length of a per-cluster c_gamma is checked against k when it is used
    gain = GainConfig(c_gamma=[1.0, 2.0, 3.0])
    np.testing.assert_array_equal(gain.c_vector(3), [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="c_gamma must be scalar or length 2, got length 3"):
        gain.c_vector(2)
    np.testing.assert_array_equal(GainConfig(c_gamma=0.5).c_vector(3), [0.5, 0.5, 0.5])


def test_init_state():
    state = kmedians_init([[0.0, 0.0], [5.0, 5.0]], GainConfig())
    np.testing.assert_array_equal(state.raw, [[0.0, 0.0], [5.0, 5.0]])
    np.testing.assert_array_equal(state.averaged, state.raw)
    np.testing.assert_array_equal(state.update_counts, [0, 0])
    assert state.skips == 0 and state.n_seen == 0


def test_init_rejects_duplicate_seeds():
    with pytest.raises(ValueError):
        kmedians_init([[1.0, 1.0], [1.0, 1.0]], GainConfig())


def test_first_step_hand_computed():
    # raw=(0,0), z=(1,0), c_gamma=0.5: a=0.5, unit direction (1,0)*sqrt(2),
    # so raw moves to (sqrt(2)/2, 0); averaged = mean{seed, raw}
    state = kmedians_init([[0.0, 0.0]], GainConfig(c_gamma=0.5))
    out = kmedians_step(state, [1.0, 0.0])
    np.testing.assert_allclose(out.raw, [[SQ2 / 2.0, 0.0]], rtol=1e-14)
    np.testing.assert_allclose(out.averaged, [[SQ2 / 4.0, 0.0]], rtol=1e-14)
    np.testing.assert_array_equal(out.update_counts, [1])
    assert out.current_steps[0] == 0.5
    # original untouched
    np.testing.assert_array_equal(state.raw, [[0.0, 0.0]])


def test_first_averaged_update_is_two_term_mean():
    # seed (1,1), c_gamma=2, z=(2,2): unit step of length 2 lands raw on (3,3),
    # averaged = ((1,1)+(3,3))/2 = (2,2)
    state = kmedians_init([[1.0, 1.0]], GainConfig(c_gamma=2.0))
    out = kmedians_step(state, [2.0, 2.0])
    np.testing.assert_array_equal(out.raw, [[3.0, 3.0]])
    np.testing.assert_array_equal(out.averaged, [[2.0, 2.0]])


def test_zero_distance_step_skipped():
    state = kmedians_init([[0.0, 0.0], [5.0, 5.0]], GainConfig())
    out = kmedians_step(state, [0.0, 0.0])
    np.testing.assert_array_equal(out.raw, state.raw)
    np.testing.assert_array_equal(out.averaged, state.averaged)
    np.testing.assert_array_equal(out.update_counts, [0, 0])
    assert out.skips == 1 and out.n_seen == 1


def test_data_equal_to_seeds_all_skipped():
    seeds = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
    report = kmedians_fit(Dataset(X=seeds.copy()), 3, GainConfig(), seeds=seeds)
    np.testing.assert_array_equal(report.centers, seeds)
    assert report.skips == 3 and report.n_updates == 0


def test_step_touches_only_nearest_cluster():
    state = kmedians_init([[0.0, 0.0], [100.0, 100.0]], GainConfig())
    out = kmedians_step(state, [1.0, 1.0])
    np.testing.assert_array_equal(out.raw[1], [100.0, 100.0])
    np.testing.assert_array_equal(out.averaged[1], [100.0, 100.0])
    assert out.update_counts[1] == 0 and out.current_steps[1] == 0.0
    assert out.update_counts[0] == 1


def test_per_cluster_gains():
    state = kmedians_init(
        [[0.0, 0.0], [100.0, 0.0]], GainConfig(c_gamma=[0.5, 3.0])
    )
    out = kmedians_step(state, [1.0, 0.0])     # cluster 0, step 0.5
    out = kmedians_step(out, [101.0, 0.0])     # cluster 1, step 3.0
    assert out.current_steps[0] == 0.5
    assert out.current_steps[1] == 3.0
    # step length equals the gain: |raw - seed| in normalized norm
    for r, seed, step in ((0, [0.0, 0.0], 0.5), (1, [100.0, 0.0], 3.0)):
        v = out.raw[r] - seed
        assert math.isclose(np.sqrt(np.mean(v * v)), step, rel_tol=1e-12)


def test_steps_strictly_decrease_per_cluster():
    rng = np.random.default_rng(30)
    X = rng.standard_normal((200, 2)) * 3.0
    state = kmedians_init(X[:2].copy(), GainConfig(c_gamma=1.5))
    last = [None, None]
    for z in X[2:]:
        new = kmedians_step(state, z)
        for r in range(2):
            if new.update_counts[r] == state.update_counts[r] + 1:
                if last[r] is not None:
                    assert new.current_steps[r] < last[r]
                last[r] = new.current_steps[r]
        state = new
    # closed form for the persisted step after m updates
    for r in range(2):
        m = state.update_counts[r]
        if m > 0:
            expected = 1.5 / (1.0 + (m - 1)) ** 0.75
            assert math.isclose(state.current_steps[r], expected, rel_tol=1e-12)


def test_running_mean_identity():
    rng = np.random.default_rng(31)
    X = rng.standard_normal((300, 3))
    seeds = X[:3].copy()
    state = kmedians_init(seeds, GainConfig(c_gamma=0.8))
    iterates = [[seeds[r].copy()] for r in range(3)]
    for z in X[3:]:
        new = kmedians_step(state, z)
        for r in range(3):
            if new.update_counts[r] > state.update_counts[r]:
                iterates[r].append(new.raw[r].copy())
        state = new
    for r in range(3):
        np.testing.assert_allclose(
            state.averaged[r], np.mean(iterates[r], axis=0), rtol=1e-10, atol=1e-12
        )


def test_boundedness_invariant_randomized():
    rng = np.random.default_rng(32)
    for c in (0.2, 1.0, 7.0):
        X = rng.uniform(-5.0, 5.0, size=(4000, 2))
        # bound_check asserts |raw[r]| <= K + 2*c at every single step
        kmedians_fit(
            Dataset(X=X), 3, GainConfig(c_gamma=c), restarts=2, seed=int(c * 10),
            bound_check=True,
        )
    # draw_seeds jitters duplicated rows, so a seed may lie just outside the
    # rows' ball (here by about 2e-11), and explicit seeds anywhere: the fit's
    # bound covers the seeds as well as the rows
    for d in (2, 12):
        kmedians_fit(np.full((50, d), 1e4), 3, restarts=3, seed=1, bound_check=True)
    X = rng.uniform(-1.0, 1.0, size=(200, 2))
    kmedians_fit(X, 2, seeds=[[0.0, 0.0], [50.0, 50.0]], bound_check=True)
    # per-cluster gains, stepped row by row: a step moves Z_r by at most c_r
    # toward a row within K, so |Z_r| stays within K + c_r, c_r inside the
    # K + 2*c_r that bound_check asserts
    for s in range(40):
        rng = np.random.default_rng([34, s])
        k, d = int(rng.integers(2, 5)), int(rng.integers(1, 6))
        c = np.exp(rng.uniform(np.log(0.01), np.log(20.0), k))
        X = rng.standard_normal((150, d)) * rng.uniform(0.1, 10.0)
        K = float(np.sqrt((X * X).mean(axis=1)).max())
        state = kmedians_init(X[:k], GainConfig(c_gamma=c), bound_K=K)
        for z in X:
            state = kmedians_step(state, z)
            assert (np.sqrt((state.raw * state.raw).mean(axis=1)) <= K + c + 1e-12).all(), s


@pytest.mark.parametrize("restarts", [1, 3])
def test_bound_check_takes_its_norms_without_an_n_by_d_temporary(restarts):
    # K was the max of sqrt((X * X).mean(axis=-1)), whose X * X is as large as X
    X = np.random.default_rng(38).standard_normal((2000, 500))
    fit = lambda: kmedians_fit(X, 3, GainConfig(c_gamma=1.0), restarts=restarts, seed=0,
                               bound_check=True)
    assert _traced_peak(fit) <= 0.25 * X.nbytes


def _walk_off_message(d, restarts, c_gamma):
    """The bound_check error of a stream that walks cluster 0 off the ball.
    bound_K is the seeds' own norm and every row lies far outside it: the
    first two rows move cluster 2, then every other row pulls cluster 0 away.
    With three restarts, restart 1 reads row 0 last, so its cluster 0 starts
    walking one row earlier than in restarts 0 and 2, after cluster 2 moved."""
    seeds = np.zeros((3, d))
    seeds[0, 0], seeds[1, 1], seeds[2, 0] = -1.0, 1.0, 1.0
    X = np.zeros((40, d))
    X[:2, 0], X[2:, 0] = 50.0, -50.0
    gain, K = GainConfig(c_gamma=c_gamma), float(np.sqrt(np.mean(seeds[0] * seeds[0])))
    with pytest.raises(AssertionError) as err:
        if restarts == 1:
            kmedians_stream(kmedians_init(seeds, gain, bound_K=K), X)
        else:
            rows = np.arange(len(X))
            _consume_restarts([kmedians_init(seeds, gain, bound_K=K) for _ in range(3)], X,
                              iter([rows, np.roll(rows, -1), rows]))
    return str(err.value)


@pytest.mark.parametrize("c_gamma", [0.5, [0.5, 2.0, 1.0]], ids=["one-c", "c-per-cluster"])
@pytest.mark.parametrize("d, restarts, message", [
    (2, 1, "boundedness violated: |raw[0]|=1.72375423 > 0.707106781 + 2*0.5"),
    (12, 1, "boundedness violated: |raw[0]|=1.30532258 > 0.288675135 + 2*0.5"),
    (12, 3, "boundedness violated in restart 1: |raw[0]|=1.30532258 > 0.288675135 + 2*0.5"),
], ids=["scalar", "numpy", "batched"])
def test_boundedness_violation_names_the_cluster_own_gain(d, restarts, message, c_gamma):
    # cluster 0 (c=0.5) walks off after cluster 2 moved. The limit of cluster
    # r is bound_K + 2*c_r, so with per-cluster gains the message names 0.5,
    # as the scalar gain 0.5 does, not the c=1 of the cluster updated before
    # it nor the largest c_gamma. For one c, the former rule (bound_K + 2 *
    # the largest c of any cluster updated so far) gave these same messages.
    assert _walk_off_message(d, restarts, c_gamma) == message


def _state_bytes(st):
    return (st.raw.tobytes(), st.averaged.tobytes(), st.update_counts.tobytes(), st.skips,
            st.n_seen, st.current_steps.tobytes())


@pytest.mark.parametrize("d", [2, 8, 9, 200])
@pytest.mark.parametrize("bounded", [False, True], ids=["free", "bounded"])
def test_stream_matches_chunked_and_stepwise(d, bounded):
    # the whole array, 16-row chunks and one kmedians_step per row are one
    # recursion, on the scalar loop (d <= 7) and the numpy loop alike. Half
    # the rows repeat the seeds, so some rows land on their center and are
    # skipped.
    rng = np.random.default_rng(33)
    X = rng.standard_normal((60, d)) * 2.0
    seeds = X[:3].copy()
    X = np.vstack([X, seeds[rng.integers(0, 3, 60)]])[rng.permutation(120)]
    K = float(np.sqrt((X * X).mean(axis=1)).max()) if bounded else None
    init = kmedians_init(seeds, GainConfig(c_gamma=[0.5, 1.5, 3.0]), bound_K=K)
    before = _state_bytes(init)
    streamed = kmedians_stream(init, X)
    chunked = stepped = init
    for i in range(0, len(X), 16):
        chunked = kmedians_stream(chunked, X[i:i + 16])
    for z in X:
        stepped = kmedians_step(stepped, z)
    assert streamed.skips > 0
    assert _state_bytes(chunked) == _state_bytes(streamed)
    assert _state_bytes(stepped) == _state_bytes(streamed)
    assert _state_bytes(init) == before


@pytest.mark.parametrize("d", [1, 2, 7, 8, 9, 50])
def test_fit_and_stream_replay_the_numpy_recursion(d):
    # up to d=7 the fit and the stream run the scalar loop, whose left-to-right
    # sums are numpy's order only for up to 7 terms; from d=8 on they run
    # numpy's. The seeds are data rows, so skips occur.
    rng = np.random.default_rng(31)
    X = rng.standard_normal((60, d))
    seeds = X[:3].copy()
    gain = GainConfig(c_gamma=[0.5, 1.0, 2.0], c_alpha=0.7, alpha=0.75)
    cvec = np.array([0.5, 1.0, 2.0])
    raw, avg = seeds.copy(), seeds.copy()
    counts = np.zeros(3, dtype=np.int64)
    for z in X:
        diff = raw - z
        sq = (diff * diff).sum(axis=1)
        r = int(np.argmin(sq))
        nrm = np.sqrt(sq[r] / d)
        if nrm == 0.0:
            continue
        u = counts[r]
        a = cvec[r] / (1.0 + 0.7 * u) ** 0.75
        raw[r] -= (a / nrm) * diff[r]
        avg[r] = ((u + 1) * avg[r] + raw[r]) / (u + 2)
        counts[r] = u + 1
    report = kmedians_fit(X, 3, gain, seeds=seeds)
    state = kmedians_stream(kmedians_init(seeds, gain), X)
    assert report.skips == state.skips == 3
    for got_avg, got_raw, got_counts in ((report.centers, report.raw_centers, report.update_counts),
                                         (state.averaged, state.raw, state.update_counts)):
        assert got_avg.tobytes() == avg.tobytes()
        assert got_raw.tobytes() == raw.tobytes()
        np.testing.assert_array_equal(got_counts, counts)


def test_fit_reports_averaged_centers_and_counters():
    rng = np.random.default_rng(34)
    X = rng.standard_normal((120, 2))
    report = kmedians_fit(Dataset(X=X), 3, GainConfig(c_gamma=1.0), restarts=4, seed=2)
    assert report.algorithm == "kmedians"
    assert report.n_queries == 120
    assert report.n_updates + report.skips == 120
    # one assignment pass plus one risk pass per restart
    assert report.distance_evals == 2 * 120 * 3 * 4
    assert report.raw_centers is not None
    assert math.isclose(
        report.risk, empirical_l1_risk(X, report.centers), rel_tol=1e-12
    )


def test_fit_deterministic_and_selects_min_risk():
    rng = np.random.default_rng(35)
    X = rng.standard_normal((80, 2))
    a = kmedians_fit(Dataset(X=X), 2, GainConfig(), restarts=6, seed=7)
    b = kmedians_fit(Dataset(X=X), 2, GainConfig(), restarts=6, seed=7)
    np.testing.assert_array_equal(a.centers, b.centers)
    single = kmedians_fit(Dataset(X=X), 2, GainConfig(), restarts=1, seed=7)
    assert a.risk <= single.risk + 1e-15


def test_risk_of_averaged_centers_improves_with_stream_length():
    # soft trend check on a long clean stream: the averaged estimate does not
    # get worse (5% slack) as more of the stream is consumed
    data = sim1_sample(Sim1Config(n=10000, epsilon=0.0, seed=3))
    X = data.X
    state = kmedians_init(X[:3].copy(), GainConfig(c_gamma=2.0))
    risks = []
    consumed = 3
    for checkpoint in (100, 1000, 10000):
        state = kmedians_stream(state, X[consumed:checkpoint])
        consumed = checkpoint
        risks.append(empirical_l1_risk(X, state.averaged))
    assert risks[1] <= risks[0] * 1.05
    assert risks[2] <= risks[1] * 1.05


def test_snapshot_resume_is_bit_exact(tmp_path):
    rng = np.random.default_rng(36)
    X = rng.standard_normal((100, 2)) * 2.0
    seeds = X[:3].copy()
    gain = GainConfig(c_gamma=1.3)

    full = kmedians_fit(Dataset(X=X), 3, gain, seeds=seeds)

    prefix = kmedians_fit(Dataset(X=X[:40]), 3, gain, seeds=seeds)
    path = tmp_path / "partial.json"
    write_model(prefix, path)
    resumed = state_from_model(read_model(path))
    done = kmedians_stream(resumed, X[40:])

    np.testing.assert_array_equal(done.raw, full.raw_centers)
    np.testing.assert_array_equal(done.averaged, full.centers)
    np.testing.assert_array_equal(done.update_counts, full.update_counts)
    assert done.skips == full.skips


@pytest.mark.parametrize("edit, message", [
    (lambda doc: {"update_counts": doc["update_counts"][:2]},
     r"^state update_counts must be a \(3,\) array of integers >= 0, got array\(\[\d+, +\d+\]\)$"),
    (lambda doc: {"update_counts": [-1, *doc["update_counts"][1:]]},
     r"^state update_counts must be a \(3,\) array of integers >= 0, got array\(\[-1, "),
    (lambda doc: {"raw_centers": doc["raw_centers"][:2]},
     r"^state averaged centers have shape \(3, 2\), raw centers \(2, 2\); they must match$"),
    (lambda doc: {"raw_centers": [[math.nan, 0.0], *doc["raw_centers"][1:]]},
     r"^state raw centers contain non-finite values$"),
    (lambda doc: {"centers": [[0.0, 1.0], [2.0]]}, r"model centers is not an array of numbers"),
    (lambda doc: {"skips": -5}, r"^state skips must be an integer >= 0, got -5$"),
    (lambda doc: {"skips": 2.5}, r"^state skips must be an integer >= 0, got 2.5$"),
    (lambda doc: {"c_gamma": [1.0, 2.0]}, r"c_gamma must be scalar or length 3, got length 2"),
    (lambda doc: {"c_gamma": "2"}, r"^model c_gamma must be positive and finite$"),
    (lambda doc: {"c_alpha": None}, r"^model c_alpha must be positive and finite$"),
    (lambda doc: {"c_alpha": "x"}, r"^model c_alpha must be positive and finite$"),
    (lambda doc: {"alpha": [0.75]}, r"^model alpha must lie in \(1/2, 1\]$"),
], ids=["short-counts", "negative-count", "short-raw", "nan-raw", "ragged-centers",
        "negative-skips", "fractional-skips", "short-c_gamma", "string-c_gamma", "null-c_alpha",
        "string-c_alpha", "list-alpha"])
def test_state_from_model_rejects_a_snapshot_no_stream_left(tmp_path, edit, message):
    # each edit of a written model file used to resume, and failed later or
    # never: an IndexError, a TypeError or NaN centers at the next stream,
    # or an n_seen that undercounts. Now read_model or state_from_model
    # rejects it and names the field.
    X = np.random.default_rng(37).standard_normal((50, 2))
    path = tmp_path / "model.json"
    write_model(kmedians_fit(X, 3, restarts=1, seed=0), path)
    state_from_model(read_model(path))
    doc = json.loads(path.read_text())
    path.write_text(json.dumps(dict(doc, **edit(doc))))
    with pytest.raises(ValueError, match=message):
        state_from_model(read_model(path))


@pytest.mark.parametrize("key", ["c_gamma", "c_alpha", "alpha"])
def test_state_from_model_names_a_missing_gain_field(tmp_path, key):
    # a model without c_alpha used to raise KeyError: 'c_alpha'
    path = tmp_path / "model.json"
    write_model(kmedians_fit(np.random.default_rng(37).standard_normal((50, 2)), 3,
                             restarts=1, seed=0), path)
    doc = json.loads(path.read_text())
    del doc[key]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=rf"^model {key} must "):
        state_from_model(read_model(path))


@pytest.mark.parametrize("d", [2, 9])
def test_stream_of_an_integer_state_runs_in_floats(d):
    # a hand-built state may hold integer centers; the stream's copy is a
    # float one, so a step is not truncated (d=2) nor refused by numpy (d=9)
    centers = np.zeros((2, d), dtype=np.int64)
    centers[1] = 4
    X = np.ones((3, d))
    X[2] = 0.5
    by_int = KMediansState(centers, centers.copy(), np.zeros(2, dtype=np.int64),
                           GainConfig(c_gamma=0.5))
    by_float = kmedians_init(centers, GainConfig(c_gamma=0.5))
    out, want = kmedians_stream(by_int, X), kmedians_stream(by_float, X)
    assert out.raw.dtype == out.averaged.dtype == np.float64
    assert _state_bytes(out) == _state_bytes(want)
    assert not np.array_equal(out.raw, centers)
    assert by_int.raw.dtype == np.int64 and not by_int.raw[0].any()


def test_resumed_current_steps_match_live_stream(tmp_path):
    # the live stream takes each gain with scalar pow; a vectorised ** of the
    # update counts can land 1 ulp away (numpy 2.4's SIMD power does so for
    # one cluster each at rng seeds 0 and 12)
    gain = GainConfig(c_gamma=1.3)
    for s in range(13):
        X = np.random.default_rng(s).standard_normal((120, 20))
        seeds = X[:5].copy()
        live = kmedians_stream(kmedians_init(seeds, gain), X)
        path = tmp_path / f"model{s}.json"
        write_model(kmedians_fit(Dataset(X=X), 5, gain, seeds=seeds), path)
        resumed = state_from_model(read_model(path))
        assert resumed.current_steps.tobytes() == live.current_steps.tobytes(), s


def _rebuild_fit(X, k, gain, *, restarts, seed, shuffle, bound_check):
    """Both fits restart by restart from the public single-stream calls."""
    n = X.shape[0]
    bound_K = float(np.sqrt((X * X).mean(axis=1)).max()) if bound_check else None
    best, skips = {}, 0
    for ridx, child in enumerate(np.random.SeedSequence(seed).spawn(restarts)):
        rng = np.random.default_rng(child)
        s = draw_seeds(X, k, rng)
        rows = X[rng.permutation(n)] if shuffle else X
        st = kmedians_stream(kmedians_init(s, gain, bound_K=bound_K), rows)
        km = kmeans_fit(rows, k, seeds=s, restarts=1)
        skips += st.skips
        for name, centers, out in (("kmedians", st.averaged, st), ("kmeans", km.centers, km)):
            risk = float(normalized_distances(X, centers).min(axis=1).mean())
            if name not in best or risk < best[name][0]:
                best[name] = (risk, ridx, out)
    return best, skips


@pytest.mark.parametrize("d", [2, 7, 8, 12, 50])
@pytest.mark.parametrize("shuffle", [False, True], ids=["ordered", "shuffled"])
@pytest.mark.parametrize(
    "gain, bound_check",
    [
        (GainConfig(c_gamma=[0.5, 1.5, 3.0]), True),
        (GainConfig(c_gamma=2.0, c_alpha=0.5, alpha=1.0), False),
    ],
    ids=["per-cluster-bounded", "alpha1"],
)
def test_fits_equal_their_restart_by_restart_rebuild(d, shuffle, gain, bound_check):
    rng = np.random.default_rng(40 + d)
    # half the rows repeat six points, so a seed often meets its own copy
    # before its cluster moved and that step is skipped
    X = np.vstack([rng.standard_normal((60, d)), rng.standard_normal((6, d))[rng.integers(0, 6, 60)]])
    X = X[rng.permutation(len(X))] * 2.0
    k, seed = 3, [d, 7]
    # R*k*d at d=2 and d=7 falls on both sides of each fit's cross-over
    # (test_one_rule_picks_every_loop), so every loop meets its rebuild
    for restarts in (2, 5, 50):
        best, skips = _rebuild_fit(X, k, gain, restarts=restarts, seed=seed, shuffle=shuffle,
                                   bound_check=bound_check)
        assert skips > 0 or restarts == 2  # two restarts may meet no copy of a seed

        med = kmedians_fit(X, k, gain, restarts=restarts, seed=seed, shuffle=shuffle,
                           bound_check=bound_check)
        risk, ridx, st = best["kmedians"]
        assert (med.restart, med.risk) == (ridx, risk)
        assert med.centers.tobytes() == st.averaged.tobytes()
        assert med.raw_centers.tobytes() == st.raw.tobytes()
        assert med.update_counts.tobytes() == st.update_counts.tobytes()
        assert med.skips == st.skips

        km = kmeans_fit(X, k, restarts=restarts, seed=seed, shuffle=shuffle)
        risk, ridx, one = best["kmeans"]
        assert (km.restart, km.risk) == (ridx, risk)
        assert km.centers.tobytes() == one.centers.tobytes()
        assert km.counts.tobytes() == one.counts.tobytes()


def _recording(loops, calls):
    """loops with every loop appending its name to `calls` before it runs."""
    def wrap(name):
        def loop(*args):
            calls.append(name)
            return loops[name](*args)
        return loop
    return {name: wrap(name) for name in loops}


def test_one_rule_picks_every_loop(monkeypatch):
    # the cross-overs come from measured (d, k, R) tables (CHANGES.md): at d <= 7
    # R*k*d = 60 for k-means and 300 for k-medians, so sim1-lowd's shape (R=10,
    # k=3, d=2) walks batched in k-means and restart by restart in k-medians; at
    # d > 7, R = 3 for k-means and 4 for k-medians, so profiles-scale's shape
    # (R=3, k=5, d=1440) walks batched in k-means only, and sim2-highd's (R=50,
    # k=3, d=200) batched in both
    assert (kmeans._BATCH_FROM, kmedians._BATCH_FROM) == ((60, 3), (300, 4))
    picks = {  # (R, k, d): (k-means loop, k-medians loop)
        (1, 3, 2): ("scalar", "scalar"),
        (1, 5, 7): ("scalar", "scalar"),
        (1, 2, 8): ("numpy", "numpy"),
        (1, 5, 200): ("numpy", "numpy"),
        (2, 2, 2): ("scalar", "scalar"),
        (5, 3, 2): ("scalar", "scalar"),
        (29, 1, 2): ("scalar", "scalar"),
        (10, 3, 2): ("batched", "scalar"),
        (2, 2, 7): ("scalar", "scalar"),
        (5, 3, 7): ("batched", "scalar"),
        (14, 3, 7): ("batched", "scalar"),
        (30, 5, 2): ("batched", "batched"),
        (5, 9, 7): ("batched", "batched"),
        (2, 2, 8): ("numpy", "numpy"),
        (3, 2, 8): ("batched", "numpy"),
        (4, 2, 8): ("batched", "batched"),
        (2, 5, 200): ("numpy", "numpy"),
        (3, 5, 200): ("batched", "numpy"),
        (4, 5, 200): ("batched", "batched"),
        (3, 5, 1440): ("batched", "numpy"),
        (50, 3, 200): ("batched", "batched"),
    }
    gain = GainConfig()
    for (R, k, d), want in picks.items():
        X = np.random.default_rng(41).standard_normal((20, d))
        # every entry point walks with the loop the one rule picks
        runs = [(kmeans, lambda: kmeans_fit(X, k, restarts=R, seed=0)),
                (kmedians, lambda: kmedians_fit(X, k, gain, restarts=R, seed=0))]
        if R == 1:
            runs += [(kmeans, lambda: kmeans_step(kmeans_init(X[:k]), X[k])),
                     (kmedians, lambda: kmedians_stream(kmedians_init(X[:k], gain), X)),
                     (kmedians, lambda: kmedians_step(kmedians_init(X[:k], gain), X[k]))]
        for module, run in runs:
            loop, calls = want[module is kmedians], []
            with monkeypatch.context() as m:
                m.setattr(module, "_LOOPS", _recording(module._LOOPS, calls))
                run()
            assert calls == ([loop] if loop == "batched" else [loop] * R), (module, R, k, d)


def test_stream_entry_points_reject_bad_input_naming_the_problem(tmp_path):
    state = kmedians_init([[0.0, 0.0], [1.0, 1.0]], GainConfig())
    X = np.random.default_rng(36).standard_normal((20, 2))
    write_model(kmeans_fit(Dataset(X=X), 2, restarts=1, seed=0), tmp_path / "km.json")
    batch = r"^observations must be an \(m, 2\) array matching the state, got shape "
    for call, message in (
        (lambda: kmedians_step(state, [1.0, 2.0, 3.0]), batch + r"\(1, 3\)$"),
        (lambda: kmedians_stream(state, np.zeros((4, 3))), batch + r"\(4, 3\)$"),
        (lambda: kmedians_stream(state, np.zeros(2)), batch + r"\(2,\)$"),
        (lambda: kmedians_stream(state, [[0.0, 0.0], [np.inf, 1.0]]),
         "^observations contain non-finite values$"),
        (lambda: kmedians_init([[0.0, 0.0], [3.0, 4.0]], GainConfig(), bound_K=1.0),
         "seed norm 3.53553 exceeds bound_K=1"),
        *((lambda K=K: kmedians_init([[0.0, 0.0], [1.0, 1.0]], GainConfig(), bound_K=K),
           f"^bound_K must be a finite number, got {re.escape(repr(K))}$")
          for K in (float("nan"), float("inf"), "5", True, [5.0])),
        (lambda: mc_gradient(np.zeros((2, 3)), X),
         r"mc_gradient: centers \(k, d\) and sample \(n, d\) must match"),
        (lambda: state_from_model(read_model(tmp_path / "km.json")),
         "model has no raw centers; only k-medians fits are resumable"),
    ):
        with pytest.raises(ValueError, match=message):
            call()


_SEEDS3 = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
_AVG2 = r"^state averaged centers have shape \(2, 2\), raw centers \(3, 2\); they must match$"
_COUNTS2 = re.escape("state update_counts must be a (3,) array of integers >= 0, got array([0, 0])")


def _kmedians_state(**fields):
    return replace(kmedians_init(_SEEDS3, GainConfig()), **fields)


def _with(A, index, value):
    """A copy of A with A[index] = value."""
    A = A.copy()
    A[index] = value
    return A


@pytest.mark.parametrize("call, message", [
    (lambda X: kmedians_stream(_kmedians_state(averaged=_SEEDS3[:2].copy()), X), _AVG2),
    (lambda X: kmedians_step(_kmedians_state(averaged=_SEEDS3[:2].copy()), X[0]), _AVG2),
    (lambda X: kmedians_stream(_kmedians_state(update_counts=np.zeros(2, dtype=np.int64)), X),
     _COUNTS2),
    (lambda X: kmedians_step(_kmedians_state(update_counts=np.zeros(2, dtype=np.int64)), X[0]),
     _COUNTS2),
    (lambda X: kmeans_step(KMeansState(_SEEDS3.copy(), np.ones(2, dtype=np.int64)), X[0]),
     re.escape("state counts must be a (3,) array of integers >= 1, got array([1, 1])")),
    *((lambda X, K=K: kmedians_stream(_kmedians_state(bound_K=K), X),
       f"^bound_K must be a finite number, got {re.escape(repr(K))}$")
      for K in (math.nan, math.inf, "5")),
    (lambda X: kmedians_step(_kmedians_state(bound_K=math.nan), X[0]),
     "^bound_K must be a finite number, got nan$"),
    *((lambda X, u=u: kmedians_stream(_kmedians_state(update_counts=np.array(u)), X),
       re.escape(f"state update_counts must be a (3,) array of integers >= 0, "
                 f"got {np.array(u)!r}"))
      for u in ([-1, 0, 0], [-2, 0, 0])),
    (lambda X: kmedians_step(_kmedians_state(update_counts=np.array([0, 3, -1])), X[0]),
     re.escape("state update_counts must be a (3,) array of integers >= 0, "
               "got array([ 0,  3, -1])")),
    (lambda X: kmedians_stream(_kmedians_state(skips=-5), X),
     "^state skips must be an integer >= 0, got -5$"),
    (lambda X: kmedians_step(_kmedians_state(skips=-1), X[0]),
     "^state skips must be an integer >= 0, got -1$"),
    (lambda X: kmeans_step(KMeansState(_SEEDS3.copy(), np.array([1, -1, 1])), X[0]),
     re.escape("state counts must be a (3,) array of integers >= 1, got array([ 1, -1,  1])")),
    (lambda X: kmeans_step(KMeansState(np.eye(3, 9), np.array([-1, 0, 1])), np.zeros(9)),
     re.escape("state counts must be a (3,) array of integers >= 1, got array([-1,  0,  1])")),
    (lambda X: kmedians_stream(_kmedians_state(raw=_with(_SEEDS3, (1, 0), math.inf)), X),
     "^state raw centers contain non-finite values$"),
    (lambda X: kmedians_step(_kmedians_state(averaged=_with(_SEEDS3, (2, 1), math.nan)), X[0]),
     "^state averaged centers contain non-finite values$"),
    (lambda X: kmedians_stream(replace(kmedians_init(np.eye(3, 40), GainConfig()),
                                       raw=_with(np.eye(3, 40), (0, 39), -math.inf)),
                               np.zeros((4, 40))),
     "^state raw centers contain non-finite values$"),
    (lambda X: kmedians_stream(_kmedians_state(update_counts=np.array([0.5, 0.0, 0.0])), X),
     re.escape("state update_counts must be a (3,) array of integers >= 0, "
               "got array([0.5, 0. , 0. ])")),
    (lambda X: kmeans_step(KMeansState(_with(_SEEDS3, (0, 0), math.nan), np.ones(3, dtype=int)),
                           X[0]),
     "^state centers contain non-finite values$"),
    (lambda X: kmeans_step(KMeansState(_SEEDS3[:2].copy(), np.array([1.5, 2.0])), X[0]),
     re.escape("state counts must be a (2,) array of integers >= 1, got array([1.5, 2. ])")),
    *((lambda X, v=v: kmedians_stream(_kmedians_state(skips=v), X),
       f"^state skips must be an integer >= 0, got {v}$") for v in (2.5, True)),
    *((lambda X, e=e: kmedians_stream(_kmedians_state(**e), X),
       r"^state raw centers must be a \(k, d\) array with k >= 1, d >= 1$")
      for e in ({"raw": np.zeros(2)},
                {"raw": np.zeros((0, 2)), "averaged": np.zeros((0, 2)),
                 "update_counts": np.zeros(0, dtype=np.int64)})),
    (lambda X: kmedians_stream(_kmedians_state(update_counts=[0, 0, 0]), X),
     re.escape("state update_counts must be a (3,) array of integers >= 0, got [0, 0, 0]")),
    (lambda X: kmedians_stream(_kmedians_state(gain=None), X),
     "^state gain must be a GainConfig, got None$"),
    *((lambda X, c=c: kmeans_step(KMeansState(c, np.ones(len(c), dtype=np.int64)), X[0]),
       r"^state centers must be a \(k, d\) array with k >= 1, d >= 1$")
      for c in (np.zeros(2), np.zeros((0, 2)))),
    (lambda X: kmeans_step(KMeansState(_SEEDS3.copy(), [1, 1, 1]), X[0]),
     re.escape("state counts must be a (3,) array of integers >= 1, got [1, 1, 1]")),
], ids=["stream-averaged", "step-averaged", "stream-update_counts", "step-update_counts",
        "kmeans_step-counts", "stream-bound-nan", "stream-bound-inf", "stream-bound-str",
        "step-bound-nan", "stream-update_counts-minus-1", "stream-update_counts-minus-2",
        "step-update_counts-negative", "stream-skips-negative", "step-skips-negative",
        "kmeans_step-negative-count-d2", "kmeans_step-count-below-1-d9", "stream-raw-inf",
        "step-averaged-nan", "stream-raw-inf-d40", "stream-update_counts-float",
        "kmeans_step-centers-nan", "kmeans_step-counts-float", "stream-skips-fraction",
        "stream-skips-bool", "stream-raw-1d", "stream-raw-empty", "stream-update_counts-list",
        "stream-gain-none", "kmeans_step-centers-1d", "kmeans_step-centers-empty",
        "kmeans_step-counts-list"])
def test_stream_entry_points_reject_a_hand_built_state_of_mismatched_shapes(call, message):
    # 3 centers with 2 averaged rows, 2 update counts or 2 k-means counts used to
    # fail with an IndexError inside the update loop; a NaN or inf bound_K
    # streamed with the bound check off, and "5" failed inside numpy; a k-means
    # count of -1 raised ZeroDivisionError (d = 2) or left NaN centers (d = 9);
    # a k-medians update count of -1 or -2 raised a float or complex
    # ZeroDivisionError in the gain, and skips of -5 streamed on with n_seen short;
    # inf or NaN centers streamed on and stayed in the result, and k-means counts
    # of [1.5, 2.0] came back as float counts [2.5, 2.0]; skips of 2.5 or True
    # streamed on with a float or bool n_seen; 1-d centers raised IndexError,
    # (0, 2) centers IndexError or "min() arg is an empty sequence", and list
    # counts or a gain of None AttributeError
    X = np.random.default_rng(37).standard_normal((200, 2)) * 3.0
    with pytest.raises(ValueError, match=message):
        call(X)


_MODEL_KEYS = {"raw": "raw_centers", "averaged": "centers"}  # state field -> model key


@pytest.mark.parametrize("field, value", [
    ("update_counts", [0, 0]),
    ("update_counts", [-1, 0, 0]),
    ("skips", 2.5),
    ("skips", True),
    ("skips", -1),
    ("raw", [[math.nan, 0.0], [4.0, 0.0], [0.0, 4.0]]),
    ("averaged", [[0.0, 0.0], [4.0, 0.0]]),
    ("c_gamma", [1.0, 2.0]),
], ids=["short-counts", "negative-count", "fractional-skips", "bool-skips", "negative-skips",
        "nan-raw", "short-averaged", "short-c_gamma"])
def test_stream_and_snapshot_refuse_a_state_by_one_rule(tmp_path, field, value):
    # kmedians_stream and state_from_model each held their own copy of these
    # rules, and the copies disagreed (skips of 2.5 or True streamed on but did
    # not resume); both now call one check, so each edit fails both alike
    path = tmp_path / "model.json"
    write_model(kmedians_fit(np.random.default_rng(37).standard_normal((50, 2)), 3,
                             restarts=1, seed=0), path)
    doc = json.loads(path.read_text())
    path.write_text(json.dumps(dict(doc, **{_MODEL_KEYS.get(field, field): value})))
    if field == "c_gamma":
        edit = {"gain": GainConfig(c_gamma=value)}
    else:
        edit = {field: value if field == "skips" else np.array(value)}
    with pytest.raises(ValueError) as by_stream:
        kmedians_stream(_kmedians_state(**edit), np.zeros((1, 2)))
    with pytest.raises(ValueError) as by_snapshot:
        state_from_model(read_model(path))
    assert str(by_stream.value) == str(by_snapshot.value)
    assert re.search(rf"\b{field}\b", str(by_snapshot.value))


@pytest.mark.parametrize("fit", [kmeans_fit, kmedians_fit], ids=["kmeans", "kmedians"])
def test_fits_reject_zero_restarts_even_with_seeds(fit):
    X = np.random.default_rng(34).standard_normal((20, 3))
    with pytest.raises(ValueError, match="restarts must be >= 1"):
        fit(Dataset(X=X), 2, restarts=0)
    with pytest.raises(ValueError, match="restarts must be >= 1"):
        fit(Dataset(X=X), 2, seeds=X[:2], restarts=0)
    # the default restarts=10 with explicit seeds is one run on those seeds
    assert fit(Dataset(X=X), 2, seeds=X[:2]).restarts == 1


@pytest.mark.parametrize("fit, restarts", [
    (kmeans_fit, True),
    (lambda data, k, **kw: kmedians_fit(data, k, GainConfig(c_gamma=0.5), **kw), True),
    (kmedians_fit_data_driven, True),
    (pam_fit, False),
], ids=["kmeans", "kmedians", "kmedians-auto", "pam"])
def test_fits_reject_a_non_integer_k_or_restarts_by_name(fit, restarts):
    # each used to fail inside numpy or math.comb, or (k=True) run as k = 1
    X = np.random.default_rng(39).standard_normal((20, 2))
    for bad in (2.5, True, "3", np.float64(2.0)):
        with pytest.raises(ValueError, match=re.escape(f"k must be an integer, got {bad!r}")):
            fit(X, bad)
        if restarts:
            with pytest.raises(ValueError,
                               match=re.escape(f"restarts must be an integer, got {bad!r}")):
                fit(X, 2, restarts=bad)
    for k in (np.int64(2), np.int32(2)):  # numpy integers are integers
        assert fit(X, k).k == 2
    if restarts:
        assert fit(X, 2, restarts=np.int64(2)).restarts == 2


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "start",
    [
        lambda X, s: kmeans_fit(Dataset(X=X), 2, seeds=s),
        lambda X, s: kmedians_fit(Dataset(X=X), 2, seeds=s),
        lambda X, s: kmeans_init(s),
        lambda X, s: kmedians_init(s, GainConfig()),
    ],
    ids=["kmeans_fit", "kmedians_fit", "kmeans_init", "kmedians_init"],
)
def test_non_finite_seeds_are_named(start, bad):
    X = np.random.default_rng(35).standard_normal((20, 3))
    seeds = X[:2].copy()
    seeds[1, 2] = bad
    with pytest.raises(ValueError, match="seeds contain non-finite values"):
        start(X, seeds)


@pytest.mark.parametrize("fit", [kmeans_fit, kmedians_fit], ids=["kmeans", "kmedians"])
@pytest.mark.parametrize(
    "seed_rows",
    [
        lambda X: X[:3],                                # too many rows
        lambda X: X[:2, :2],                            # too few columns
        lambda X: np.hstack([X[:2], X[:2, :1] + 1.0]),  # too many columns
    ],
    ids=["rows", "narrow", "wide"],
)
def test_fit_rejects_explicit_seeds_of_wrong_shape(fit, seed_rows):
    X = np.random.default_rng(33).standard_normal((20, 3))
    seeds = seed_rows(X)
    with pytest.raises(ValueError, match=re.escape(f"{seeds.shape}") + ".*" + re.escape("(2, 3)")):
        fit(Dataset(X=X), 2, seeds=seeds)


def test_data_driven_uses_kmeans_risk_as_gain():
    data = sim1_sample(Sim1Config(n=200, epsilon=0.0, seed=4))
    km = kmeans_fit(data, 3, restarts=5, seed=17)
    auto = kmedians_fit_data_driven(data, 3, restarts=5, seed=17)
    assert auto.algorithm == "kmedians-auto"
    assert auto.c_gamma == km.risk
    assert auto.rng_seed == 17
    assert auto.c_alpha == 1.0 and auto.alpha == 0.75


def test_data_driven_degenerate_zero_risk():
    # n == k distinct points: k-means reproduces them exactly, risk 0, and the
    # k-medians stage is skipped
    X = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
    auto = kmedians_fit_data_driven(Dataset(X=X), 3, restarts=3, seed=1)
    assert auto.algorithm == "kmedians-auto"
    assert auto.c_gamma == 0.0
    assert auto.risk == 0.0
    assert sorted(map(tuple, auto.centers)) == sorted(map(tuple, X))


def test_mc_gradient_symmetry_cancellation():
    x = np.array([[1.0, 2.0]])
    sample = np.array([[2.0, 3.0], [0.0, 1.0]])  # x +/- (1,1)
    grad, skipped = mc_gradient(x, sample)
    np.testing.assert_allclose(grad, [[0.0, 0.0]], atol=1e-15)
    assert skipped == 0


def test_mc_gradient_single_atom_has_unit_norm():
    x = np.array([[0.0, 0.0]])
    p = np.array([3.0, -1.0])
    sample = np.tile(p, (7, 1))
    grad, skipped = mc_gradient(x, sample)
    assert skipped == 0
    assert math.isclose(np.sqrt(np.mean(grad[0] * grad[0])), 1.0, rel_tol=1e-12)
    v = x[0] - p
    direction = v / np.sqrt(np.mean(v * v))
    np.testing.assert_allclose(grad[0], direction, rtol=1e-12)


def test_mc_gradient_counts_skips():
    x = np.array([[0.0, 0.0], [5.0, 5.0]])
    sample = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0], [0.0, 0.0]])
    _, skipped = mc_gradient(x, sample)
    assert skipped == 3


def test_mc_gradient_matches_finite_differences():
    # the gradient of the empirical risk in coordinate t is grad[t]/d, so the
    # central difference times d must reproduce mc_gradient
    data = sim1_sample(Sim1Config(n=5000, epsilon=0.0, seed=5))
    X = data.X
    rng = np.random.default_rng(37)
    centers = rng.uniform(-5.0, 5.0, size=(3, 2))
    grad, skipped = mc_gradient(centers, X)
    assert skipped == 0
    h = 1e-5
    for r in range(3):
        for t in range(2):
            up = centers.copy()
            dn = centers.copy()
            up[r, t] += h
            dn[r, t] -= h
            fd = (empirical_l1_risk(X, up) - empirical_l1_risk(X, dn)) / (2 * h)
            assert abs(grad[r, t] - 2 * fd) < 1e-4  # d = 2


def test_averaged_recursion_approaches_a_stationary_point():
    # The paper's theorem: the averaged recursion converges almost surely to a
    # stationary point of the L1 loss. On atom-free sim1 the largest entry of
    # the gradient, estimated on a fresh sample of N rows, must fall as the fit
    # sees more rows, and at the larger n the averaged centers must be closer
    # to stationary than the raw iterate. The bounds are set in units of the
    # Monte Carlo standard error of an entry, sd(per-row pull) / sqrt(N),
    # about 0.001 at N = 4e5: a drop of more than 3 of them is not test-sample
    # noise, and an entry within 4 of them of zero is stationary as far as
    # this sample can tell.
    test = sim1_sample(Sim1Config(n=400_000, epsilon=0.0, seed=99)).X
    largest, se, risk = {}, [], {}
    for n in (20_000, 200_000):
        data = sim1_sample(Sim1Config(n=n, epsilon=0.0, seed=5))
        report = kmedians_fit(data, 3, GainConfig(c_gamma=2.0), restarts=3, seed=5)
        for kind, C in (("averaged", report.centers), ("raw", report.raw_centers)):
            grad, skipped = mc_gradient(C, test)
            assert skipped == 0
            largest[kind, n] = float(np.abs(grad).max())
            risk[kind, n] = empirical_l1_risk(test, C)
            # grad[j] is the mean over all N rows of the pull toward center j,
            # which is zero on the rows assigned elsewhere
            D = normalized_distances(test, C)
            r = D.argmin(axis=1)
            pulls = (C[r] - test) / D[np.arange(len(r)), r][:, None]
            se += [np.where((r == j)[:, None], pulls, 0.0).std(axis=0).max() / math.sqrt(len(r))
                   for j in range(3)]
    se = max(se)
    for kind in ("averaged", "raw"):
        assert largest[kind, 20_000] - largest[kind, 200_000] > 3 * se, (largest, se)
    assert largest["averaged", 200_000] < 4 * se, (largest, se)
    assert largest["averaged", 200_000] < largest["raw", 200_000], largest
    assert risk["averaged", 200_000] < risk["raw", 200_000], risk
