"""Tests for the averaged stochastic-gradient k-medians."""

import math
import re

import numpy as np
import pytest

from seqclust import (
    Dataset,
    GainConfig,
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
    read_model,
    sim1_sample,
    state_from_model,
    write_model,
)
from seqclust import kmeans, kmedians
from seqclust.kmedians import _consume_restarts

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
    assert out.max_step == 0.5
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
        # bound_check asserts |raw| <= K + 2*max_step at every single step
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


@pytest.mark.parametrize("d, restarts, message", [
    (2, 1, "boundedness violated: |raw[0]|=2.74725504 > 0.707106781 + 2*1"),
    (12, 1, "boundedness violated: |raw[0]|=2.3288234 > 0.288675135 + 2*1"),
    (12, 3, "boundedness violated in restart 1: |raw[0]|=2.3288234 > 0.288675135 + 2*1"),
], ids=["scalar", "numpy", "batched"])
def test_boundedness_violation_names_the_largest_step_taken(d, restarts, message):
    # bound_K is the seeds' own norm and every row lies far outside it. One row
    # moves the c=1 cluster, then the c=0.5 cluster walks off; the c=2 cluster
    # never moves, so the bound's max_step is 1, not the largest c_gamma.
    seeds = np.zeros((3, d))
    seeds[0, 0], seeds[1, 1], seeds[2, 0] = -1.0, 1.0, 1.0
    X = np.zeros((40, d))
    X[0, 0], X[1:, 0] = 50.0, -50.0
    gain, K = GainConfig(c_gamma=[0.5, 2.0, 1.0]), float(np.sqrt(np.mean(seeds[0] * seeds[0])))
    with pytest.raises(AssertionError) as err:
        if restarts == 1:
            kmedians_stream(kmedians_init(seeds, gain, bound_K=K), X)
        else:
            # restarts 0 and 2 send the first row to the c=2 cluster, which
            # widens their bound, so restart 1 trips first and is named
            orders = ((0, 2, 1), (0, 1, 2), (0, 2, 1))
            _consume_restarts([kmedians_init(seeds[list(o)], gain, bound_K=K) for o in orders],
                              X, None)
    assert str(err.value) == message


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
        assert resumed.max_step == live.max_step


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
    # the cross-overs come from a measured (d, k, R) table (CHANGES.md): R*k*d
    # = 60 for k-means and 300 for k-medians, so sim1-lowd's shape (R=10, k=3,
    # d=2) walks batched in k-means and restart by restart in k-medians
    assert (kmeans._BATCH_FROM, kmedians._BATCH_FROM) == (60, 300)
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
        (2, 2, 8): ("batched", "batched"),
        (3, 5, 200): ("batched", "batched"),
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
    batch = r"kmedians_stream: expected \(m, d\) batch matching the state"
    for call, message in (
        (lambda: kmedians_step(state, [1.0, 2.0, 3.0]), "kmedians_step: dimension mismatch"),
        (lambda: kmedians_stream(state, np.zeros((4, 3))), batch),
        (lambda: kmedians_stream(state, np.zeros(2)), batch),
        (lambda: kmedians_stream(state, [[0.0, 0.0], [np.inf, 1.0]]),
         "kmedians_stream: non-finite observations"),
        (lambda: kmedians_init([[0.0, 0.0], [3.0, 4.0]], GainConfig(), bound_K=1.0),
         "seed norm 3.53553 exceeds bound_K=1"),
        (lambda: mc_gradient(np.zeros((2, 3)), X),
         r"mc_gradient: centers \(k, d\) and sample \(n, d\) must match"),
        (lambda: state_from_model(read_model(tmp_path / "km.json")),
         "model has no raw centers; only k-medians fits are resumable"),
    ):
        with pytest.raises(ValueError, match=message):
            call()


@pytest.mark.parametrize("fit", [kmeans_fit, kmedians_fit], ids=["kmeans", "kmedians"])
def test_fits_reject_zero_restarts_even_with_seeds(fit):
    X = np.random.default_rng(34).standard_normal((20, 3))
    with pytest.raises(ValueError, match="restarts must be >= 1"):
        fit(Dataset(X=X), 2, restarts=0)
    with pytest.raises(ValueError, match="restarts must be >= 1"):
        fit(Dataset(X=X), 2, seeds=X[:2], restarts=0)
    # the default restarts=10 with explicit seeds is one run on those seeds
    assert fit(Dataset(X=X), 2, seeds=X[:2]).restarts == 1


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
