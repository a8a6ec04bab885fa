"""Tests for the benchmark harness: spec validation, grid expansion,
determinism of results files, and the timing/CER variants."""

import json
import re

import numpy as np
import pytest

from seqclust import cer, kmeans_fit
from seqclust.bench import (
    PRESET_NAMES,
    ExperimentSpec,
    load_experiment,
    run_experiment,
)


def _tiny_sweep_spec(**overrides):
    base = dict(
        name="tiny",
        kind="sweep",
        generator="sim1",
        generator_params={"n": 60, "epsilon": 0.05},
        k=3,
        algorithms=["kmeans", "kmedians", "pam"],
        restarts=2,
        replications=2,
        c_grid=[1.0, 2.0],
        seed=7,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def test_validate_rejects_bad_specs():
    with pytest.raises(ValueError, match="replications"):
        _tiny_sweep_spec(replications=0).validate()
    with pytest.raises(ValueError, match="c_grid"):
        _tiny_sweep_spec(c_grid=None).validate()
    for unknown in ("dbscan", "tkmeans"):
        with pytest.raises(ValueError, match="unknown algorithm"):
            _tiny_sweep_spec(algorithms=["kmeans", unknown]).validate()
    with pytest.raises(ValueError, match="unknown experiment kind"):
        _tiny_sweep_spec(kind="speedup").validate()
    with pytest.raises(ValueError, match="unknown generator"):
        _tiny_sweep_spec(generator="blobs").validate()
    with pytest.raises(ValueError, match="labels"):
        _tiny_sweep_spec(kind="cer", generator="profiles",
                         generator_params={"n": 50, "d": 30},
                         algorithms=["kmeans"]).validate()
    with pytest.raises(ValueError, match="d"):
        _tiny_sweep_spec(generator="sim2",
                         generator_params={"n": 60}).validate()
    with pytest.raises(ValueError, match="positive"):
        _tiny_sweep_spec(c_grid=[1.0, -2.0]).validate()
    with pytest.raises(ValueError, match="empty algorithm list"):
        _tiny_sweep_spec(algorithms=[]).validate()
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        _tiny_sweep_spec(seed=-1).validate()
    with pytest.raises(ValueError, match=r"generator_params must set n \(or provide sizes\)"):
        _tiny_sweep_spec(generator_params={"epsilon": 0.05}).validate()


def test_sweep_row_grid_and_statuses():
    table = run_experiment(_tiny_sweep_spec())
    # per replication: kmeans 1 + kmedians len(c_grid) + pam 1
    assert len(table.rows) == 2 * (1 + 2 + 1)
    by_algo = {}
    for r in table.rows:
        by_algo.setdefault(r["algorithm"], []).append(r)
    assert sorted(by_algo) == ["kmeans", "kmedians", "pam"]
    for algo in ("kmeans", "kmedians", "pam"):
        for r in by_algo[algo]:
            assert r["status"] == "ok"
            assert np.isfinite(r["risk"]) and r["risk"] > 0
            assert r["distance_evals"] > 0
    cs = sorted(r["c_gamma"] for r in by_algo["kmedians"] if r["replication"] == 0)
    assert cs == [1.0, 2.0]
    assert table.failed_cells() == 0


def test_sweep_is_deterministic_and_order_free(tmp_path):
    t1 = run_experiment(_tiny_sweep_spec())
    t2 = run_experiment(_tiny_sweep_spec())
    t1.write(tmp_path / "a")
    t2.write(tmp_path / "b")
    p1, p2 = tmp_path / "a" / "tiny_results.csv", tmp_path / "b" / "tiny_results.csv"
    assert p1.read_bytes() == p2.read_bytes()
    # worker count must not change any result
    t3 = run_experiment(_tiny_sweep_spec(), jobs=2)
    t3.write(tmp_path / "c")
    p3 = tmp_path / "c" / "tiny_results.csv"
    assert p3.read_bytes() == p1.read_bytes()


def test_results_files_hold_no_wall_times(tmp_path):
    table = run_experiment(_tiny_sweep_spec(algorithms=["kmeans"], replications=1))
    paths = table.write(tmp_path)
    assert [p.split("/")[-1] for p in paths] == [
        "tiny_results.csv", "tiny_summary.json"]
    text = (tmp_path / "tiny_results.csv").read_text()
    assert "wall" not in text
    doc = json.loads((tmp_path / "tiny_summary.json").read_text())
    assert "wall" not in json.dumps(doc)
    assert doc["cells"] == 1
    assert doc["failed_cells"] == 0
    assert doc["groups"][0]["algorithm"] == "kmeans"
    assert doc["groups"][0]["count"] == 1
    assert doc["groups"][0]["risk_mean"] > 0


def test_timing_spec_writes_separate_timings_csv(tmp_path):
    spec = _tiny_sweep_spec(name="tim", algorithms=["kmeans"], replications=1,
                            measure_time=True)
    table = run_experiment(spec)
    assert len(table.timings) == 1
    rec = table.timings[0]
    assert rec["wall_median"] > 0
    assert len(rec["wall_runs"].split(";")) == 5
    paths = table.write(tmp_path)
    assert (tmp_path / "tim_timings.csv").exists()
    assert str(tmp_path / "tim_timings.csv") in paths
    assert "wall_median" in (tmp_path / "tim_timings.csv").read_text()
    assert "wall" not in (tmp_path / "tim_results.csv").read_text()


def test_sizes_and_ks_grids_expand():
    spec = _tiny_sweep_spec(algorithms=["kmeans"], replications=1,
                            sizes=[30, 40], ks=[2, 3])
    table = run_experiment(spec)
    assert len(table.rows) == 4
    seen = sorted((r["n"], r["k"]) for r in table.rows)
    assert seen == [(30, 2), (30, 3), (40, 2), (40, 3)]


def test_failing_cell_is_recorded_not_fatal():
    # n=4 < k=5 makes every fit raise; the run must still complete
    spec = _tiny_sweep_spec(algorithms=["kmeans"], replications=1, k=5,
                            generator_params={"n": 4, "epsilon": 0.0})
    table = run_experiment(spec)
    assert len(table.rows) == 1
    assert table.rows[0]["status"].startswith("error:")
    assert table.failed_cells() == 1
    assert table.summary()["failed_cells"] == 1


def test_cer_experiment_scores_against_labels():
    spec = ExperimentSpec(
        name="tinycer", kind="cer", generator="sim1",
        generator_params={"n": 80, "epsilon": 0.0}, k=3,
        algorithms=["kmeans", "pam"], restarts=3, replications=2, seed=9)
    table = run_experiment(spec)
    assert len(table.rows) == 4
    for r in table.rows:
        assert r["status"] == "ok"
        assert 0.0 <= r["cer"] <= 1.0
    summ = table.summary()
    algos = {g["algorithm"] for g in summ["groups"]}
    assert algos == {"kmeans", "pam"}
    for g in summ["groups"]:
        assert "cer_median" in g and "cer_q1" in g and "cer_q3" in g


def test_run_experiment_dispatches_on_kind():
    table = run_experiment(_tiny_sweep_spec(algorithms=["kmeans"],
                                            replications=1))
    assert table.rows[0]["kind"] == "sweep"


def test_presets_build_and_reject_unknown():
    assert "fig3" in PRESET_NAMES and "table1" in PRESET_NAMES
    spec = load_experiment("fig3")
    assert spec.kind == "sweep"
    assert spec.generator == "sim1"
    assert spec.generator_params["n"] == 250
    assert spec.generator_params["epsilon"] == 0.05
    assert spec.k == 3
    assert spec.replications == 50
    assert 1.0 in spec.c_grid
    small = load_experiment("fig3", replications=2, restarts=1, c_grid=[0.5])
    assert small.replications == 2 and small.restarts == 1
    assert small.c_grid == [0.5]
    tim = load_experiment("table1")
    assert tim.measure_time and tim.sizes and tim.ks
    with pytest.raises(ValueError, match="neither a preset"):
        load_experiment("fig99")
    with pytest.raises(ValueError, match="not supported"):
        load_experiment("fig3", generator="sim2")


def test_load_spec_file_round_trip(tmp_path):
    doc = dict(name="fromfile", kind="sweep", generator="sim1",
               generator_params={"n": 50, "epsilon": 0.0}, k=2,
               algorithms=["kmeans"], restarts=2, replications=1, seed=3)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    spec = load_experiment(path)
    assert spec.name == "fromfile"
    assert spec.k == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([1, 2]))
    with pytest.raises(ValueError, match="JSON object"):
        load_experiment(bad)
    bad2 = tmp_path / "bad2.json"
    bad2.write_text(json.dumps(dict(doc, bogus_field=1)))
    with pytest.raises(ValueError, match="bad spec fields"):
        load_experiment(bad2)


def test_perfectly_separated_clusters_reach_zero_cer():
    rng = np.random.default_rng(17)
    centers = np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 100.0]])
    labels = rng.integers(0, 3, size=150)
    X = centers[labels] + 0.1 * rng.standard_normal((150, 2))
    report = kmeans_fit(X, 3, restarts=5, seed=21)
    assert cer(report.assignments, labels) == 0.0


def test_validate_rejects_sizes_and_ks_below_one():
    for grid, values in (("sizes", [250, 0]), ("ks", [0]), ("ks", [2, -3]),
                         ("sizes", [250, "300"])):
        with pytest.raises(ValueError,
                           match=f"{grid} entries must be integers >= 1, got {values[-1]!r}"):
            _tiny_sweep_spec(**{grid: values}).validate()


def test_validate_rejects_containers_of_the_wrong_type():
    for field, value, message in (
            ("sizes", 5, "sizes must be a list, got 5"),
            ("ks", 3, "ks must be a list, got 3"),
            ("c_grid", 2, "c_grid must be a list, got 2"),
            ("algorithms", "kmeans", "algorithms must be a list, got 'kmeans'"),
            ("name", 5, "name must be a string, got 5"),
            ("kind", ["sweep"], "kind must be a string, got ['sweep']"),
            ("generator", ["sim1"], "generator must be a string, got ['sim1']"),
            ("generator_params", [1], "generator_params must be an object, got [1]")):
        with pytest.raises(ValueError, match=re.escape(message)):
            _tiny_sweep_spec(**{field: value}).validate()


def test_numpy_integers_in_a_spec_write_the_same_files(tmp_path):
    for name, reps in (("int", 1), ("int64", np.int64(1))):
        run_experiment(_tiny_sweep_spec(replications=reps)).write(tmp_path / name)
    for name in ("tiny_results.csv", "tiny_summary.json"):
        assert (tmp_path / "int" / name).read_bytes() == (tmp_path / "int64" / name).read_bytes()


def test_run_experiment_rejects_jobs_below_one():
    for jobs in (0, -2):
        with pytest.raises(ValueError, match=f"jobs must be >= 1, got {jobs}"):
            run_experiment(_tiny_sweep_spec(algorithms=["kmeans"], replications=1), jobs=jobs)
