"""End-to-end tests for the command line interface. Commands run in-process
through main(argv) so stdout and exit codes can be asserted; one smoke test
runs the CLI in a subprocess: the installed `seqclust` console script when it
is on PATH, and `python -m seqclust` from the imported package otherwise."""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np

import seqclust
from seqclust import (GainConfig, Sim1Config, Sim2Config, kmeans_fit, kmedians_fit,
                      kmedians_fit_data_driven, pam_fit, profiles_sample, read_csv,
                      save_dataset, sim1_sample, sim2_sample, write_model)
from seqclust import bench
from seqclust.bench import ExperimentSpec, run_experiment
from seqclust.cli import build_parser, main
from seqclust.datagen import GENERATORS


def _lines_to_map(text):
    out = {}
    for line in text.strip().splitlines():
        if "=" in line:
            key, _, val = line.partition("=")
            out[key] = val
    return out


def _gen_sim1(tmp_path, n=120, epsilon=0.05, seed=4, name="data.csv"):
    path = tmp_path / name
    rc = main(["generate", "sim1", "--n", str(n), "--epsilon", str(epsilon),
               "--seed", str(seed), "-o", str(path)])
    assert rc == 0
    return path


def test_generate_sim1_writes_csv_and_sidecar(tmp_path, capsys):
    path = _gen_sim1(tmp_path)
    out = capsys.readouterr().out
    assert f"wrote {path}" in out
    data = read_csv(path)
    assert data.n == 120 and data.d == 2
    assert data.labels is not None and data.outlier_flags is not None
    sidecar = json.loads((tmp_path / "data.json").read_text())
    assert sidecar["generator"] == "sim1"
    assert sidecar["params"]["epsilon"] == 0.05
    assert sidecar["n"] == 120 and sidecar["d"] == 2


def test_generate_sim2_and_profiles(tmp_path):
    p2 = tmp_path / "s2.csv"
    assert main(["generate", "sim2", "--n", "40", "--d", "12", "--epsilon",
                 "0.1", "--seed", "1", "-o", str(p2)]) == 0
    d2 = read_csv(p2)
    assert d2.n == 40 and d2.d == 12 and d2.labels is not None
    p3 = tmp_path / "pr.csv"
    assert main(["generate", "profiles", "--n", "25", "--d", "30",
                 "--seed", "2", "-o", str(p3)]) == 0
    d3 = read_csv(p3)
    assert d3.n == 25 and d3.d == 30 and d3.labels is None
    assert set(np.unique(d3.X)) <= {0.0, 1.0}


def test_generate_rejects_bad_epsilon(tmp_path, capsys):
    rc = main(["generate", "sim1", "--n", "20", "--epsilon", "2.0",
               "-o", str(tmp_path / "x.csv")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_fit_kmeans_writes_model_without_wall_time(tmp_path, capsys):
    data = _gen_sim1(tmp_path)
    model = tmp_path / "model.json"
    rc = main(["fit", "--algorithm", "kmeans", "--data", str(data), "--k", "3",
               "--restarts", "4", "--seed", "11", "-o", str(model)])
    assert rc == 0
    got = _lines_to_map(capsys.readouterr().out)
    assert got["algorithm"] == "kmeans"
    assert got["k"] == "3"
    assert float(got["risk"]) > 0
    text = model.read_text()
    assert "wall_time" not in text
    doc = json.loads(text)
    assert doc["algorithm"] == "kmeans"
    assert len(doc["centers"]) == 3


def test_fit_kmedians_requires_c_gamma(tmp_path, capsys):
    data = _gen_sim1(tmp_path)
    rc = main(["fit", "--algorithm", "kmedians", "--data", str(data),
               "--k", "3"])
    assert rc == 1
    assert "--c-gamma" in capsys.readouterr().err
    rc = main(["fit", "--algorithm", "kmedians", "--data", str(data),
               "--k", "3", "--c-gamma", "2.0", "--seed", "5"])
    assert rc == 0
    got = _lines_to_map(capsys.readouterr().out)
    assert got["algorithm"] == "kmedians"
    assert int(got["skips"]) + int(got["updates"]) == 120


def test_fit_kmedians_rejects_a_bad_gain(tmp_path, capsys):
    data = _gen_sim1(tmp_path)
    capsys.readouterr()
    for flags, problem in ((["--c-gamma", "-1"], "c_gamma must be positive and finite"),
                           (["--c-gamma", "1", "--alpha", "0.5"], "alpha must lie in (1/2, 1]")):
        rc = main(["fit", "--algorithm", "kmedians", "--data", str(data), "--k", "3", *flags])
        assert rc == 1, flags
        assert capsys.readouterr().err == f"error: {problem}\n"


def test_fit_auto_gain_matches_pilot_kmeans_risk(tmp_path, capsys):
    data = _gen_sim1(tmp_path)
    rc = main(["fit", "--algorithm", "kmeans", "--data", str(data), "--k", "3",
               "--restarts", "6", "--seed", "13"])
    assert rc == 0
    kmeans_risk = float(_lines_to_map(capsys.readouterr().out)["risk"])
    rc = main(["fit", "--algorithm", "kmedians-auto", "--data", str(data),
               "--k", "3", "--restarts", "6", "--seed", "13"])
    assert rc == 0
    got = _lines_to_map(capsys.readouterr().out)
    assert got["algorithm"] == "kmedians-auto"
    assert float(got["c_gamma"]) == kmeans_risk


def test_fit_is_deterministic(tmp_path):
    data = _gen_sim1(tmp_path)
    m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
    for out in (m1, m2):
        assert main(["fit", "--algorithm", "kmedians", "--data", str(data),
                     "--k", "3", "--c-gamma", "1.5", "--restarts", "3",
                     "--seed", "8", "-o", str(out)]) == 0
    assert m1.read_bytes() == m2.read_bytes()


def test_eval_reports_risk_and_cer(tmp_path, capsys):
    data = _gen_sim1(tmp_path)
    model = tmp_path / "m.json"
    main(["fit", "--algorithm", "kmeans", "--data", str(data), "--k", "3",
          "--seed", "3", "-o", str(model)])
    capsys.readouterr()
    metrics = tmp_path / "metrics.json"
    rc = main(["eval", "--model", str(model), "--data", str(data),
               "-o", str(metrics)])
    assert rc == 0
    got = _lines_to_map(capsys.readouterr().out)
    assert float(got["risk"]) > 0
    assert 0.0 <= float(got["cer"]) <= 1.0
    doc = json.loads(metrics.read_text())
    assert set(doc) == {"algorithm", "risk", "n", "d", "cer"}


def test_eval_without_labels_reports_unavailable(tmp_path, capsys):
    path = tmp_path / "pr.csv"
    main(["generate", "profiles", "--n", "30", "--d", "20", "--seed", "6",
          "-o", str(path)])
    model = tmp_path / "m.json"
    main(["fit", "--algorithm", "kmeans", "--data", str(path), "--k", "2",
          "--seed", "1", "-o", str(model)])
    capsys.readouterr()
    rc = main(["eval", "--model", str(model), "--data", str(path)])
    assert rc == 0
    assert "cer=unavailable" in capsys.readouterr().out


def test_eval_rejects_json_that_is_not_a_model(tmp_path, capsys):
    data = _gen_sim1(tmp_path)
    capsys.readouterr()
    for doc, problem in (([1, 2], "not a seqclust model file"),
                         ({"format": "seqclust-model"}, "model has no centers"),
                         ({"format": "seqclust-model", "centers": [[0, 0]]},
                          "model has no algorithm name"),
                         ({"format": "seqclust-model", "centers": [[0, 0]], "algorithm": 3},
                          "model has no algorithm name")):
        model = tmp_path / "m.json"
        model.write_text(json.dumps(doc))
        assert main(["eval", "--model", str(model), "--data", str(data)]) == 1, doc
        assert capsys.readouterr().err == f"error: {model}: {problem}\n"


def test_bench_spec_file_runs_and_is_reproducible(tmp_path, capsys):
    spec = dict(name="clibench", kind="sweep", generator="sim1",
                generator_params={"n": 50, "epsilon": 0.0}, k=2,
                algorithms=["kmeans"], restarts=2, replications=2, seed=5)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for outdir in (out1, out2):
        rc = main(["bench", str(spec_path), "-o", str(outdir)])
        assert rc == 0
    out = capsys.readouterr().out
    assert "clibench_results.csv" in out and "clibench_summary.json" in out
    res1 = (out1 / "clibench_results.csv").read_bytes()
    res2 = (out2 / "clibench_results.csv").read_bytes()
    assert res1 == res2
    summ = json.loads((out1 / "clibench_summary.json").read_text())
    assert summ["cells"] == 2 and summ["failed_cells"] == 0


def test_bench_spec_with_a_c_grid_runs_every_cell(tmp_path, capsys):
    # only the kmedians cells take a gain, one per c_grid value
    spec = dict(name="grid", kind="cer", generator="sim1",
                generator_params={"n": 60, "epsilon": 0.05}, k=2,
                algorithms=["kmeans", "kmedians", "kmedians-auto", "pam"],
                c_grid=[0.5, 2.0], restarts=2, replications=2, seed=3)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["bench", str(spec_path), "-o", str(tmp_path)]) == 0
    capsys.readouterr()
    summ = json.loads((tmp_path / "grid_summary.json").read_text())
    assert summ["cells"] == 2 * 5 and summ["failed_cells"] == 0
    rows = (tmp_path / "grid_results.csv").read_text().splitlines()
    assert sum(",kmedians," in row for row in rows) == 2 * 2


def test_bench_rejects_invalid_spec_file(tmp_path, capsys):
    spec = dict(name="bad", kind="sweep", generator="sim1",
                generator_params={"n": 50}, k=2, algorithms=["kmeans"],
                restarts=2, replications=0)
    spec_path = tmp_path / "bad.json"
    spec_path.write_text(json.dumps(spec))
    rc = main(["bench", str(spec_path), "-o", str(tmp_path)])
    assert rc == 1
    assert "replications" in capsys.readouterr().err


def test_bench_exits_1_when_cells_fail(tmp_path, capsys):
    # n=4 < k=5 makes every fit raise; the files are still written
    spec = dict(name="fails", kind="sweep", generator="sim1",
                generator_params={"n": 4}, k=5, algorithms=["kmeans", "pam"],
                restarts=1, replications=2)
    spec_path = tmp_path / "fails.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["bench", str(spec_path), "-o", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert err == "4 cell(s) failed\n"
    assert "fails_results.csv" in out and (tmp_path / "fails_summary.json").exists()


def test_bench_rejects_unknown_experiment(tmp_path, capsys):
    rc = main(["bench", "fig99", "-o", str(tmp_path)])
    assert rc == 1
    assert "neither a preset" in capsys.readouterr().err


def _script_entry_point(pyproject):
    """The `seqclust` target of pyproject's [project.scripts] table."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        section = pyproject.read_text().partition("[project.scripts]")[2]
        section = section.split("\n[", 1)[0]
        match = re.search(r'^seqclust\s*=\s*"([^"]*)"', section, re.M)
        return match.group(1) if match else None
    with pyproject.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"].get("seqclust")


def _cli_command():
    """Command and environment that run the CLI in a subprocess.

    The installed console script is used when it is on PATH. Otherwise the
    package this test imported runs as `python -m seqclust`, which calls the
    same `seqclust.cli:main` that pyproject installs as the script."""
    if shutil.which("seqclust") is not None:
        return ["seqclust"], None
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert _script_entry_point(pyproject) == "seqclust.cli:main"
    package_root = str(Path(seqclust.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    return [sys.executable, "-m", "seqclust"], env


def test_console_script_smoke(tmp_path):
    cmd, env = _cli_command()
    data = tmp_path / "d.csv"
    r = subprocess.run(cmd + ["generate", "sim1", "--n", "30",
                              "--seed", "2", "-o", str(data)],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    r = subprocess.run(cmd + ["fit", "--algorithm", "pam",
                              "--data", str(data), "--k", "3"],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    assert "algorithm=pam" in r.stdout


def test_fit_output_matches_library_fit(tmp_path):
    data_path = _gen_sim1(tmp_path, n=150)
    data = read_csv(data_path)
    common = dict(restarts=3, seed=9, shuffle=True)
    direct = {
        "kmeans": kmeans_fit(data, 3, **common),
        "kmedians": kmedians_fit(data, 3, GainConfig(c_gamma=1.5, c_alpha=2.0, alpha=0.9),
                                 bound_check=True, **common),
        "kmedians-auto": kmedians_fit_data_driven(data, 3, bound_check=True, **common),
        "pam": pam_fit(data, 3),
    }
    for algorithm, report in direct.items():
        got, want = tmp_path / f"{algorithm}.json", tmp_path / f"{algorithm}_ref.json"
        rc = main(["fit", "--algorithm", algorithm, "--data", str(data_path), "--k", "3",
                   "--restarts", "3", "--seed", "9", "--shuffle", "--bound-check",
                   "--c-gamma", "1.5", "--c-alpha", "2.0", "--alpha", "0.9",
                   "-o", str(got)])
        assert rc == 0
        write_model(report, want)
        assert got.read_bytes() == want.read_bytes(), algorithm


def test_generate_output_matches_library_sampler(tmp_path):
    cases = [
        (["sim1", "--n", "80", "--epsilon", "0.1", "--seed", "3"],
         Sim1Config(n=80, epsilon=0.1, seed=3), sim1_sample),
        (["sim2", "--n", "30", "--d", "9", "--epsilon", "0.2", "--scale", "3.0",
          "--seed", "4"], Sim2Config(n=30, d=9, epsilon=0.2, scale=3.0, seed=4), sim2_sample),
        (["profiles", "--n", "20", "--d", "25", "--seed", "5"],
         {"n": 20, "d": 25, "seed": 5}, lambda cfg: profiles_sample(**cfg)),
    ]
    for argv, config, sample in cases:
        name = argv[0]
        got, want = tmp_path / f"{name}.csv", tmp_path / f"{name}_ref.csv"
        assert main(["generate", *argv, "-o", str(got)]) == 0
        save_dataset(sample(config), want, name, config)
        assert got.read_bytes() == want.read_bytes(), name
        assert (tmp_path / f"{name}.json").read_bytes() == \
            (tmp_path / f"{name}_ref.json").read_bytes(), name


def test_bench_output_matches_run_experiment(tmp_path):
    doc = dict(name="same", kind="sweep", generator="sim1",
               generator_params={"n": 40, "epsilon": 0.05}, k=2,
               algorithms=["kmeans", "kmedians", "pam"], restarts=2,
               replications=2, c_grid=[2.0], seed=1)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(doc))
    got, want = tmp_path / "cli", tmp_path / "lib"
    assert main(["bench", str(spec_path), "--seed", "3", "--c-grid", "0.5,1",
                 "-o", str(got)]) == 0
    spec = ExperimentSpec(**dict(doc, seed=3, c_grid=[0.5, 1.0]))
    names = [Path(p).name for p in run_experiment(spec).write(want)]
    assert sorted(p.name for p in got.iterdir()) == sorted(names)
    for name in names:
        assert (got / name).read_bytes() == (want / name).read_bytes(), name


def test_missing_or_unwritable_paths_are_errors(tmp_path, capsys, monkeypatch):
    data = _gen_sim1(tmp_path)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(dict(
        name="p", kind="sweep", generator="sim1", generator_params={"n": 30}, k=2,
        algorithms=["kmeans"], restarts=1, replications=1)))
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    missing, nodir = tmp_path / "missing.csv", tmp_path / "nodir"
    cases = [
        (["fit", "--algorithm", "kmeans", "--data", str(missing), "--k", "3"], missing),
        (["eval", "--model", str(nodir / "m.json"), "--data", str(data)], nodir / "m.json"),
        (["generate", "sim1", "--n", "10", "-o", str(nodir / "x.csv")], nodir / "x.csv"),
        (["fit", "--algorithm", "pam", "--data", str(data), "--k", "3",
          "-o", str(nodir / "m.json")], nodir / "m.json"),
        (["bench", str(tmp_path), "-o", str(tmp_path / "out")], tmp_path),
        (["bench", str(spec_path), "-o", str(a_file / "out")], a_file / "out"),
    ]
    fits = []
    monkeypatch.setattr(bench, "fit", lambda *a, **kw: fits.append(a))
    capsys.readouterr()
    for argv, path in cases:
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err, (argv, err)
    # an output directory that cannot be made fails the bench before any cell runs
    assert fits == []


def test_bench_rejects_grid_values_below_one_before_running(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(dict(
        name="g", kind="sweep", generator="sim1", generator_params={"n": 30}, k=2,
        algorithms=["kmeans"], restarts=1, replications=1)))
    outdir = tmp_path / "out"
    for argv, value in ((["fig3", "--ks", "0"], "0"),
                        (["fig3", "--replications", "1", "--sizes", "250,0"], "0"),
                        ([str(spec_path), "--ks", "2,-1"], "-1"),
                        ([str(spec_path), "--jobs", "0"], "0")):
        assert main(["bench", *argv, "-o", str(outdir)]) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.rstrip().endswith(f"got {value}"), err
        assert not outdir.exists()


def test_bench_rejects_scalar_fields_of_the_wrong_type(tmp_path, capsys):
    base = dict(name="t", kind="sweep", generator="sim1", generator_params={"n": 30}, k=2,
                algorithms=["kmeans"], restarts=1, replications=1)
    outdir = tmp_path / "out"
    for field, value in (("k", "2"), ("replications", 1.5), ("restarts", None), ("k", 0)):
        spec_path = tmp_path / f"{field}.json"
        spec_path.write_text(json.dumps({**base, field: value}))
        assert main(["bench", str(spec_path), "-o", str(outdir)]) == 1, (field, value)
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field} must be an integer >= 1, got {value!r}"), err
        assert not outdir.exists()


def test_bench_rejects_containers_of_the_wrong_type(tmp_path, capsys):
    base = dict(name="t", kind="sweep", generator="sim1", generator_params={"n": 30}, k=2,
                algorithms=["kmeans"], restarts=1, replications=1)
    outdir = tmp_path / "out"
    for field, value, problem in (("sizes", 5, "must be a list"),
                                  ("c_grid", 2, "must be a list"),
                                  ("generator", ["sim1"], "must be a string"),
                                  ("generator_params", [1], "must be an object")):
        spec_path = tmp_path / f"{field}.json"
        spec_path.write_text(json.dumps({**base, field: value}))
        assert main(["bench", str(spec_path), "-o", str(outdir)]) == 1, (field, value)
        assert capsys.readouterr().err == f"error: {field} {problem}, got {value!r}\n"
        assert not outdir.exists()


def test_bench_rejects_unknown_generator_params_before_running(tmp_path, capsys):
    # a misspelt "epsilson" used to be dropped, and every cell ran on clean data
    base = dict(name="t", kind="sweep", generator="sim1", k=2,
                algorithms=["kmeans"], restarts=1, replications=1)
    outdir = tmp_path / "out"
    for params, problem in (
            ({"n": 30, "epsilson": 0.1},
             "generator_params key 'epsilson' is not a sim1 parameter (takes epsilon, n)"),
            ({"n": 30, "seed": 4}, "generator_params must not set seed: each cell's data "
                                   "seed derives from the spec's seed")):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({**base, "generator_params": params}))
        assert main(["bench", str(spec_path), "-o", str(outdir)]) == 1, params
        assert capsys.readouterr().err == f"error: {problem}\n"
        assert not outdir.exists()


def test_bench_keeps_its_files_inside_the_output_directory(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(dict(
        name="x/../../y", kind="sweep", generator="sim1", generator_params={"n": 30}, k=2,
        algorithms=["kmeans"], restarts=1, replications=1)))
    assert main(["bench", str(spec_path), "-o", str(tmp_path / "a" / "out")]) == 1
    assert capsys.readouterr().err == (
        "error: name must be a file name without a directory, got 'x/../../y'\n")
    assert list(tmp_path.rglob("*")) == [spec_path]


def test_every_json_file_shares_one_format(tmp_path, capsys):
    # the model, the eval metrics, the dataset sidecar and the bench summary
    # are all sorted-key, indent-1 JSON ending in one newline
    data = _gen_sim1(tmp_path)
    model, metrics = tmp_path / "m.json", tmp_path / "metrics.json"
    assert main(["fit", "--algorithm", "kmedians", "--c-gamma", "2", "--data", str(data),
                 "--k", "3", "--restarts", "2", "-o", str(model)]) == 0
    assert main(["eval", "--model", str(model), "--data", str(data), "-o", str(metrics)]) == 0
    assert main(["bench", "fig6", "--replications", "1", "--restarts", "1",
                 "-o", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    for path in (model, metrics, tmp_path / "data.json", tmp_path / "b" / "fig6_summary.json"):
        text = path.read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=1) + "\n", path


def _subcommands(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_generate_options_are_the_config_fields():
    # every `generate <name>` option but -o comes from a field of the config
    generate = _subcommands(build_parser())["generate"]
    parsers = _subcommands(generate)
    assert list(parsers) == list(GENERATORS)
    for name, gen in GENERATORS.items():
        options = {a.dest: (a.type, a.default, a.required) for a in parsers[name]._actions
                   if a.option_strings[0].startswith("--") and a.dest != "help"}
        assert options == {f.name: ({"int": int, "float": float}[f.type],
                                    None if f.default is MISSING else f.default,
                                    f.default is MISSING)
                           for f in fields(gen.config)}, name
        assert [f.name for f in fields(gen.config)] == list(options), name


def test_bench_rejects_a_spec_missing_a_required_parameter_before_running(tmp_path, capsys):
    base = dict(name="t", kind="sweep", k=2, algorithms=["kmeans"], restarts=1, replications=1)
    outdir = tmp_path / "out"
    for generator, params, problem in (
            ("sim1", {"epsilon": 0.1}, "generator_params must set n (or provide sizes)"),
            ("sim2", {"d": 5}, "generator_params must set n (or provide sizes)"),
            ("sim2", {"n": 30}, "generator_params must set d"),
            ("sim1", {"n": "50"}, "generator_params: n must be an integer >= 1, got '50'"),
            ("sim1", {"n": 50, "epsilon": 2.0},
             "generator_params: epsilon must be a number in [0, 1], got 2.0")):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({**base, "generator": generator,
                                         "generator_params": params}))
        assert main(["bench", str(spec_path), "-o", str(outdir)]) == 1, params
        assert capsys.readouterr().err == f"error: {problem}\n"
        assert not outdir.exists()
