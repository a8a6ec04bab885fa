"""Shape of the benchmark's outputs. No test here sets a bound on any time.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from schema import END_TO_END, PER_LAYER, UNITS, check_report, check_summary  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def test_listed_metrics_have_their_measured_units():
    for key, names in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        for m in SPEC[key]:
            assert m["name"] in names, (key, m["name"])
            assert m["unit"] == UNITS[m["name"]], m["name"]


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_report_and_summary(tmp_path, trace):
    proc = bench(ROOT, "--workload", "sim1-lowd", "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    report, summary = json.loads(lines[-2]), json.loads(lines[-1])
    assert check_summary(summary, SPEC, bool(trace)) == []
    assert check_report(report) == []
    assert summary["correct"] and summary["failed"] == 0
    assert all(c["failed"] == 0 for c in report["checks"].values())
    assert json.loads((tmp_path / f"sim1-lowd-seed3-trace{trace}.json").read_text()) == report
    spans = tmp_path / "sim1-lowd-seed3-trace1-spans.jsonl"
    if trace:
        assert {"kmedians_rebuild_exact", "kmeans_rebuild_exact"} <= set(report["checks"])
        assert all(name in report["metrics"] or name in report["absent"] for name in PER_LAYER)
        recs = [json.loads(line) for line in spans.read_text().splitlines()]
        assert len(recs) >= report["metrics"]["trace.spans"]["value"]
        for rec in recs:
            assert {"id", "name", "start", "end", "parent", "iteration"} <= set(rec)
            assert rec["end"] >= rec["start"]
    else:
        assert not spans.exists()


def test_unknown_workload_is_refused():
    proc = bench(ROOT, "--workload", "nope", "--seed", "1", "--seconds", "1")
    assert proc.returncode == 2 and not proc.stdout.strip()


def test_exits_nonzero_without_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench(tmp_path, "--workload", "sim1-lowd", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_recorded_baseline_reports_are_well_formed():
    base = json.loads((BENCH / "BENCH_baseline.json").read_text())
    for mode in ("untraced", "traced"):
        for name, res in base[mode].items():
            assert check_report(res["report"]) == [], (mode, name)
            listed = SPEC["per_layer" if mode == "traced" else "end_to_end"]
            assert set(res["metrics"]) == {m["name"] for m in listed}
