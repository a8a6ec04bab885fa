"""Shapes of the summary line and of the full report.

Each ``check_*`` function returns a list of problems, empty when the object
is well formed. Nothing here looks at how fast anything was.
"""

from __future__ import annotations

import math
import re

# Every metric the benchmark can report, with its unit. Names with a dot are
# per-layer metrics (``layer.metric``) from the traced run; the rest are
# end-to-end metrics from the untraced run.
UNITS = {
    "setup_s": "s",
    "kmedians_fit_s": "s",
    "kmedians_fit_s_tail": "s",
    "kmedians_auto_fit_s": "s",
    "kmeans_fit_s": "s",
    "pam_fit_s": "s",
    "stream_obs_per_s": "obs/s",
    "eval_s": "s",
    "cli_fit_s": "s",
    "workload_s": "s",
    "kmedians_fit_rel": "probe",
    "kmedians_auto_fit_rel": "probe",
    "kmeans_fit_rel": "probe",
    "pam_fit_rel": "probe",
    "stream_obs_per_probe": "obs/probe",
    "eval_rel": "probe",
    "cli_fit_rel": "probe",
    "workload_rel": "probe",
    "probe_s": "s",
    "kmedians_risk": "dist",
    "cer_kmedians_auto": "ratio",
    "peak_rss_mb": "MiB",
    "failed_ops_ratio": "ratio",
    "kmedians.stream_s": "s",
    "kmedians.stream_us_per_obs": "us",
    "kmedians.stream_obs": "count",
    "kmedians.updates": "count",
    "kmedians.skips": "count",
    "kmedians.update_ratio": "ratio",
    "kmedians.stream_call_us": "us",
    "kmedians.driver_self_s": "s",
    "kmedians.restarts": "count",
    "kmedians.distance_evals": "count",
    "kmedians.chosen_restart": "index",
    "kmeans.stream_s": "s",
    "kmeans.stream_us_per_obs": "us",
    "kmeans.driver_self_s": "s",
    "kmeans.distance_evals": "count",
    "core.distances_s": "s",
    "core.distances_calls": "count",
    "core.distance_evals": "count",
    "core.distances_ns_per_eval_dim": "ns",
    "core.distances_bytes_computed": "bytes",
    "core.write_csv_s": "s",
    "core.read_csv_s": "s",
    "core.read_csv_mb_per_s": "MB/s",
    "core.write_model_s": "s",
    "pam.fit_s": "s",
    "pam.distance_evals": "count",
    "pam.build_evals": "count",
    "pam.evals_per_s": "1/s",
    "metrics.risk_s": "s",
    "metrics.cer_s": "s",
    "metrics.cer_pairs": "count",
    "metrics.cer_ns_per_pair": "ns",
    "datagen.sample_s": "s",
    "datagen.rows_per_s": "rows/s",
    "cli.fit_self_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}
END_TO_END = [name for name in UNITS if "." not in name]
PER_LAYER = [name for name in UNITS if "." in name]

_SHA256 = re.compile(r"[0-9a-f]{64}\Z")
PROVENANCE_KEYS = {"cpu_model", "nproc", "platform", "python", "numpy", "blas",
                   "git_revision", "seed"}


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def check_summary(summary: dict, spec: dict, traced: bool) -> list[str]:
    """The last output line: exactly the metrics BENCHMARK.json lists for the mode."""
    errs = []
    if set(summary) != {"correct", "attempted", "failed", "metrics"}:
        return [f"summary keys {sorted(summary)}"]
    if not isinstance(summary["correct"], bool):
        errs.append("correct must be a boolean")
    a, f = summary["attempted"], summary["failed"]
    if not (isinstance(a, int) and isinstance(f, int) and a >= 1 and 0 <= f <= a):
        errs.append(f"attempted={a!r}, failed={f!r}")
    listed = {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}
    got = summary["metrics"]
    if set(got) != set(listed):
        errs.append(f"metrics {sorted(set(got) ^ set(listed))} differ from BENCHMARK.json")
    for name, rec in got.items():
        if set(rec) != {"value", "unit"} or not _number(rec["value"]) or rec["unit"] != listed.get(name):
            errs.append(f"{name}: bad record {rec!r}")
    return errs


def check_report(report: dict) -> list[str]:
    """The full report: every metric of its mode is measured or has a reason."""
    errs = []
    for key in ("workload", "why", "params", "seed", "seconds", "trace", "correct", "attempted",
                "failed", "checks", "failures", "model_sha256", "metrics", "absent", "provenance"):
        if key not in report:
            errs.append(f"report lacks {key!r}")
    if errs:
        return errs
    prov = report["provenance"]
    if set(prov) != PROVENANCE_KEYS:
        errs.append(f"provenance keys {sorted(prov)}")
    elif not {"name", "version", "threads", "thread_env"} <= set(prov["blas"]):
        errs.append("provenance.blas lacks name, version, threads or thread_env")
    if report["correct"] and not (isinstance(report["model_sha256"], str)
                                  and _SHA256.match(report["model_sha256"])):
        errs.append("model_sha256 must be a sha256 hex digest")
    for name, c in report["checks"].items():
        if set(c) != {"passed", "failed"}:
            errs.append(f"check {name}: {c!r}")
    metrics, absent = report["metrics"], report["absent"]
    for name, rec in metrics.items():
        if name not in UNITS or rec.get("unit") != UNITS[name] or not _number(rec.get("value")):
            errs.append(f"{name}: bad metric {rec!r}")
    for name, why in absent.items():
        if name in metrics or not (isinstance(why, str) and why):
            errs.append(f"{name}: absent needs a reason and no value")
    if report["correct"]:
        wanted = END_TO_END + (PER_LAYER if report["trace"] else [])
        missing = [n for n in wanted if n not in metrics and n not in absent]
        if missing:
            errs.append(f"neither measured nor explained: {missing}")
    return errs
