"""One benchmark run: set-up, measured iterations, traced probes and metrics.

The package is driven only through its public API (``seqclust`` and
``seqclust.cli.main``). An iteration runs every fit of the workload, the
16-row chunked stream, an eval of each fitted model and one CLI fit, and
checks their outputs. The traced run records spans in every iteration and
after each one rebuilds ``kmedians_fit`` and ``kmeans_fit`` from public calls
to see inside them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import resource
import statistics
import traceback
from bisect import bisect_left, bisect_right
from collections import defaultdict
from time import perf_counter

import numpy as np

import seqclust as sc
from seqclust import cli

from schema import UNITS
from spans import Tracer, count, total

STREAM_CHUNK = 16
# chunked passes per iteration: enough samples for a steady median without
# letting the stream dominate the R=50 iteration of sim2-highd
STREAM_PASSES = 10
# set-up is repeated until SETUP_MIN_S is spent, so its median is steady
# even when one pass is short
SETUP_MIN_REPS = 3
SETUP_MIN_S = 2.5
# the traced run's per-layer medians need a few iterations on every workload
MIN_TRACED_STEPS = 3
# spans per timing when calibrating what one recorded span costs
SPAN_CALIBRATION = 20000
SPAN_CALIBRATION_REPS = 5
# normalized_distances reads X once per center and writes then reads two
# (n, d) float64 temporaries (the difference and its square): 5 passes
BYTES_PER_EVAL_DIM = 5 * 8
TAIL_BEYOND = 10
# The reference probe timed after every operation: a Python float loop and
# small numpy row operations, the two kinds of work the library does. On a
# shared machine the speed can drift by ~1.5x over seconds to minutes, so
# each operation's time is also reported relative to the probes around it.
PROBE_LOOP = 20000
PROBE_ARRAY_OPS = 50
PROBE_SHAPE = (64, 200)
# operations timed by _op; each gets <name>_s (wall) and <name>_rel (probes)
OPS = ("kmedians_fit", "kmedians_auto_fit", "kmeans_fit", "pam_fit", "eval", "cli_fit")

# grouping spans of the benchmark itself; every layer span belongs to the
# nearest one above it
_GROUPS = ("bench.stream", "bench.eval",
           "bench.rebuild_kmedians", "bench.rebuild_kmeans")


def _median(values):
    """Median; counts stay whole numbers."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return float(statistics.median(values))


class Run:
    """State of one benchmark process: the workload, its data and results."""

    def __init__(self, workload, seed: int, workdir, traced: bool):
        self.w = workload
        self.seed = seed
        self.traced = traced
        self.tr = Tracer(enabled=traced)
        self.csv = workdir / "data.csv"
        self.model_cli = workdir / "model_cli.json"
        self.model_ref = workdir / "model_ref.json"
        self.setup_samples: list[float] = []
        self.samples = defaultdict(list)
        self.traced_steps: list[tuple] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.checks: dict[str, list[int]] = defaultdict(lambda: [0, 0])  # name -> [passed, failed]
        self.model_sha256 = None
        self.quality: dict[str, float] = {}
        self.span_cost_rel = None
        A = np.random.default_rng(0).random(PROBE_SHAPE)
        self.probe_data = (A, A[0].copy())

    # -- bookkeeping -------------------------------------------------------

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        self.checks[name][0 if ok else 1] += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}")

    def _probe(self) -> float:
        A, b = self.probe_data
        with self.tr.span("bench.probe"):
            t0 = perf_counter()
            s = 0.0
            for i in range(PROBE_LOOP):
                s += i * 0.5
            for _ in range(PROBE_ARRAY_OPS):
                diff = A - b
                (diff * diff).sum(axis=1)
            dt = perf_counter() - t0
        self.samples["probe_s"].append(dt)
        self.probe_time += dt
        return dt

    def _op(self, name, span, fn, *args, **kw):
        """Call fn, recording its wall time and its time relative to the
        mean of the probes just before and just after it. A call that raises
        is counted by _guard."""
        with self.tr.span(span):
            t0 = perf_counter()
            out = fn(*args, **kw)
            dt = perf_counter() - t0
        self.attempted += 1
        before, self.last_probe = self.last_probe, self._probe()
        rel = dt / ((before + self.last_probe) / 2)
        self.samples[f"{name}_s"].append(dt)
        self.samples[f"{name}_rel"].append(rel)
        self.iter_rel += rel
        return out

    def _guard(self, fn) -> bool:
        try:
            fn()
            return True
        except Exception:
            # the operation or check that raised counts as attempted and failed
            self.attempted += 1
            self.failed += 1
            self.failures.append(traceback.format_exc())
            return False

    # -- set-up --------------------------------------------------------------

    def setup(self) -> bool:
        self.tr.iteration = "setup"
        return self._guard(self._setup)

    def _setup(self):
        w = self.w
        spent = 0.0
        while len(self.setup_samples) < SETUP_MIN_REPS or spent < SETUP_MIN_S:
            t0 = perf_counter()
            with self.tr.span(f"datagen.{w.generator}"):
                ds = w.make(sc, self.seed)
            with self.tr.span("core.write_csv"):
                sc.write_csv(ds, self.csv)
            self._warm_up(ds)
            dt = perf_counter() - t0
            self.setup_samples.append(dt)
            spent += dt
        self.ds = ds
        self.gain = sc.GainConfig(c_gamma=w.c_gamma)

    def _warm_up(self, ds):
        """Touch every code path once on a 64-row slice."""
        w = self.w
        X = ds.X[:64]
        sc.kmedians_fit(X, w.k, sc.GainConfig(c_gamma=w.c_gamma), restarts=1, seed=0)
        sc.kmeans_fit(X, w.k, restarts=1, seed=0)
        if w.pam_rows:
            sc.pam_fit(X, w.k)
        if ds.labels is not None:
            sc.cer(ds.labels[:64], ds.labels[:64])
        cli.build_parser()

    # -- measured loop -----------------------------------------------------

    def measure(self, seconds: float) -> None:
        """Run steps until the next one would end past `seconds` (at least one,
        and at least MIN_TRACED_STEPS when traced)."""
        min_steps = MIN_TRACED_STEPS if self.traced else 1
        t0 = perf_counter()
        i = 0
        while True:
            ts = perf_counter()
            if not self._guard(lambda: self._step(i)):
                return
            i += 1
            now = perf_counter()
            if i >= min_steps and now - t0 + (now - ts) > seconds:
                break
        if self.traced:
            self._guard(self._calibrate_span)

    def _step(self, i: int) -> None:
        self.tr.iteration = i
        models = self.iteration()
        if self.traced:
            info = self.probes(models["kmedians"], models["kmeans"])
            self.traced_steps.append((i, models, info))

    def iteration(self):
        w, ds = self.w, self.ds
        X = ds.X
        t_iter = perf_counter()
        self.probe_time = self.iter_rel = 0.0
        self.last_probe = self._probe()
        with self.tr.span("bench.iteration"):
            kmed = self._op("kmedians_fit", "kmedians.kmedians_fit", sc.kmedians_fit,
                            ds, w.k, self.gain, restarts=w.restarts, seed=self.seed)
            auto = self._op("kmedians_auto_fit", "kmedians.kmedians_fit_data_driven",
                            sc.kmedians_fit_data_driven, ds, w.k,
                            restarts=w.restarts, seed=self.seed)
            km = self._op("kmeans_fit", "kmeans.kmeans_fit", sc.kmeans_fit,
                          ds, w.k, restarts=w.restarts, seed=self.seed)
            models = {"kmedians": kmed, "kmedians-auto": auto, "kmeans": km}
            if w.pam_rows:
                models["pam"] = self._op("pam_fit", "pam.pam_fit", sc.pam_fit,
                                         X[: w.pam_rows], w.k)
            # chunked passes from the first restart seeds of kmedians_fit, so the
            # traced rebuild can check each against its whole-array stream
            children = np.random.SeedSequence(self.seed).spawn(w.restarts)[:STREAM_PASSES]
            self.stream_states = [
                self._op("stream", "bench.stream", self._stream_chunks, child)
                for child in children]

            for name, rep in models.items():
                risk, cer = self._op("eval", "bench.eval", self._evaluate, rep.centers)
                if name == "pam":
                    risk = sc.empirical_l1_risk(X[: w.pam_rows], rep.centers)
                self.check("fit_risk_exact", rep.risk == risk,
                           f"{name}: fit risk {rep.risk!r} != empirical_l1_risk {risk!r}")
                if name == "kmedians":
                    self.quality["kmedians_risk"] = risk
                if name == "kmedians-auto" and cer is not None:
                    self.quality["cer_kmedians_auto"] = cer

            self._cli_fit(kmed)
        self.samples["workload_s"].append(perf_counter() - t_iter - self.probe_time)
        self.samples["workload_rel"].append(self.iter_rel)
        return models

    def _stream_chunks(self, seed_seq):
        X = self.ds.X
        with self.tr.span("kmeans.draw_seeds"):
            seeds = sc.draw_seeds(X, self.w.k, np.random.default_rng(seed_seq))
        with self.tr.span("kmedians.kmedians_init"):
            st = sc.kmedians_init(seeds, self.gain)
        for i in range(0, X.shape[0], STREAM_CHUNK):
            with self.tr.span("kmedians.kmedians_stream"):
                st = sc.kmedians_stream(st, X[i : i + STREAM_CHUNK])
        return st

    def _evaluate(self, centers):
        """Score one model the way `seqclust eval` does."""
        ds = self.ds
        n, d = ds.X.shape
        k = centers.shape[0]
        with self.tr.span("metrics.empirical_l1_risk"):
            risk = sc.empirical_l1_risk(ds, centers)
        if ds.labels is None:
            return risk, None
        with self.tr.span("core.assign_nearest", evals=n * k, dim=d):
            pred = sc.assign_nearest(ds.X, centers)
        m = int(np.count_nonzero(~ds.outlier_flags))
        with self.tr.span("metrics.cer", pairs=m * (m - 1) // 2):
            cer = sc.cer(pred, ds.labels, ds.outlier_flags)
        return risk, cer

    def _cli_fit(self, kmed):
        w = self.w
        argv = ["fit", "--algorithm", "kmedians", "--data", str(self.csv), "--k", str(w.k),
                "--c-gamma", repr(w.c_gamma), "--restarts", str(w.restarts),
                "--seed", str(self.seed), "-o", str(self.model_cli)]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = self._op("cli_fit", "cli.main", cli.main, argv)
        self.check("cli_exit_code", rc == 0, f"cli.main returned {rc}")
        with self.tr.span("core.write_model"):
            sc.write_model(kmed, self.model_ref)
        got = self.model_cli.read_bytes()
        self.check("cli_model_bytes", got == self.model_ref.read_bytes(),
                   "CLI model JSON differs from write_model of the in-process fit")
        digest = hashlib.sha256(got).hexdigest()
        if self.model_sha256 is None:
            self.model_sha256 = digest
        self.check("rerun_model_bytes", digest == self.model_sha256,
                   "model JSON changed between iterations")

    # -- traced probes -----------------------------------------------------

    def probes(self, kmed, km) -> dict:
        """Rebuild the fits from public calls and re-check them bit for bit."""
        X = self.ds.X
        with self.tr.span("bench.rebuild_kmedians"):
            states = self._rebuild_kmedians(kmed)
        with self.tr.span("bench.rebuild_kmeans"):
            self._rebuild_kmeans(km)
        self.check("stream_chunked_exact",
                   all(a.averaged.tobytes() == b.averaged.tobytes()
                       and a.raw.tobytes() == b.raw.tobytes()
                       and a.update_counts.tobytes() == b.update_counts.tobytes()
                       and a.skips == b.skips
                       for a, b in zip(states, self.stream_states)),
                   "16-row chunked stream differs from the whole-array stream")
        size = self.csv.stat().st_size
        with self.tr.span("core.read_csv", bytes=size):
            back = sc.read_csv(self.csv)
        self._probe()
        same_labels = (back.labels is None) == (self.ds.labels is None) and (
            back.labels is None or np.array_equal(back.labels, self.ds.labels))
        self.check("csv_round_trip", back.X.tobytes() == X.tobytes() and same_labels,
                   "read_csv(write_csv(data)) differs from data")
        return {"updates": sum(int(st.update_counts.sum()) for st in states),
                "skips": sum(st.skips for st in states)}

    def _rebuild_kmedians(self, kmed):
        w = self.w
        X = self.ds.X
        n, d = X.shape
        best = None
        states = []
        for ridx, child in enumerate(np.random.SeedSequence(self.seed).spawn(w.restarts)):
            rng = np.random.default_rng(child)
            with self.tr.span("kmeans.draw_seeds"):
                s = sc.draw_seeds(X, w.k, rng)
            with self.tr.span("kmedians.kmedians_init"):
                st = sc.kmedians_init(s, self.gain)
            with self.tr.span("kmedians.kmedians_stream"):
                st = sc.kmedians_stream(st, X)
            with self.tr.span("core.normalized_distances", evals=n * w.k, dim=d):
                D = sc.normalized_distances(X, st.averaged)
            risk = float(D.min(axis=1).mean())
            states.append(st)
            if best is None or risk < best[0]:
                best = (risk, ridx, st.averaged)
            self._probe()
        risk, ridx, centers = best
        self.check("kmedians_rebuild_exact",
                   risk == kmed.risk and ridx == kmed.restart
                   and centers.tobytes() == kmed.centers.tobytes(),
                   f"rebuilt restart {ridx} risk {risk!r}, fit restart {kmed.restart} "
                   f"risk {kmed.risk!r}")
        return states

    def _rebuild_kmeans(self, km):
        w = self.w
        X = self.ds.X
        n, d = X.shape
        best = None
        for ridx, child in enumerate(np.random.SeedSequence(self.seed).spawn(w.restarts)):
            rng = np.random.default_rng(child)
            with self.tr.span("kmeans.draw_seeds"):
                s = sc.draw_seeds(X, w.k, rng)
            with self.tr.span("kmeans.kmeans_fit"):
                one = sc.kmeans_fit(X, w.k, seeds=s, restarts=1)
            with self.tr.span("core.normalized_distances", evals=n * w.k, dim=d):
                D = sc.normalized_distances(X, one.centers)
            risk = float(D.min(axis=1).mean())
            if best is None or risk < best[0]:
                best = (risk, ridx, one.centers)
            self._probe()
        risk, ridx, centers = best
        self.check("kmeans_rebuild_exact",
                   risk == km.risk and ridx == km.restart
                   and centers.tobytes() == km.centers.tobytes(),
                   f"rebuilt restart {ridx} risk {risk!r}, fit restart {km.restart} "
                   f"risk {km.risk!r}")

    def _calibrate_span(self) -> None:
        """Time what one recorded span costs over the no-op span an untraced
        run enters, relative to the probes around the timing."""
        def per_span(enabled):
            tr = Tracer(enabled=enabled)
            t0 = perf_counter()
            for _ in range(SPAN_CALIBRATION):
                with tr.span("bench.calibrate"):
                    pass
            return (perf_counter() - t0) / SPAN_CALIBRATION

        self.tr.iteration = "calibration"
        before = self._probe()
        cost = statistics.median(per_span(True) - per_span(False)
                                 for _ in range(SPAN_CALIBRATION_REPS))
        self.span_cost_rel = cost / ((before + self._probe()) / 2)

    # -- metrics -------------------------------------------------------------

    def _layer_metrics(self, i, models, info, scale) -> dict:
        """Per-layer metrics of traced iteration `i`, computed from its spans.

        Each span's time is divided by the mean of the probes just before and
        after it, and the sum is scaled to seconds by `scale`, the run's
        median probe time. Differences of spans timed at different moments
        (the self times) are thus taken at one machine speed."""
        spans = self.tr.of(i)
        by_id = {s["id"]: s for s in spans}
        probes = [s for s in spans if s["name"] == "bench.probe"]
        starts = [p["start"] for p in probes]
        ends = [p["end"] for p in probes]

        def secs(chosen):
            rel = 0.0
            for s in chosen:
                around = []
                j = bisect_right(ends, s["start"]) - 1
                if j >= 0:
                    around.append(ends[j] - starts[j])
                j = bisect_left(starts, s["end"])
                if j < len(probes):
                    around.append(ends[j] - starts[j])
                rel += (s["end"] - s["start"]) / statistics.fmean(around)
            return rel * scale

        def named(chosen, name):
            return [s for s in chosen if s["name"] == name]

        def group(s):
            while s["parent"] is not None:
                s = by_id[s["parent"]]
                if s["name"] in _GROUPS:
                    return s["name"]
            return "bench.iteration"

        groups = defaultdict(list)
        for s in spans:
            groups[group(s)].append(s)
        top, rk, rkm = groups["bench.iteration"], groups["bench.rebuild_kmedians"], groups["bench.rebuild_kmeans"]
        w = self.w
        kmed, km = models["kmedians"], models["kmeans"]
        n, d = self.ds.X.shape
        obs = w.restarts * n
        m = {}

        kmed_fit = secs(named(top, "kmedians.kmedians_fit"))
        whole = named(rk, "kmedians.kmedians_stream")
        stream_s = secs(whole)
        chunks = named(groups["bench.stream"], "kmedians.kmedians_stream")
        # whole-array streams of the rebuild from the same seeds as the passes
        whole_s = secs(whole[: len(self.stream_states)])
        m["kmedians.stream_s"] = stream_s
        m["kmedians.stream_obs"] = obs
        m["kmedians.stream_us_per_obs"] = stream_s / obs * 1e6
        m["kmedians.updates"] = info["updates"]
        m["kmedians.skips"] = info["skips"]
        m["kmedians.update_ratio"] = info["updates"] / obs
        m["kmedians.stream_call_us"] = (secs(chunks) - whole_s) / len(chunks) * 1e6
        m["kmedians.driver_self_s"] = kmed_fit - sum(
            secs(named(rk, name)) for name in ("kmeans.draw_seeds", "kmedians.kmedians_init",
                                               "kmedians.kmedians_stream",
                                               "core.normalized_distances"))
        m["kmedians.restarts"] = kmed.restarts
        m["kmedians.distance_evals"] = kmed.distance_evals
        m["kmedians.chosen_restart"] = kmed.restart

        single = secs(named(rkm, "kmeans.kmeans_fit"))
        km_stream = single - secs(named(rkm, "core.normalized_distances"))
        m["kmeans.stream_s"] = km_stream
        m["kmeans.stream_us_per_obs"] = km_stream / obs * 1e6
        m["kmeans.driver_self_s"] = (secs(named(top, "kmeans.kmeans_fit"))
                                     - secs(named(rkm, "kmeans.draw_seeds")) - single)
        m["kmeans.distance_evals"] = km.distance_evals

        dist = [s for s in spans if s["name"] in ("core.normalized_distances", "core.assign_nearest")]
        dist_s = secs(dist)
        evals = sum(s["evals"] for s in dist)
        eval_dims = sum(s["evals"] * s["dim"] for s in dist)
        m["core.distances_s"] = dist_s
        m["core.distances_calls"] = len(dist)
        m["core.distance_evals"] = evals
        m["core.distances_ns_per_eval_dim"] = dist_s / eval_dims * 1e9
        m["core.distances_bytes_computed"] = eval_dims * BYTES_PER_EVAL_DIM

        read_s = secs(named(spans, "core.read_csv"))
        write_model_s = secs(named(top, "core.write_model"))
        m["core.read_csv_s"] = read_s
        m["core.read_csv_mb_per_s"] = total(spans, "core.read_csv", "bytes") / 1e6 / read_s
        m["core.write_model_s"] = write_model_s

        if "pam" in models:
            pam = models["pam"]
            pam_s = secs(named(top, "pam.pam_fit"))
            m["pam.fit_s"] = pam_s
            m["pam.distance_evals"] = pam.distance_evals
            m["pam.build_evals"] = pam.build_evals
            m["pam.evals_per_s"] = pam.distance_evals / pam_s

        ev = groups["bench.eval"]
        m["metrics.risk_s"] = (secs(named(ev, "metrics.empirical_l1_risk"))
                               / count(ev, "metrics.empirical_l1_risk"))
        if self.ds.labels is not None:
            calls = count(ev, "metrics.cer")
            cer_s = secs(named(ev, "metrics.cer")) / calls
            pairs = total(ev, "metrics.cer", "pairs") // calls
            m["metrics.cer_s"] = cer_s
            m["metrics.cer_pairs"] = pairs
            m["metrics.cer_ns_per_pair"] = cer_s / pairs * 1e9

        m["cli.fit_self_s"] = secs(named(top, "cli.main")) - read_s - kmed_fit - write_model_s
        # what recording the spans of the iteration itself (not of the
        # rebuild after it) adds to workload_s
        it = named(spans, "bench.iteration")[0]
        in_iteration = sum(1 for s in spans if it["start"] <= s["start"] <= it["end"])
        m["trace.overhead_s"] = self.span_cost_rel * scale * in_iteration
        m["trace.spans"] = len(spans)
        return m

    def results(self, listed) -> tuple[dict, dict]:
        """Every metric this run measured, and the reason each absent one is absent.

        Also checks that every metric named in `listed` was measured."""
        w = self.w
        u = self.samples
        metrics = {}
        absent = {}

        def put(name, value, **extra):
            metrics[name] = {"value": value, "unit": UNITS[name], **extra}

        if self.setup_samples:
            put("setup_s", _median(self.setup_samples), samples=len(self.setup_samples),
                runs=self.setup_samples)
        for op in OPS + ("workload",):
            for name in (f"{op}_s", f"{op}_rel"):
                if u[name]:
                    put(name, _median(u[name]), samples=len(u[name]), runs=u[name])
        if not w.pam_rows:
            absent["pam_fit_s"] = absent["pam_fit_rel"] = (
                "no PAM on this workload: n exceeds the PAM cap")
        for name, key in (("stream_obs_per_s", "stream_s"), ("stream_obs_per_probe", "stream_rel")):
            if u[key]:
                put(name, self.ds.n / _median(u[key]), samples=len(u[key]),
                    runs=[self.ds.n / t for t in u[key]])
        if u["probe_s"]:
            put("probe_s", _median(u["probe_s"]), samples=len(u["probe_s"]))

        fits = sorted(u["kmedians_fit_s"])
        rank = len(fits) - TAIL_BEYOND
        if rank >= 1:
            put("kmedians_fit_s_tail", fits[rank - 1], rank=rank, samples=len(fits),
                percentile=100.0 * rank / len(fits))
        else:
            absent["kmedians_fit_s_tail"] = (
                f"needs at least {TAIL_BEYOND + 1} kmedians_fit samples, run has {len(fits)}")

        for name in ("kmedians_risk", "cer_kmedians_auto"):
            if name in self.quality:
                put(name, self.quality[name])
        if "cer_kmedians_auto" not in self.quality:
            absent["cer_kmedians_auto"] = "dataset has no labels"
        put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

        if self.traced and self.traced_steps and self.span_cost_rel is not None:
            scale = _median(u["probe_s"])
            rows = [self._layer_metrics(i, models, info, scale)
                    for i, models, info in self.traced_steps]
            for name in rows[0]:
                put(name, _median([row[name] for row in rows]), samples=len(rows),
                    runs=[row[name] for row in rows])
            if not w.pam_rows:
                for name in ("pam.fit_s", "pam.distance_evals", "pam.build_evals", "pam.evals_per_s"):
                    absent[name] = "no PAM on this workload"
            if self.ds.labels is None:
                for name in ("metrics.cer_s", "metrics.cer_pairs", "metrics.cer_ns_per_pair"):
                    absent[name] = "dataset has no labels, so eval computes no CER"
            setup = self.tr.of("setup")
            gen = [s["end"] - s["start"] for s in setup if s["name"] == f"datagen.{w.generator}"]
            put("datagen.sample_s", _median(gen), samples=len(gen))
            put("datagen.rows_per_s", self.ds.n / _median(gen))
            wcsv = [s["end"] - s["start"] for s in setup if s["name"] == "core.write_csv"]
            put("core.write_csv_s", _median(wcsv), samples=len(wcsv))
        missing = [name for name in listed if name not in metrics]
        self.check("listed_metrics_present", not missing, f"not measured: {missing}")
        put("failed_ops_ratio", self.failed / max(self.attempted, 1))
        return metrics, absent
