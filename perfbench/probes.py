"""Per-layer probes for the traced run: one group per module of the program.

Every call into the program is made from here, inside a span.  Derived
numbers are differences of span durations measured on the same inputs:
import time is a fresh interpreter minus a bare one, aggregation self time
is ``replicate_stats`` minus sampling minus observing, study self time is
``run_study`` minus its ``run_replicate`` child spans.  A group whose entry point no longer
exists, or whose call fails, reports its metrics as absent and the run goes
on; a later change may rename or remove any of these functions.
"""

from __future__ import annotations

import importlib
import io
import statistics

import numpy as np

import checks
import inputs
from inputs import G, S
from tracing import Tracer
from workloads import THETA0, Bench, CliAggregate, n_label

IMPORT_CODE = "import sys, geomlife; sys.stdout.write(str(int('scipy' in sys.modules)))"


def metric_names(n_list: tuple[int, ...]) -> list[tuple[str, str]]:
    """Every per-layer metric, with its unit, for a sweep over ``n_list``."""
    names = [
        ("geomlife.import_s", "s"),
        ("geomlife.scipy_loaded", "count"),
        ("cli.interpreter_s", "s"),
        ("cli.main_s.estimate", "s"),
        ("cli.main_s.check", "s"),
        ("cli.main_s.paths", "s"),
        ("cli.main_s.estimate_units", "s"),
        ("panel_io.parse_aggregate_us", "us"),
        ("panel_io.to_sufficient_stats_us", "us"),
        ("panel_io.parse_units_s", "s"),
        ("panel_io.units_rows", "count"),
        ("estimator.sufficient_stats_s", "s"),
        ("estimator.estimate_us", "us"),
        ("estimator.wald_ci_us", "us"),
        ("likelihood.grid_argmax_ms", "ms"),
        ("likelihood.conditional_loglik_us", "us"),
        ("paths.build_paths_us", "us"),
    ]
    labels = [n_label(n) for n in n_list]
    names += [(f"model.sample_units_ms.{lb}", "ms") for lb in labels]
    names += [(f"model.observe_arrays_ms.{lb}", "ms") for lb in labels]
    names += [(f"model.sample_bytes.{labels[-1]}", "bytes_computed")]
    names += [("simulation.rng_setup_us", "us")]
    for prefix, unit in (
        ("simulation.replicate_stats_ms", "ms"),
        ("simulation.aggregate_self_ms", "ms"),
        ("simulation.run_replicate_ms", "ms"),
        ("simulation.study_self_s", "s"),
        ("simulation.useful_ratio", "ratio"),
    ):
        names += [(f"{prefix}.{lb}", unit) for lb in labels]
    names += [("simulation.workers2_speedup.n1e4", "ratio"), ("trace.overhead_ratio", "ratio")]
    return names


def _median(values) -> float:
    return float(statistics.median(values))


def _module(name: str):
    return importlib.import_module(f"geomlife.{name}")


class Probes:
    def __init__(self, bench: Bench, tracer: Tracer):
        self.bench = bench
        self.tracer = tracer
        self.values: dict[str, float] = {}
        self.absent: dict[str, str] = {}

    def run(self) -> None:
        self.group("geomlife.import_s geomlife.scipy_loaded cli.interpreter_s", self.interpreter)
        self.group("cli.main_s.estimate cli.main_s.check cli.main_s.paths cli.main_s.estimate_units", self.cli)
        self.group("panel_io.parse_aggregate_us panel_io.to_sufficient_stats_us", self.aggregate_io)
        self.group("panel_io.parse_units_s panel_io.units_rows estimator.sufficient_stats_s", self.units_io)
        self.group("estimator.estimate_us estimator.wald_ci_us", self.estimator)
        self.group("likelihood.grid_argmax_ms likelihood.conditional_loglik_us", self.likelihood)
        self.group("paths.build_paths_us", self.paths)
        for n in self.bench.sizes.n_list:
            lb = n_label(n)
            names = [f"model.sample_units_ms.{lb}", f"model.observe_arrays_ms.{lb}",
                     f"simulation.replicate_stats_ms.{lb}", f"simulation.aggregate_self_ms.{lb}",
                     f"simulation.run_replicate_ms.{lb}", f"simulation.study_self_s.{lb}",
                     f"simulation.useful_ratio.{lb}"]
            if n == self.bench.sizes.n_list[0]:
                names.append("simulation.rng_setup_us")
            if n == self.bench.sizes.n_list[-1]:
                names.append(f"model.sample_bytes.{lb}")
            self.group(" ".join(names), lambda n=n: self.replicate(n))
        self.group("simulation.workers2_speedup.n1e4", self.workers)

    def group(self, names: str, probe) -> None:
        """Run one probe; on any failure mark all its metrics absent and go on."""
        names = names.split()
        try:
            got = probe()
        except Exception as exc:  # a renamed or removed layer must not stop the run
            for name in names:
                self.absent[name] = f"{type(exc).__name__}: {exc}"
            return
        for name in names:
            if name in got:
                self.values[name] = got[name]
            else:
                self.absent[name] = "not measured"

    def per_call(self, name: str, fn, calls: int, batches: int = 5) -> float:
        """Median seconds per call over ``batches`` spans of ``calls`` calls each."""
        fn()
        times = []
        for _ in range(batches):
            with self.tracer.span(name, calls=calls) as span:
                for _ in range(calls):
                    fn()
            times.append(span.duration / calls)
        return _median(times)

    def timed(self, name: str, fn, **attrs):
        with self.tracer.span(name, **attrs) as span:
            result = fn()
        return result, span.duration

    # -- geomlife and cli --------------------------------------------------

    def interpreter(self) -> dict:
        bare, loaded, flags = [], [], []
        for _ in range(self.bench.sizes.process_reps):
            child, wall = self.timed("cli.interpreter", lambda: self.bench.python("-c", "pass"))
            bare.append(wall)
            child, wall = self.timed("geomlife.import", lambda: self.bench.python("-c", IMPORT_CODE))
            if child.code != 0:
                raise RuntimeError(f"import geomlife failed: {child.stderr.strip()[-300:]}")
            loaded.append(wall)
            flags.append(int(child.stdout))
        return {
            "cli.interpreter_s": _median(bare),
            "geomlife.import_s": _median(loaded) - _median(bare),
            "geomlife.scipy_loaded": max(flags),
        }

    def _main(self, argv: list[str]) -> None:
        code, _ = self.bench.cli_inprocess(argv)
        if code != 0:
            raise RuntimeError(f"geomlife {' '.join(argv[:1])} exited {code}")

    def cli(self) -> dict:
        argv = {kind: args for kind, args, _ in CliAggregate(self.bench).calls}
        out = {f"cli.main_s.{kind}": self.per_call("cli.main", lambda a=argv[kind]: self._main(a), calls=5)
               for kind in ("estimate", "check", "paths")}
        _, out["cli.main_s.estimate_units"] = self.timed(
            "cli.main", lambda: self._main(self.bench.units_argv()), rows=self.bench.units_expected().m)
        return out

    # -- panel_io and estimator ----------------------------------------------

    def aggregate_io(self) -> dict:
        panel_io = _module("panel_io")
        text = self.bench.path("table3.csv").read_text()
        table = panel_io.parse_aggregate(io.StringIO(text), s=S, G=G)
        return {
            "panel_io.parse_aggregate_us": 1e6 * self.per_call(
                "panel_io.parse_aggregate", lambda: panel_io.parse_aggregate(io.StringIO(text), s=S, G=G), 200),
            "panel_io.to_sufficient_stats_us": 1e6 * self.per_call(
                "panel_io.to_sufficient_stats", lambda: panel_io.to_sufficient_stats(table), 1000),
        }

    def units_io(self) -> dict:
        panel_io, estimator, model = _module("panel_io"), _module("estimator"), _module("model")

        def parse():
            with open(self.bench.path("units.csv"), newline="") as fh:
                return panel_io.parse_units(fh, s=S, G=G)

        units, parse_s = self.timed("panel_io.parse_units", parse)
        stats, reduce_s = self.timed(
            "estimator.sufficient_stats", lambda: estimator.sufficient_stats(units, model.StudyDesign(s=S, G=G)))
        expected = self.bench.units_expected()
        if (stats.m_uncens, stats.risk_time) != (expected.m_uncens, expected.risk_time):
            raise RuntimeError(f"sufficient_stats gave {stats}, expected {expected}")
        return {"panel_io.parse_units_s": parse_s, "panel_io.units_rows": len(units),
                "estimator.sufficient_stats_s": reduce_s}

    def _table1_stats(self):
        exp = inputs.Expected.of(inputs.REFERENCE_PANEL)
        return _module("estimator").SufficientStats(
            m=exp.m, m_uncens=exp.m_uncens, m_cens=exp.m_cens,
            duration_sum=exp.risk_time - S * exp.m_cens, s=S,
        )

    def estimator(self) -> dict:
        estimator = _module("estimator")
        stats = self._table1_stats()
        result = estimator.estimate(stats, level=0.95)
        return {
            "estimator.estimate_us": 1e6 * self.per_call(
                "estimator.estimate", lambda: estimator.estimate(stats, level=0.95), 200),
            "estimator.wald_ci_us": 1e6 * self.per_call(
                "estimator.wald_ci", lambda: estimator.wald_ci(result.theta_hat, result.se, 0.95), 200),
        }

    # -- likelihood and paths ------------------------------------------------

    def likelihood(self) -> dict:
        likelihood = _module("likelihood")
        stats = self._table1_stats()
        return {
            "likelihood.grid_argmax_ms": 1e3 * self.per_call(
                "likelihood.grid_argmax", lambda: likelihood.grid_argmax(stats), 3),
            "likelihood.conditional_loglik_us": 1e6 * self.per_call(
                "likelihood.conditional_loglik", lambda: likelihood.conditional_loglik(stats, THETA0), 1000),
        }

    def paths(self) -> dict:
        paths, model = _module("paths"), _module("model")
        p = checks.PATHS_UNIT
        unit, design = model.LatentUnit(x=p["x"], t=p["t"]), model.StudyDesign(s=S, G=G)
        return {"paths.build_paths_us": 1e6 * self.per_call(
            "paths.build_paths", lambda: paths.build_paths(unit, design, p["theta"]), 500)}

    # -- model and simulation ------------------------------------------------

    def _rng(self, k: int) -> np.random.Generator:
        """A generator for sampling inputs; SeedSequence(seed, spawn_key=(k,)), as documented."""
        return np.random.default_rng(np.random.SeedSequence(self.bench.seed, spawn_key=(k,)))

    def replicate(self, n: int) -> dict:
        """Replicate stages at one n, each timed over the same replicates 0..reps-1.

        A stage's time is the median over three rounds of its mean per call;
        the stages run back to back in each round, and aggregation self time
        is the median over rounds of replicate_stats minus sampling, observing
        and the program's own per-replicate rng set-up
        (``simulation._replicate_rng``).  If that function is gone, rng set-up
        is absent and stays inside aggregation self time.  run_study runs
        with spans on run_replicate only; its self time is its span minus
        those child spans.
        """
        model, simulation = _module("model"), _module("simulation")
        lb, K = n_label(n), self.bench.sizes.K
        config = self.bench.study_config(n)
        ks = range(max(20, min(50, 2 * 10**5 // n)))
        samples = [model.sample_units(THETA0, config.tdist, n, self._rng(k)) for k in ks]
        stages = {  # name: (call, its argument for replicate k)
            "model.sample_units": (lambda rng: model.sample_units(THETA0, config.tdist, n, rng), self._rng),
            "model.observe_arrays": (lambda xt: model.observe_arrays(*xt, config.design), samples.__getitem__),
            "simulation.replicate_stats": (lambda k: simulation.replicate_stats(config, k), lambda k: k),
        }
        replicate_rng = getattr(simulation, "_replicate_rng", None)
        if replicate_rng is not None:
            stages["simulation.rng_setup"] = (lambda k: replicate_rng(config.seed, k), lambda k: k)
        rounds = []  # ms per call of each stage, stages timed back to back in each round
        for _ in range(3):
            row = {}
            for name, (call, make_arg) in stages.items():
                args = [make_arg(k) for k in ks]
                with self.tracer.span(name, n=n, calls=len(ks)) as span:
                    for arg in args:
                        call(arg)
                row[name] = 1e3 * span.duration / len(ks)
            rounds.append(row)
        stage_ms = {name: _median(row[name] for row in rounds) for name in stages}
        out = {
            f"model.sample_units_ms.{lb}": stage_ms["model.sample_units"],
            f"model.observe_arrays_ms.{lb}": stage_ms["model.observe_arrays"],
            f"simulation.replicate_stats_ms.{lb}": stage_ms["simulation.replicate_stats"],
            f"simulation.aggregate_self_ms.{lb}": _median(
                row["simulation.replicate_stats"]
                - sum(ms for name, ms in row.items() if name != "simulation.replicate_stats")
                for row in rounds),
        }
        if n == self.bench.sizes.n_list[0] and replicate_rng is not None:
            out["simulation.rng_setup_us"] = 1e3 * stage_ms["simulation.rng_setup"]
        if n == self.bench.sizes.n_list[-1]:
            observed = model.observe_arrays(*samples[0], config.design)
            out[f"model.sample_bytes.{lb}"] = sum(a.nbytes for a in (*samples[0], *observed))

        self.tracer.instrument("geomlife", only={"run_replicate"})
        try:
            with self.tracer.span("simulation.run_study", n=n, K=K) as study:
                report = simulation.run_study(config)
        finally:
            self.tracer.restore()
        replicates = [s.duration for s in self.tracer.spans if s.parent_id == study.span_id]
        if replicates:
            out[f"simulation.run_replicate_ms.{lb}"] = 1e3 * statistics.fmean(replicates)
        out[f"simulation.study_self_s.{lb}"] = study.duration - sum(replicates)
        out[f"simulation.useful_ratio.{lb}"] = (K - report.degenerate_count) / K
        return out

    def workers(self) -> dict:
        """Serial over two-worker wall of one n=1e4 study, each in a fresh process."""
        walls = {}
        for workers in (None, "2"):
            env = dict(self.bench.env)
            if workers:
                env["GEOMLIFE_WORKERS"] = workers
            child, _ = self.timed(
                "simulation.run_study.fresh_process",
                lambda: self.bench.python(*self.bench.study_argv(10**4, self.bench.sizes.K), env=env),
                workers=workers or "unset")
            if child.code != 0:
                raise RuntimeError(f"study child failed: {child.stderr.strip()[-300:]}")
            walls[workers] = float(child.stdout.split()[0])
        return {"simulation.workers2_speedup.n1e4": walls[None] / walls["2"]}
