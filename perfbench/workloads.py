"""The three workloads: what each sets up, what one operation is, and its checks.

Every workload is driven by one closed-loop client: the next operation
starts when the previous one has returned.  CLI operations run
``python -m geomlife.cli`` as a subprocess with ``PYTHONPATH`` set to the
checkout's ``src``; the study runs in this process.
"""

from __future__ import annotations

import io
import json
import math
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import inputs
from inputs import G, S, Expected

#: Subprocess time limit; a call that exceeds it is killed and counts as failed.
CALL_TIMEOUT_S = 120

#: The study of criterion 08: theta0 = 0.1, s = 2, G = 5, uniform truncation ages.
THETA0 = 0.1

#: Runs one study in a fresh interpreter: argv theta0, s, G, n, K, seed, with
#: truncation ages uniform on 1..G.  Prints its wall time and degenerate count.
#: The mc-study warm-up and the worker probe use it, through :meth:`Bench.study_argv`.
STUDY_CODE = """
import sys, time
from geomlife.model import StudyDesign, TruncationDist
from geomlife.simulation import SimConfig, run_study
theta0 = float(sys.argv[1])
s, G, n, K, seed = map(int, sys.argv[2:7])
config = SimConfig(theta0=theta0, design=StudyDesign(s=s, G=G), tdist=TruncationDist.uniform(G),
                   n=n, n_replicates=K, seed=seed)
start = time.perf_counter()
report = run_study(config)
print(time.perf_counter() - start, report.degenerate_count)
"""


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; ``FULL`` is the benchmark, ``SMOKE`` only tests the harness."""

    panel_divisor: int  # unit-level panel = reference panel // divisor
    warmup_divisor: int  # the small unit file of the units-ingest warm-up call
    n_list: tuple[int, ...]
    K: int
    setup_reps: int
    process_reps: int  # fresh interpreters per process-level probe


FULL = Sizes(1, 100, (10**3, 10**4, 10**5), 1000, 5, 3)
SMOKE = Sizes(100, 1000, (10**3, 3 * 10**3, 10**4), 1000, 1, 1)


def n_label(n: int) -> str:
    exp = round(math.log10(n))
    return f"n1e{exp}" if 10**exp == n else f"n{n}"


@dataclass
class Child:
    code: int
    wall: float
    stdout: str
    stderr: str


@dataclass
class OpResult:
    wall: float
    problems: list[str]
    detail: dict = field(default_factory=dict)


class Bench:
    """What every workload and probe shares: paths, seed, sizes, child environment."""

    def __init__(self, root: Path, workdir: Path, seed: int, sizes: Sizes, env: dict):
        self.root = root
        self.workdir = workdir
        self.seed = seed
        self.sizes = sizes
        self.env = env

    def child(self, argv: list[str], env: dict | None = None) -> Child:
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                argv, capture_output=True, text=True, env=env or self.env,
                cwd=self.root, timeout=CALL_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired as exc:
            return Child(-9, time.perf_counter() - start, "", f"timed out: {exc}")
        return Child(proc.returncode, time.perf_counter() - start, proc.stdout, proc.stderr)

    def python(self, *args: str, env: dict | None = None) -> Child:
        return self.child([sys.executable, *args], env)

    def cli(self, argv: list[str]) -> Child:
        return self.python("-m", "geomlife.cli", *argv)

    def cli_inprocess(self, argv: list[str]) -> tuple[int, str]:
        """``geomlife.cli.main`` in this process; returns (exit code, stdout)."""
        from geomlife import cli

        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # the program failed: count it, as a subprocess exit would
                return 1, traceback.format_exc(limit=3)
        return code, out.getvalue()

    def path(self, name: str) -> Path:
        return self.workdir / name

    def write_tables(self) -> dict[str, str]:
        """table1.csv and table3.csv, rows in an order drawn from the seed."""
        rng = np.random.default_rng([self.seed, 1])
        panel = inputs.REFERENCE_PANEL
        return {
            "table1.csv": inputs.write(self.path("table1.csv"), inputs.marginal_csv(panel, rng.permutation(3))),
            "table3.csv": inputs.write(self.path("table3.csv"), inputs.stratified_csv(panel, rng.permutation(15))),
        }

    def write_units(self) -> dict[str, str]:
        """units.csv (the panel, expanded) and the small units-warmup.csv."""
        panel = inputs.read_stratified(inputs.stratified_csv(inputs.REFERENCE_PANEL))
        full = inputs.scaled_panel(panel, self.sizes.panel_divisor)
        small = inputs.scaled_panel(panel, self.sizes.warmup_divisor)
        return {
            "units.csv": inputs.write(self.path("units.csv"), inputs.unit_rows(full, self.seed)),
            "units-warmup.csv": inputs.write(self.path("units-warmup.csv"), inputs.unit_rows(small, self.seed)),
        }

    def units_expected(self, divisor: int | None = None) -> Expected:
        return Expected.of(inputs.scaled_panel(inputs.REFERENCE_PANEL, divisor or self.sizes.panel_divisor))

    def units_argv(self, name: str = "units.csv") -> list[str]:
        return ["estimate", "--format", "units", "--input", str(self.path(name)), "--s", str(S), "--G", str(G)]

    def study_argv(self, n: int, K: int) -> list[str]:
        """Arguments of :data:`STUDY_CODE` for one study of the benchmark's design."""
        return ["-c", STUDY_CODE, *map(str, (THETA0, S, G, n, K, self.seed))]

    def study_config(self, n: int, K: int | None = None):
        from geomlife.model import StudyDesign, TruncationDist
        from geomlife.simulation import SimConfig

        return SimConfig(
            theta0=THETA0, design=StudyDesign(s=S, G=G), tdist=TruncationDist.uniform(G),
            n=n, n_replicates=K or self.sizes.K, seed=self.seed,
        )


class CliAggregate:
    """Four CLI calls on the aggregate reference tables, cycled."""

    name = "cli-aggregate"
    overhead_pairs = 10

    def __init__(self, bench: Bench):
        self.bench = bench
        exp = Expected.of(inputs.REFERENCE_PANEL)
        common = ["--s", str(S), "--G", str(G)]
        t1, t3 = str(bench.path("table1.csv")), str(bench.path("table3.csv"))
        p = checks.PATHS_UNIT
        self.calls = [
            ("estimate", ["estimate", "--input", t1, *common], lambda c, o: checks.check_estimate_json(c, o, exp)),
            ("estimate_csv", ["estimate", "--input", t3, "--output-format", "csv", *common],
             lambda c, o: checks.check_estimate_csv(c, o, exp)),
            ("check", ["check", "--input", t1, *common], lambda c, o: checks.check_oracle(c, o, exp)),
            ("paths", ["paths", "--x", str(p["x"]), "--t", str(p["t"]), "--theta", str(p["theta"]), *common],
             checks.check_paths),
        ]

    def make_inputs(self) -> dict[str, str]:
        return self.bench.write_tables()

    def warmup(self) -> list[str]:
        _, argv, check = self.calls[0]
        child = self.bench.cli(argv)
        return check(child.code, child.stdout)

    def op(self, i: int) -> OpResult:
        kind, argv, check = self.calls[i % len(self.calls)]
        child = self.bench.cli(argv)
        return OpResult(child.wall, check(child.code, child.stdout), {"kind": kind})

    def inprocess_op(self) -> list[str]:
        problems = []
        for _, argv, check in self.calls:
            problems += check(*self.bench.cli_inprocess(argv))
        return problems

    def extras(self, ops: list[OpResult]) -> dict:
        out = {}
        for kind, _, _ in self.calls:
            walls = [o.wall for o in ops if o.detail["kind"] == kind]
            if walls:
                out[f"op_s.p50.{kind}"] = (float(np.median(walls)), "s")
        return out


class UnitsIngest:
    """One ``estimate --format units`` call on the expanded reference panel."""

    name = "units-ingest"
    overhead_pairs = 1

    def __init__(self, bench: Bench):
        self.bench = bench
        self.expected = bench.units_expected()

    def make_inputs(self) -> dict[str, str]:
        return self.bench.write_units()

    def warmup(self) -> list[str]:
        child = self.bench.cli(self.bench.units_argv("units-warmup.csv"))
        exp = self.bench.units_expected(self.bench.sizes.warmup_divisor)
        return checks.check_estimate_json(child.code, child.stdout, exp)

    def op(self, i: int) -> OpResult:
        child = self.bench.cli(self.bench.units_argv())
        return OpResult(child.wall, checks.check_estimate_json(child.code, child.stdout, self.expected))

    def inprocess_op(self) -> list[str]:
        return checks.check_estimate_json(*self.bench.cli_inprocess(self.bench.units_argv()), self.expected)

    def extras(self, ops: list[OpResult]) -> dict:
        rows = self.expected.m * len(ops)
        return {"rows_per_s": (rows / sum(o.wall for o in ops), "1/s")}


class McStudy:
    """``run_study`` at each n of the sweep, K replicates each, in this process."""

    name = "mc-study"
    overhead_pairs = 1

    def __init__(self, bench: Bench):
        self.bench = bench

    def make_inputs(self) -> dict[str, str]:
        sizes = self.bench.sizes
        config = {"theta0": THETA0, "s": S, "G": G, "tdist": "uniform", "K": sizes.K,
                  "n_list": list(sizes.n_list), "seed": self.bench.seed}
        return {"study-config.json": inputs.sha256(json.dumps(config, sort_keys=True).encode())}

    def warmup(self) -> list[str]:
        """A small study in a fresh interpreter (import included), then one in this process."""
        from geomlife.simulation import run_study

        n = self.bench.sizes.n_list[0]
        child = self.bench.python(*self.bench.study_argv(n, K=20))
        try:
            run_study(self.bench.study_config(n, K=20))
        except Exception:  # the program failed: count it, as a failed child is
            return [traceback.format_exc(limit=3)]
        return checks.exit_code(child.code)

    def op(self, i: int) -> OpResult:
        from geomlife.simulation import run_study

        reports, walls = {}, {}
        start = time.perf_counter()
        try:
            for n in self.bench.sizes.n_list:
                t0 = time.perf_counter()
                reports[n] = run_study(self.bench.study_config(n))
                walls[n] = time.perf_counter() - t0
        except Exception:  # the program failed: count it and keep measuring
            return OpResult(time.perf_counter() - start, [traceback.format_exc(limit=3)])
        return OpResult(sum(walls.values()), checks.check_study(reports), {"walls": walls})

    def inprocess_op(self) -> list[str]:
        return self.op(0).problems

    def extras(self, ops: list[OpResult]) -> dict:
        out = {}
        for n in self.bench.sizes.n_list:
            spent = sum(o.detail["walls"][n] for o in ops if "walls" in o.detail)
            done = sum(1 for o in ops if "walls" in o.detail) * self.bench.sizes.K
            if spent:
                out[f"replicates_per_s.{n_label(n)}"] = (done / spent, "1/s")
        return out


WORKLOADS = {w.name: w for w in (CliAggregate, UnitsIngest, McStudy)}
