"""Tests of the benchmark harness itself.

Run from the repository root:  python -m pytest perfbench/tests -q
The smoke runs use tiny sizes, so they check the harness, not the program's speed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import inputs  # noqa: E402
from probes import Probes, metric_names  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import FULL, SMOKE  # noqa: E402

WORKLOADS = ["cli-aggregate", "units-ingest", "mc-study"]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(root: Path, workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(argv, capture_output=True, text=True, cwd=root, timeout=170)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    return out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct_and_reports_every_metric(workload, trace):
    out = result(run(ROOT, workload, trace, "--smoke"))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    if trace:
        expected = [name for name, _ in metric_names(SMOKE.n_list)]
    else:
        expected = [m["name"] for m in SPEC["end_to_end"]]
    assert list(out["metrics"]) == expected
    for name, metric in out["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        assert all(m["value"] > 0 for m in out["metrics"].values())


def test_benchmark_json_names_what_the_harness_reports():
    per_layer = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
    assert per_layer == metric_names(FULL.n_list)
    assert [w["name"] for w in SPEC["workloads"]] == WORKLOADS


def test_wrong_program_output_is_counted_as_failed(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    estimator = tmp_path / "src" / "geomlife" / "estimator.py"
    source = estimator.read_text()
    assert "return stats.m_uncens / R\n" in source
    estimator.write_text(source.replace("return stats.m_uncens / R\n", "return stats.m_uncens / (R + 1)\n"))
    out = result(run(tmp_path, "cli-aggregate", 0, "--smoke"))
    assert not out["correct"]
    assert 1 <= out["failed"] <= out["attempted"]


def test_rng_setup_is_absent_when_the_program_has_no_replicate_rng(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    simulation = tmp_path / "src" / "geomlife" / "simulation.py"
    source = simulation.read_text()
    assert "_replicate_rng(" in source
    simulation.write_text(source.replace("_replicate_rng(", "_rng_for_replicate("))
    out = result(run(tmp_path, "mc-study", 1, "--smoke"))
    assert out["correct"]
    expected = [name for name, _ in metric_names(SMOKE.n_list) if name != "simulation.rng_setup_us"]
    assert list(out["metrics"]) == expected


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, "cli-aggregate", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_reference_panel_gives_the_published_estimate():
    exp = inputs.Expected.of(inputs.REFERENCE_PANEL)
    assert (exp.m, exp.m_uncens, exp.risk_time) == (1447814, 275162, 2727516)
    assert exp.theta == inputs.PUBLISHED_THETA
    assert abs(exp.se - inputs.PUBLISHED_SE) <= 1e-7


def test_generated_tables_equal_the_bundled_data():
    assert inputs.marginal_csv(inputs.REFERENCE_PANEL) == (ROOT / "data" / "table1.csv").read_bytes()
    assert inputs.stratified_csv(inputs.REFERENCE_PANEL) == (ROOT / "data" / "table3.csv").read_bytes()
    assert inputs.read_stratified(inputs.stratified_csv(inputs.REFERENCE_PANEL)) == inputs.REFERENCE_PANEL


def test_unit_rows_depend_only_on_the_seed_and_keep_the_counts():
    panel = inputs.scaled_panel(inputs.REFERENCE_PANEL, 1000)
    first = inputs.unit_rows(panel, 5)
    assert first == inputs.unit_rows(panel, 5)
    assert first != inputs.unit_rows(panel, 6)
    rows = [line.split(",") for line in first.decode().splitlines()[1:]]
    uncensored = [int(d) for _, d, c in rows if c == "0"]
    censored = [d for _, d, c in rows if c == "1"]
    exp = inputs.Expected.of(panel)
    assert len(uncensored) == exp.m_uncens and len(censored) == exp.m_cens
    assert sum(uncensored) + inputs.S * len(censored) == exp.risk_time
    assert {"", str(inputs.S)} == set(censored)


def test_checks_reject_wrong_outputs():
    exp = inputs.Expected.of(inputs.REFERENCE_PANEL)
    good = {"m": exp.m, "m_uncens": exp.m_uncens, "risk_time": exp.risk_time,
            "theta_hat": float(exp.theta12), "se": exp.se}
    assert checks.check_estimate_json(0, json.dumps(good), exp) == []
    assert checks.check_estimate_json(1, json.dumps(good), exp)
    assert checks.check_estimate_json(0, json.dumps({**good, "m_uncens": exp.m_uncens + 1}), exp)
    assert checks.check_estimate_json(0, json.dumps({**good, "se": exp.se + 2e-7}), exp)
    assert checks.check_estimate_json(0, "not json", exp)

    rows = checks.expected_paths_rows()
    text = "\n".join([",".join(checks.PATHS_COLUMNS)] + [",".join(map(str, r)) for r in rows]) + "\n"
    assert checks.check_paths(0, text) == []
    assert checks.check_paths(0, text.replace("\n2,", "\n9,", 1))


def test_tracer_records_nesting_and_self_time():
    module = types.ModuleType("fakepkg")

    def inner():
        return 1

    def outer():
        return inner() + module.inner()

    inner.__module__ = outer.__module__ = "fakepkg"
    module.inner, module.outer = inner, outer
    sys.modules["fakepkg"] = module
    tracer = Tracer()
    try:
        tracer.instrument("fakepkg")
        with tracer.span("op"):
            assert module.outer() == 2
    finally:
        tracer.restore()
        del sys.modules["fakepkg"]
    assert module.outer is outer
    names = [s.name for s in tracer.spans]
    assert names == ["op", "fakepkg.outer", "fakepkg.inner"]
    op, out, inn = tracer.spans
    assert inn.parent_id == out.span_id and out.parent_id == op.span_id
    assert len({s.trace_id for s in tracer.spans}) == 1
    table = tracer.self_times()
    assert table["fakepkg.outer"]["self_s"] == pytest.approx(out.duration - inn.duration)


def test_a_missing_layer_is_reported_absent():
    probes = Probes(bench=None, tracer=Tracer())

    def gone():
        raise AttributeError("module 'geomlife.panel_io' has no attribute 'parse_units'")

    probes.group("panel_io.parse_units_s panel_io.units_rows", gone)
    probes.group("paths.build_paths_us", lambda: {"paths.build_paths_us": 3.0})
    assert set(probes.absent) == {"panel_io.parse_units_s", "panel_io.units_rows"}
    assert probes.values == {"paths.build_paths_us": 3.0}
