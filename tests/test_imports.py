"""Import budget: each subcommand loads only what it uses.

``estimate``, ``check --input`` and ``paths`` run on the standard library
alone; only ``simulate`` and the opt-in ``check --random`` load numpy;
nothing loads scipy, which is a test-only dependency, and ``simulate``
starts no process pool.  Each case runs a fresh interpreter with
``-X importtime`` and reads the modules it imported from stderr.

The three standard-library subcommands also leave out the modules they do
not run: ``estimate`` loads ``geomlife.panel_io``, ``geomlife.estimator``
and ``geomlife.model``, and ``check --input`` adds
``geomlife.likelihood``; ``paths`` loads ``geomlife.model`` and
``geomlife.paths`` but neither ``geomlife.panel_io`` nor
``geomlife.estimator``.  None loads
``dataclasses``, and only ``estimate``, for its normal quantile, loads
``statistics``; ``json`` is loaded for JSON output only, so ``paths`` and
``estimate --output-format csv`` skip it.  ``simulate`` does not load
``dataclasses`` either.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import geomlife

SRC = Path(geomlife.__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent.parent / "data"
COMMON = ["--s", "2", "--G", "5"]
ESTIMATE_INPUTS = {  # "UNITS" stands for the path of the units_file fixture
    "table1": ["--input", str(DATA / "table1.csv")],
    "table3": ["--input", str(DATA / "table3.csv")],
    "units": ["--input", "UNITS", "--format", "units"],
}
SIMULATE = ["-m", "geomlife.cli", "simulate", "--theta0", "0.1", "--K", "4", "--n", "50",
            "--seed", "1", *COMMON]


def imported_modules(*args, cwd):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=120,
    )
    assert proc.returncode in (0, 2), proc.stderr[-2000:]
    prefix = "import time:"
    rows = [line[len(prefix):].split("|") for line in proc.stderr.splitlines() if line.startswith(prefix)]
    return {row[2].strip() for row in rows[1:]}  # rows[0] is the column header


def top_level(modules):
    return {name.split(".")[0] for name in modules}


@pytest.fixture
def units_file(tmp_path):
    path = tmp_path / "units.csv"
    path.write_text("t,d,censored\n0,1,0\n1,,1\n2,2,0\n")
    return path


@pytest.mark.parametrize("output_format", ["json", "csv"])
def test_estimate_needs_neither_numpy_nor_scipy(tmp_path, units_file, output_format):
    for argv in ESTIMATE_INPUTS.values():
        argv = [str(units_file) if arg == "UNITS" else arg for arg in argv]
        modules = imported_modules(
            "-m", "geomlife.cli", "estimate", *argv, *COMMON, "--output-format", output_format, cwd=tmp_path
        )
        assert "geomlife.estimator" in modules  # the probe sees the program's imports
        assert not top_level(modules) & {"numpy", "scipy"}


@pytest.mark.parametrize(
    "argv,module",
    [
        (["check", "--input", str(DATA / "table1.csv")], "geomlife.likelihood"),
        (["check", "--input", str(DATA / "table3.csv"), "--output-format", "csv"], "geomlife.likelihood"),
        (["check", "--input", "UNITS", "--format", "units"], "geomlife.likelihood"),
        (["paths", "--x", "4", "--t", "3", "--theta", "0.1"], "geomlife.paths"),
    ],
    ids=["check-aggregate", "check-stratified-csv", "check-units", "paths"],
)
def test_check_input_and_paths_need_neither_numpy_nor_scipy(tmp_path, units_file, argv, module):
    argv = [str(units_file) if arg == "UNITS" else arg for arg in argv]
    modules = imported_modules("-m", "geomlife.cli", *argv, *COMMON, cwd=tmp_path)
    assert module in modules  # the probe sees the program's imports
    assert not top_level(modules) & {"numpy", "scipy"}


@pytest.fixture(scope="module")
def interpreter_modules(tmp_path_factory):
    """What a bare interpreter imports on this host, e.g. through ``site``."""
    return imported_modules("-c", "pass", cwd=tmp_path_factory.mktemp("bare"))


#: What each standard-library subcommand does not run.
NOT_IN_ESTIMATE = {"dataclasses"}
NOT_IN_CHECK = {"dataclasses", "statistics"}
NOT_IN_PATHS = {"dataclasses", "statistics", "geomlife.panel_io", "geomlife.estimator", "json"}


@pytest.mark.parametrize(
    "argv,module,unwanted",
    [
        *[
            (["estimate", *source, "--output-format", fmt], "geomlife.estimator",
             NOT_IN_ESTIMATE | ({"json"} if fmt == "csv" else set()))
            for source in ESTIMATE_INPUTS.values()
            for fmt in ("json", "csv")
        ],
        (["check", "--input", str(DATA / "table1.csv")], "geomlife.likelihood", NOT_IN_CHECK),
        (["check", "--input", "UNITS", "--format", "units"], "geomlife.likelihood", NOT_IN_CHECK),
        (["paths", "--x", "4", "--t", "3", "--theta", "0.1"], "geomlife.paths", NOT_IN_PATHS),
    ],
    ids=[*[f"estimate-{name}-{fmt}" for name in ESTIMATE_INPUTS for fmt in ("json", "csv")],
         "check-aggregate", "check-units", "paths"],
)
def test_stdlib_subcommands_skip_dataclasses_and_statistics(
    tmp_path, units_file, interpreter_modules, argv, module, unwanted
):
    argv = [str(units_file) if arg == "UNITS" else arg for arg in argv]
    modules = imported_modules("-m", "geomlife.cli", *argv, *COMMON, cwd=tmp_path) - interpreter_modules
    assert module in modules  # the probe sees the subcommand's own module
    assert not (modules | top_level(modules)) & unwanted


@pytest.mark.parametrize(
    "argv",
    [
        ["-m", "geomlife.cli", "check", "--input", str(DATA / "table1.csv"), *COMMON],
        ["-m", "geomlife.cli", "check", "--random", "3", "--seed", "1", "--s", "2"],
        ["-m", "geomlife.cli", "paths", "--x", "4", "--t", "3", "--theta", "0.1", *COMMON],
        ["-m", "geomlife.cli", "simulate", "--theta0", "0.1", "--K", "4", "--n", "50",
         "--seed", "1", *COMMON],
        ["-c", "import geomlife"],
        ["-c", "from geomlife import *"],
    ],
    ids=["check-input", "check-random", "paths", "simulate", "import", "import-star"],
)
def test_no_subcommand_loads_scipy(tmp_path, argv):
    assert "scipy" not in top_level(imported_modules(*argv, cwd=tmp_path))


def test_simulate_starts_no_process_pool(tmp_path):
    modules = imported_modules(*SIMULATE, cwd=tmp_path)
    assert "geomlife.simulation" in modules
    assert not top_level(modules) & {"multiprocessing", "concurrent"}


def test_simulate_skips_dataclasses(tmp_path, interpreter_modules):
    modules = imported_modules(*SIMULATE, cwd=tmp_path)
    assert "geomlife.simulation" in modules  # the probe sees the program's imports
    assert "dataclasses" not in top_level(modules - interpreter_modules)


def test_bare_import_loads_no_submodule(tmp_path):
    modules = imported_modules("-c", "import geomlife", cwd=tmp_path)
    assert "geomlife" in modules
    assert not {m for m in modules if m.startswith("geomlife.")}
    assert "numpy" not in top_level(modules)


def test_every_public_name_resolves():
    for name in geomlife.__all__:
        value = getattr(geomlife, name)
        assert value.__name__ == name
        assert value.__module__.startswith("geomlife.")
    assert set(geomlife.__all__) <= set(dir(geomlife))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        geomlife.no_such_name
