import csv
import json
from pathlib import Path

import numpy as np
import pytest

from geomlife.cli import _json_ready, main

from helpers import table1_csv, table3_csv

DATA = Path(__file__).resolve().parent.parent / "data"
GOLDEN = Path(__file__).resolve().parent / "golden"
DESIGN_FLAGS = ["--s", "2", "--G", "5"]
SIMULATE = ["simulate", "--theta0", "0.1", *DESIGN_FLAGS, "--K", "2", "--seed", "1"]
MSE_STUDY = ["simulate", "--theta0", "0.1", *DESIGN_FLAGS, "--n", "50,1000", "--K", "50",
             "--seed", "33"]
DEGENERATE_STUDY = ["simulate", "--theta0", "0.000001", "--s", "1", "--G", "1", "--K", "3", "--n", "1",
                    "--seed", "1"]


@pytest.fixture
def table1_path(tmp_path):
    path = tmp_path / "table1.csv"
    path.write_text(table1_csv())
    return path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEstimate:
    def test_reference_table(self, capsys, table1_path):
        code, out, err = run(
            capsys,
            "estimate",
            "--input", str(table1_path),
            "--format", "aggregate",
            "--s", "2",
            "--G", "5",
            "--level", "0.95",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["theta_hat"] == pytest.approx(0.100884, abs=5e-7)
        assert payload["ci"][0] == pytest.approx(0.100526, abs=5e-6)
        assert payload["ci"][1] == pytest.approx(0.101241, abs=5e-6)
        assert payload["m"] == 1447814
        assert "0.1009" in err
        assert "[0.1005, 0.1013]" in err
        assert "9.88" in err and "9.95" in err

    @pytest.mark.parametrize("level,label", [("0.95", "95%"), ("0.975", "97.5%"), ("0.999", "99.9%")])
    def test_summary_names_the_level(self, capsys, level, label):
        code, _, err = run(capsys, "estimate", "--input", str(DATA / "table1.csv"), *DESIGN_FLAGS, "--level", level)
        assert code == 0
        assert err.splitlines()[1].startswith(f"{label} CI for theta: [")

    def test_bundled_data_file(self, capsys):
        code, out, _ = run(
            capsys, "estimate", "--input", str(DATA / "table3.csv"), "--s", "2", "--G", "5"
        )
        assert code == 0
        assert json.loads(out)["risk_time"] == 2727516

    def test_csv_output(self, capsys, table1_path, tmp_path):
        out_path = tmp_path / "result.csv"
        code, out, _ = run(
            capsys,
            "estimate",
            "--input", str(table1_path),
            "--s", "2",
            "--G", "5",
            "--output-format", "csv",
            "--output", str(out_path),
        )
        assert code == 0
        assert out == ""
        assert out_path.read_text().splitlines()[0] == (
            "theta_hat,se,var,level,ci_lo,ci_hi,life_expectancy,life_expectancy_ci_lo,"
            "life_expectancy_ci_hi,m,m_uncens,m_cens,risk_time,degenerate"
        )
        rows = list(csv.DictReader(out_path.open()))
        assert len(rows) == 1
        assert float(rows[0]["theta_hat"]) == pytest.approx(0.100884, abs=5e-7)

    def test_empty_table_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("cohort,outcome,count\n")
        code, _, err = run(capsys, "estimate", "--input", str(path), "--s", "2", "--G", "5")
        assert code == 1
        assert "no risk time" in err

    def test_only_censored_units_degenerate(self, capsys, tmp_path):
        path = tmp_path / "units.csv"
        path.write_text("t,d,censored\n0,,1\n1,,1\n3,,1\n")
        code, out, err = run(
            capsys,
            "estimate",
            "--input", str(path),
            "--format", "units",
            "--s", "2",
            "--G", "5",
        )
        assert code == 2
        payload = json.loads(out)
        assert payload["theta_hat"] == 0.0
        assert payload["degenerate"] is True
        assert "degenerate" in err

    def test_missing_input_flag(self, capsys):
        code, _, err = run(capsys, "estimate", "--s", "2", "--G", "5")
        assert code == 1
        assert "--input" in err

    def test_unit_file_matches_aggregate_table(self, capsys, tmp_path):
        path = tmp_path / "units.csv"
        path.write_bytes(b"t,d,censored\r\n0,1,0\r\n1,,1\n\n1,2,1\n2,2,0\n")
        units = run(capsys, "estimate", "--input", str(path), "--format", "units", "--s", "2", "--G", "5")
        table = tmp_path / "table.csv"
        table.write_text("cohort,outcome,count\n0,1,1\n1,cens,2\n2,2,1\n")
        aggregate = run(capsys, "estimate", "--input", str(table), "--s", "2", "--G", "5")
        assert units == aggregate
        assert units[0] == 0

    def test_bad_unit_row_reports_line(self, capsys, tmp_path):
        path = tmp_path / "units.csv"
        path.write_text("t,d,censored\n0,1,0\n0,1,0\n9,1,0\n")
        code, out, err = run(
            capsys, "estimate", "--input", str(path), "--format", "units", "--s", "2", "--G", "5"
        )
        assert (code, out) == (1, "")
        assert err == "error: line 4: t 9 outside 0..4\n"

    def test_mixed_aggregate_table_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text(table1_csv() + table3_csv().split("\n", 1)[1])
        code, out, err = run(capsys, "estimate", "--input", str(path), "--s", "2", "--G", "5")
        assert (code, out) == (1, "")
        assert "line 5" in err and "cannot be mixed" in err

    @pytest.mark.parametrize(
        "fmt,text",
        [
            ("units", "t,d,censored\n0,{},0\n"),
            ("aggregate", "cohort,outcome,count\n0,1,{}\n"),
        ],
    )
    def test_overlong_cell_is_input_error(self, capsys, tmp_path, fmt, text):
        path = tmp_path / "long.csv"
        path.write_text(text.format("1" * 140_000))
        code, out, err = run(
            capsys, "estimate", "--input", str(path), "--format", fmt, "--s", "2", "--G", "5"
        )
        assert (code, out) == (1, "")
        assert err == "error: line 2: field larger than field limit (131072)\n"

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("cohort,outcome,count\n0,9,5\n")
        code, _, err = run(capsys, "estimate", "--input", str(path), "--s", "2", "--G", "5")
        assert code == 1
        assert "line 2" in err


class TestSimulate:
    def test_mse_table(self, capsys, tmp_path):
        out_path = tmp_path / "mse.csv"
        code, _, err = run(
            capsys,
            "simulate",
            "--theta0", "0.1",
            "--s", "2",
            "--G", "5",
            "--K", "8",
            "--n", "200,400",
            "--seed", "42",
            "--output-format", "csv",
            "--output", str(out_path),
        )
        assert code == 0
        rows = list(csv.DictReader(out_path.open()))
        assert [row["n"] for row in rows] == ["200", "400"]
        assert all(float(row["mse"]) >= 0 for row in rows)

    def test_single_replicate(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate",
            "--theta0", "0.1",
            "--s", "2",
            "--G", "5",
            "--K", "1",
            "--n", "50",
            "--seed", "1",
        )
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 1
        assert rows[0]["K"] == 1

    def test_byte_identical_reruns(self, capsys, tmp_path):
        args = [
            "simulate",
            "--theta0", "0.1",
            "--s", "2",
            "--G", "5",
            "--K", "12",
            "--n", "300",
            "--seed", "9",
        ]
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert run(capsys, *args, "--output", str(first))[0] == 0
        assert run(capsys, *args, "--output", str(second))[0] == 0
        assert first.read_bytes() == second.read_bytes()

    def test_explicit_tdist(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate",
            "--theta0", "0.2",
            "--s", "2",
            "--G", "3",
            "--K", "4",
            "--n", "100",
            "--seed", "2",
            "--tdist", "0.5,0.25,0.25",
        )
        assert code == 0
        assert json.loads(out)[0]["theta0"] == 0.2

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--level", "1.5"], "confidence level must be in (0, 1), got 1.5"),
            (["--seed", "-1"], "seed must be an integer >= 0, got -1"),
            (["--level", "0.9999999999999999"],  # (1 + level) / 2 rounds to 1
             "confidence level 0.9999999999999999 is too close to 1 for a finite interval"),
        ],
        ids=["level", "seed", "level-next-to-1"],
    )
    def test_bad_level_or_seed(self, capsys, flags, message):
        code, out, err = run(
            capsys,
            "simulate",
            "--theta0", "0.1",
            "--s", "2",
            "--G", "5",
            "--K", "2",
            "--n", "50",
            "--seed", "1",
            *flags,
        )
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("n_list", ["100,,200", "1e3"])
    def test_bad_n_list_names_the_flag(self, capsys, n_list):
        code, out, err = run(
            capsys,
            "simulate",
            "--theta0", "0.1",
            "--s", "2",
            "--G", "5",
            "--K", "2",
            "--n", n_list,
            "--seed", "1",
        )
        assert (code, out) == (1, "")
        assert err == f"error: --n must be an integer or comma-separated integers, got {n_list!r}\n"

    def test_bad_n_is_rejected_before_any_study_runs(self, capsys):
        code, out, err = run(capsys, *SIMULATE, "--n", "10,-5")
        assert (code, out, err) == (1, "", "error: n must be >= 1, got -5\n")  # no study's stderr line

    def test_bad_k_names_n_replicates(self, capsys):
        code, out, err = run(capsys, *SIMULATE, "--K", "0", "--n", "10")
        assert (code, out, err) == (1, "", "error: n_replicates must be >= 1, got 0\n")

    def test_workers_config_key_is_unknown(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"workers": 2}))
        code, out, err = run(
            capsys,
            "simulate",
            "--config", str(cfg),
            "--theta0", "0.1",
            "--s", "2",
            "--G", "5",
            "--K", "2",
            "--n", "50",
            "--seed", "1",
        )
        assert (code, out, err) == (1, "", "error: --config file has unknown key(s): 'workers'\n")

    def test_study_and_n_list_are_gone(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"study": "mse", "n-list": "5,6"}))
        code, out, err = run(capsys, *SIMULATE, "--config", str(cfg), "--n", "50")
        assert (code, out, err) == (1, "", "error: --config file has unknown key(s): 'study', 'n-list'\n")
        with pytest.raises(SystemExit):
            main(["simulate", "--help"])
        help_text = capsys.readouterr().out
        assert "--study" not in help_text and "--n-list" not in help_text

    def test_invalid_tdist(self, capsys):
        code, _, err = run(
            capsys,
            "simulate",
            "--theta0", "0.2",
            "--s", "2",
            "--G", "3",
            "--K", "2",
            "--n", "50",
            "--seed", "2",
            "--tdist", "0.5,0.6,0.2",
        )
        assert code == 1
        assert "sum to 1" in err

    def test_nan_tdist_is_input_error(self, capsys):
        code, out, err = run(
            capsys,
            "simulate",
            "--theta0", "0.1",
            "--s", "2",
            "--G", "3",
            "--K", "20",
            "--n", "500",
            "--seed", "1",
            "--tdist", "nan,0.5,0.5",
        )
        assert (code, out) == (1, "")
        assert "finite" in err


class TestCheck:
    def test_random_cases(self, capsys):
        code, out, err = run(capsys, "check", "--random", "20", "--seed", "7", "--s", "2")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 20
        assert all(row["abs_diff"] <= 1e-6 for row in rows)

    def test_reference_table(self, capsys, table1_path):
        code, out, _ = run(
            capsys, "check", "--input", str(table1_path), "--s", "2", "--G", "5"
        )
        assert code == 0
        assert json.loads(out)[0]["abs_diff"] <= 1e-6

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--random", "0", "--seed", "1", "--s", "2"], "--random must be >= 1, got 0"),
            (["--random", "-1", "--seed", "1", "--s", "2"], "--random must be >= 1, got -1"),
            (["--random", "3", "--seed", "1", "--s", "0"], "--s must be >= 1, got 0"),
            (["--random", "2", "--seed", "-4", "--s", "2"], "--seed must be an integer >= 0, got -4"),
        ],
        ids=["random-zero", "random-negative", "s-zero", "seed-negative"],
    )
    def test_bad_random_case_options(self, capsys, flags, message):
        code, out, err = run(capsys, "check", *flags)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--random", "3", "--seed", "1", "--s", "2", "--format", "units", "--G", "5"],
             "check --random does not use --G, --format"),
            (["--input", str(DATA / "table1.csv"), *DESIGN_FLAGS, "--seed", "4"], "check --input does not use --seed"),
        ],
        ids=["random-with-format-and-G", "input-with-seed"],
    )
    def test_flag_the_mode_does_not_read(self, capsys, flags, message):
        code, out, err = run(capsys, "check", *flags)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_degenerate_stats(self, capsys, tmp_path):
        path = tmp_path / "cens.csv"
        path.write_text("cohort,outcome,count\n,cens,10\n")
        code, _, err = run(capsys, "check", "--input", str(path), "--s", "2", "--G", "5")
        assert code == 2
        assert "degenerate" in err

    def test_theta_hat_one_is_degenerate(self, capsys, tmp_path):
        # every unit fails in year 1: theta_hat = 1, an end the oracle's grid stops short of
        path = tmp_path / "all_fail.csv"
        path.write_text("cohort,outcome,count\n,1,10\n")
        code, out, err = run(capsys, "check", "--input", str(path), "--s", "2", "--G", "5")
        assert (code, json.loads(out)) == (2, [])
        assert err == (
            "case 0: degenerate stats, skipping oracle comparison\n"
            "checked 0 case(s), max |closed-form - argmax| = 0\n"
        )


class TestDesignFlags:
    """A bad --s, --G or --level is named before any row of the input is read."""

    @pytest.mark.parametrize("subcommand", ["estimate", "check"])
    @pytest.mark.parametrize(
        "s,G,message",
        [
            ("0", "5", "window length s must be >= 1, got 0"),
            ("2", "0", "cohort count G must be >= 1, got 0"),
        ],
        ids=["s-zero", "G-zero"],
    )
    def test_aggregate_input(self, capsys, table1_path, subcommand, s, G, message):
        code, out, err = run(capsys, subcommand, "--input", str(table1_path), "--s", s, "--G", G)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_unit_input(self, capsys, tmp_path):
        path = tmp_path / "units.csv"
        path.write_text("t,d,censored\n0,1,0\n")
        code, out, err = run(capsys, "estimate", "--format", "units", "--input", str(path), "--s", "0", "--G", "5")
        assert (code, out, err) == (1, "", "error: window length s must be >= 1, got 0\n")

    @pytest.mark.parametrize(
        "fmt,text,level",
        [
            ("aggregate", "cohort,outcome,count\n", "1.5"),  # no rows: no risk time
            ("units", "t,d,censored\n0,9,0\n", "0"),  # an invalid row
            ("units", "t,d,censored\n0,1,0\n", "nan"),
            ("units", "t,d,censored\n0,1,0\n", "0.9999999999999999"),  # (1 + level) / 2 rounds to 1
        ],
    )
    def test_level(self, capsys, tmp_path, fmt, text, level):
        path = tmp_path / "input.csv"
        path.write_text(text)
        code, out, err = run(
            capsys, "estimate", "--format", fmt, "--input", str(path), "--s", "2", "--G", "5", "--level", level
        )
        if 0 < float(level) < 1:
            message = f"--level {level} is too close to 1 for a finite interval"
        else:
            message = f"--level must be in (0, 1), got {float(level)}"
        assert (code, out, err) == (1, "", f"error: {message}\n")


class TestUsageErrors:
    """argparse's usage errors exit 1 (input error), not 2 (degenerate estimate)."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--bogus"], "geomlife: error: unrecognized arguments: --bogus"),
            (["--s", "two"], "geomlife estimate: error: argument --s: invalid int value: 'two'"),
            (["--output-format", "xml"], "geomlife estimate: error: argument --output-format: invalid choice: 'xml'"),
        ],
        ids=["unknown-flag", "non-integer-s", "bad-choice"],
    )
    def test_exit_input_error(self, capsys, table1_path, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--input", str(table1_path), "--G", "5", *argv])
        captured = capsys.readouterr()
        assert exc.value.code == 1
        assert captured.out == ""
        assert captured.err.startswith("usage: geomlife")
        assert message in captured.err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["paths", "--x", "4", "--t", "3", "--theta", "0.1", *DESIGN_FLAGS, "--output-format", "json"],
             "geomlife: error: unrecognized arguments: --output-format json"),
            (["check", "--input", str(DATA / "table1.csv"), "--random", "3", "--seed", "1", *DESIGN_FLAGS],
             "geomlife check: error: argument --random: not allowed with argument --input"),
            (["estimate", "--input", str(DATA / "table1.csv"), *DESIGN_FLAGS, "--config"],
             "geomlife estimate: error: argument --config: expected one argument"),
            (["--config"], "geomlife: error: argument --config: expected one argument"),
        ],
        ids=["paths-output-format", "check-input-and-random", "config-without-path", "top-level-config-without-path"],
    )
    def test_ignored_or_incomplete_flag(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (1, "")
        assert captured.err.startswith("usage: geomlife")
        assert message in captured.err

    @pytest.mark.parametrize("argv", [["--help"], ["simulate", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: geomlife")


class TestPaths:
    def header_and_rows(self, out):
        lines = out.strip().splitlines()
        reader = csv.DictReader(lines)
        return list(reader)

    def test_event_row(self, capsys):
        code, out, _ = run(
            capsys, "paths", "--x", "4", "--t", "3", "--s", "2", "--G", "5", "--theta", "0.1"
        )
        assert code == 0
        rows = self.header_and_rows(out)
        assert [row["x"] for row in rows] == ["1", "2", "3", "4", "5", "6"]
        at4 = rows[3]
        assert at4["dN_tc"] == "1"
        assert float(at4["dA_tc"]) == pytest.approx(0.1)
        assert float(at4["dM_tc"]) == pytest.approx(0.9)

    def test_truncated_unit(self, capsys):
        code, out, _ = run(
            capsys, "paths", "--x", "2", "--t", "4", "--s", "2", "--G", "5", "--theta", "0.1"
        )
        assert code == 0
        for row in self.header_and_rows(out):
            assert row["dN_tc"] == "0"
            assert float(row["Y_tc_prev"]) == 0.0

    def test_censored_unit(self, capsys):
        code, out, _ = run(
            capsys, "paths", "--x", "10", "--t", "3", "--s", "2", "--G", "5", "--theta", "0.1"
        )
        assert code == 0
        rows = self.header_and_rows(out)
        at_risk = [row["x"] for row in rows if row["Y_tc_prev"] == "1"]
        assert at_risk == ["4", "5"]


class TestGoldenOutput:
    """Recorded stdout of ``check``, ``paths``, ``simulate`` and ``estimate``, compared byte for byte."""

    @pytest.mark.parametrize(
        "name,argv",
        [
            ("check_table1", ["check", "--input", str(DATA / "table1.csv"), *DESIGN_FLAGS]),
            ("check_table1_csv", ["check", "--input", str(DATA / "table1.csv"), *DESIGN_FLAGS,
                                  "--output-format", "csv"]),
            ("check_random", ["check", "--random", "20", "--seed", "7", "--s", "2"]),
            ("paths_event", ["paths", "--x", "4", "--t", "3", "--theta", "0.1", *DESIGN_FLAGS]),
            ("paths_cens", ["paths", "--x", "10", "--t", "3", "--theta", "0.3", *DESIGN_FLAGS]),
            ("paths_trunc", ["paths", "--x", "2", "--t", "4", "--theta", "0.3", *DESIGN_FLAGS]),
            ("paths_s3", ["paths", "--x", "5", "--t", "1", "--theta", "0.7", "--s", "3", "--G", "4"]),
            ("simulate_mse", MSE_STUDY),
            ("simulate_mse_csv", [*MSE_STUDY, "--output-format", "csv"]),
            ("estimate_table3", ["estimate", "--input", str(DATA / "table3.csv"), *DESIGN_FLAGS]),
            # every replicate is degenerate: coverage and ks_distance are null in JSON, empty in CSV
            ("simulate_degenerate", DEGENERATE_STUDY),
            ("simulate_degenerate_csv", [*DEGENERATE_STUDY, "--output-format", "csv"]),
        ],
    )
    def test_stdout_matches_the_recording(self, capsys, name, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()

    @pytest.mark.parametrize("before", [True, False], ids=["config-first", "subcommand-first"])
    def test_config_before_or_after_subcommand(self, capsys, tmp_path, before):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"s": 2, "G": 5, "level": 0.9, "output-format": "csv"}))
        estimate = ["estimate", "--input", str(DATA / "table3.csv")]
        argv = ["--config", str(cfg), *estimate] if before else [*estimate, "--config", str(cfg)]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.encode() == (GOLDEN / "estimate_table3_config.out").read_bytes()


class TestConfigFile:
    def test_config_supplies_defaults(self, capsys, table1_path, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"s": 2, "G": 5, "level": 0.99}))
        code, out, _ = run(
            capsys, "estimate", "--config", str(cfg), "--input", str(table1_path)
        )
        assert code == 0
        assert json.loads(out)["level"] == 0.99

    def test_flags_win_over_config(self, capsys, table1_path, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"s": 2, "G": 5, "level": 0.99}))
        code, out, _ = run(
            capsys,
            "estimate",
            "--config", str(cfg),
            "--input", str(table1_path),
            "--level", "0.9",
        )
        assert code == 0
        assert json.loads(out)["level"] == 0.9

    def test_unknown_config_key(self, capsys, table1_path, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"s": 2, "G": 5, "levle": 0.9}))
        code, out, err = run(
            capsys, "estimate", "--config", str(cfg), "--input", str(table1_path)
        )
        assert (code, out) == (1, "")
        assert "'levle'" in err

    def test_config_keys_of_other_subcommands_accepted(self, capsys, table1_path, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"s": 2, "G": 5, "n": "100,200", "theta0": 0.1}))
        code, _, _ = run(capsys, "estimate", "--config", str(cfg), "--input", str(table1_path))
        assert code == 0

    def test_config_values_are_not_flags_for_exclusive_groups(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"random": 3}))
        code, out, _ = run(capsys, "check", "--config", str(cfg), "--input", str(DATA / "table1.csv"), *DESIGN_FLAGS)
        assert code == 0
        assert [row["case"] for row in json.loads(out)] == [0]

    def test_explicit_input_beats_a_config_random(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"random": 3, "seed": 1}))
        code, out, _ = run(capsys, "check", "--config", str(cfg), "--input", str(DATA / "table1.csv"), *DESIGN_FLAGS)
        assert code == 0
        assert out.encode() == (GOLDEN / "check_table1.out").read_bytes()

    def test_explicit_random_beats_a_config_input(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"input": str(DATA / "table1.csv"), "G": 5}))
        code, out, _ = run(capsys, "check", "--config", str(cfg), "--random", "2", "--seed", "1", "--s", "2")
        assert code == 0
        assert [row["case"] for row in json.loads(out)] == [0, 1]

    def test_config_may_set_flags_the_check_mode_does_not_read(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 4, "format": "aggregate"}))  # e.g. shared with simulate
        code, out, _ = run(capsys, "check", "--config", str(cfg), "--input", str(DATA / "table1.csv"), *DESIGN_FLAGS)
        assert code == 0
        assert [row["case"] for row in json.loads(out)] == [0]

    def test_missing_config_file(self, capsys):
        code, _, err = run(capsys, "estimate", "--config", "/nonexistent.json")
        assert code == 1
        assert "error" in err

    def test_config_value_read_as_flag_type(self, capsys, table1_path, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"s": "2", "G": 5, "level": 1, "format": "aggregate"}))
        code, out, _ = run(capsys, "estimate", "--config", str(cfg), "--input", str(table1_path),
                           "--level", "0.95")
        assert code == 0
        assert json.loads(out)["risk_time"] == 2727516

    @pytest.mark.parametrize(
        "config,message",
        [
            ({"s": 2.5, "G": 5}, "--config key 's': invalid int value '2.5'"),
            ({"s": True, "G": 5}, "--config key 's': expected a string or a number, got true"),
            ({"s": 2, "G": None}, "--config key 'G': expected a string or a number, got null"),
            ({"s": 2, "G": [5]}, "--config key 'G': expected a string or a number, got [5]"),
            ({"s": 2, "G": 5, "level": "high"}, "--config key 'level': invalid float value 'high'"),
            ({"s": 2, "G": 5, "format": "xml"}, "--config key 'format': 'xml' is not one of aggregate, units"),
            ({"s": 2, "G": 5, "output-format": "yaml"}, "--config key 'output-format': 'yaml' is not one of json, csv"),
            ({"s": 2, "G": 5, "K": 1.5}, "--config key 'K': invalid int value '1.5'"),
        ],
    )
    def test_config_value_rejected_like_flag(self, capsys, table1_path, tmp_path, config, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run(capsys, "estimate", "--config", str(cfg), "--input", str(table1_path))
        assert (code, out, err) == (1, "", f"error: {message}\n")


class TestJsonReady:
    def test_bools_stay_bools(self):
        payload = _json_ready({"degenerate": True, "flags": [False], "m": np.int64(3), "x": np.float64(0.1)})
        assert json.dumps(payload, sort_keys=True) == (
            '{"degenerate": true, "flags": [false], "m": 3, "x": 0.1}'
        )
