"""Output checks.  Each returns a list of problems; an empty list means correct.

The expected values come from :mod:`inputs` (exact integer arithmetic) and
from the counting-process definitions, never from the program under test.
"""

from __future__ import annotations

import csv
import io
import json
import math

from inputs import G, S, Expected

#: The ``paths`` call every cli-aggregate cycle makes.
PATHS_UNIT = {"x": 3, "t": 1, "theta": 0.1}
PATHS_COLUMNS = ["x", "dN", "Y_prev", "dN_tc", "Y_tc_prev", "dA_tc", "dM_tc"]

#: RNG-scheme-independent bands of the Monte Carlo study (theta0 = 0.1, s = 2, G = 5).
N_MSE_BAND = (0.040, 0.076)
COVERAGE_BAND = (0.93, 0.97)
SLOPE_BAND = (-1.2, -0.8)
BAND_N = 10**4


def exit_code(code: int) -> list[str]:
    return [] if code == 0 else [f"exit code {code}, expected 0"]


def _estimate_fields(got: dict, exp: Expected) -> list[str]:
    problems = []
    for key in ("m", "m_uncens", "risk_time"):
        if int(got[key]) != getattr(exp, key):
            problems.append(f"{key} = {got[key]}, expected {getattr(exp, key)}")
    theta = format(float(got["theta_hat"]), ".12g")
    if theta != exp.theta12:
        problems.append(f"theta_hat = {theta}, expected {exp.theta12}")
    if not abs(float(got["se"]) - exp.se) <= 1e-7:
        problems.append(f"se = {got['se']}, expected {exp.se:.6g} within 1e-7")
    return problems


def check_estimate_json(code: int, stdout: str, exp: Expected) -> list[str]:
    if code != 0:
        return exit_code(code)
    try:
        return _estimate_fields(json.loads(stdout), exp)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable estimate JSON: {exc!r}"]


def check_estimate_csv(code: int, stdout: str, exp: Expected) -> list[str]:
    if code != 0:
        return exit_code(code)
    rows = list(csv.DictReader(io.StringIO(stdout)))
    if len(rows) != 1:
        return [f"estimate CSV has {len(rows)} data rows, expected 1"]
    try:
        return _estimate_fields(rows[0], exp)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable estimate CSV: {exc!r}"]


def check_oracle(code: int, stdout: str, exp: Expected) -> list[str]:
    """``check`` exits 0 and its one case agrees with the exact estimate."""
    if code != 0:
        return exit_code(code)
    try:
        (row,) = json.loads(stdout)
        if abs(float(row["theta_hat"]) - float(exp.theta)) > 1e-12:
            return [f"check theta_hat = {row['theta_hat']}, expected {exp.theta12}"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable check JSON: {exc!r}"]
    return []


def expected_paths_rows() -> list[list[float]]:
    """Counting-process rows for PATHS_UNIT over ages 1..s+G-1."""
    x, t, theta = PATHS_UNIT["x"], PATHS_UNIT["t"], PATHS_UNIT["theta"]
    rows = []
    for age in range(1, S + G):
        dn_tc = int(t < age <= t + S and age == x)
        y_tc = int(t < age <= min(x, t + S))
        rows.append([age, int(age == x), int(age <= x), dn_tc, y_tc, theta * y_tc, dn_tc - theta * y_tc])
    return rows


def check_paths(code: int, stdout: str) -> list[str]:
    if code != 0:
        return exit_code(code)
    lines = list(csv.reader(io.StringIO(stdout)))
    if not lines or lines[0] != PATHS_COLUMNS:
        return [f"paths header {lines[:1]}, expected {PATHS_COLUMNS}"]
    expected = expected_paths_rows()
    if len(lines) - 1 != len(expected):
        return [f"paths printed {len(lines) - 1} rows, expected {len(expected)}"]
    for got, want in zip(lines[1:], expected):
        try:
            if not all(math.isclose(float(g), w, abs_tol=1e-12) for g, w in zip(got, want, strict=True)):
                return [f"paths row {got}, expected {want}"]
        except ValueError as exc:
            return [f"paths row {got} unreadable: {exc}"]
    return []


def check_study(reports: dict) -> list[str]:
    """Criteria 08-10 bands on {n: StudyReport}; these hold for any RNG stream."""
    problems = []
    degenerate = {n: r.degenerate_count for n, r in reports.items() if r.degenerate_count}
    if degenerate:
        problems.append(f"degenerate replicates {degenerate}, expected none")
    if BAND_N in reports:
        r = reports[BAND_N]
        n_mse = BAND_N * r.mse
        if not N_MSE_BAND[0] <= n_mse <= N_MSE_BAND[1]:
            problems.append(f"n*MSE at n={BAND_N} is {n_mse:.4f}, outside {N_MSE_BAND}")
        if not COVERAGE_BAND[0] <= r.coverage <= COVERAGE_BAND[1]:
            problems.append(f"coverage at n={BAND_N} is {r.coverage:.4f}, outside {COVERAGE_BAND}")
    else:
        problems.append(f"no study at n={BAND_N}")
    ns = sorted(reports)
    if len(ns) >= 2:
        logs = [(math.log(n), math.log(reports[n].mse)) for n in ns]
        mx = sum(a for a, _ in logs) / len(logs)
        my = sum(b for _, b in logs) / len(logs)
        slope = sum((a - mx) * (b - my) for a, b in logs) / sum((a - mx) ** 2 for a, _ in logs)
        if not SLOPE_BAND[0] <= slope <= SLOPE_BAND[1]:
            problems.append(f"log-log MSE slope {slope:.3f}, outside {SLOPE_BAND}")
    return problems
