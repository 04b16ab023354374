"""Benchmark inputs, made only from the benchmark's own constants and a seed.

Nothing here imports geomlife: the inputs must stay byte-identical across
commits of the program under test, whatever it does to its own sampler or
parsers.  The reference panel is Table 3 of the source paper; Table 1 is its
marginal over cohorts.  Both are written as long-format ``cohort,outcome,count``
CSV, the format of ``data/table1.csv`` and ``data/table3.csv``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

#: Observation-window length and cohort count of the reference panel.
S, G = 2, 5

#: Table 3: cohort t -> (failures in window year 1, in year 2, censored).
REFERENCE_PANEL = {
    0: (18687, 18633, 292566),
    1: (34549, 27464, 278223),
    2: (35588, 23353, 209649),
    3: (42272, 20305, 200411),
    4: (37016, 17295, 191803),
}

#: Published estimate for the reference panel: theta_hat = m_uncens / R and its se.
PUBLISHED_THETA = Fraction(275162, 2727516)
PUBLISHED_SE = 1.824e-4

CENSORED = "cens"


def scaled_panel(panel: dict, divisor: int) -> dict[int, tuple[int, int, int]]:
    """``panel`` with every count divided (floor) by ``divisor``."""
    return {t: tuple(c // divisor for c in row) for t, row in panel.items()}


@dataclass(frozen=True)
class Expected:
    """Exact answer for a panel, computed here without the program under test."""

    m: int
    m_uncens: int
    m_cens: int
    risk_time: int
    theta: Fraction
    se: float

    @classmethod
    def of(cls, panel: dict[int, tuple[int, int, int]]) -> "Expected":
        d1 = sum(row[0] for row in panel.values())
        d2 = sum(row[1] for row in panel.values())
        cens = sum(row[2] for row in panel.values())
        m_uncens = d1 + d2
        risk_time = d1 + 2 * d2 + S * cens
        theta = Fraction(m_uncens, risk_time)
        se = math.sqrt(float(theta * (1 - theta) / risk_time))
        return cls(m_uncens + cens, m_uncens, cens, risk_time, theta, se)

    @property
    def theta12(self) -> str:
        """The estimate as the program prints it: 12 significant digits."""
        return format(float(self.theta), ".12g")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _csv_bytes(rows: list[list]) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["cohort", "outcome", "count"])
    writer.writerows(rows)
    return buf.getvalue().encode()


def stratified_csv(panel: dict, order: np.ndarray | None = None) -> bytes:
    """Table 3 layout: one row per (cohort, outcome); rows in ``order`` if given."""
    rows = []
    for t, (d1, d2, cens) in sorted(panel.items()):
        rows += [[t, 1, d1], [t, 2, d2], [t, CENSORED, cens]]
    if order is not None:
        rows = [rows[i] for i in order]
    return _csv_bytes(rows)


def marginal_csv(panel: dict, order: np.ndarray | None = None) -> bytes:
    """Table 1 layout: the panel pooled over cohorts, empty cohort column."""
    totals = [sum(row[i] for row in panel.values()) for i in range(3)]
    rows = [["", 1, totals[0]], ["", 2, totals[1]], ["", CENSORED, totals[2]]]
    if order is not None:
        rows = [rows[i] for i in order]
    return _csv_bytes(rows)


def read_stratified(data: bytes) -> dict[int, tuple[int, int, int]]:
    """Read a Table 3 CSV back into a panel (the benchmark's own reader)."""
    panel: dict[int, list[int]] = {}
    reader = csv.reader(io.StringIO(data.decode()))
    if next(reader) != ["cohort", "outcome", "count"]:
        raise ValueError("stratified table must start with cohort,outcome,count")
    for cohort, outcome, count in reader:
        slot = 2 if outcome == CENSORED else int(outcome) - 1
        panel.setdefault(int(cohort), [0, 0, 0])[slot] += int(count)
    return {t: tuple(row) for t, row in panel.items()}


def unit_rows(panel: dict, seed: int) -> bytes:
    """Expand a panel into one ``t,d,censored`` row per unit.

    The seed shuffles the rows and picks, for each censored unit, whether
    its ``d`` is written as ``s`` or left empty; both forms are valid input.
    """
    lines, counts = [], []
    for t, (d1, d2, cens) in sorted(panel.items()):
        lines += [f"{t},1,0\n", f"{t},2,0\n", f"{t},{S},1\n", f"{t},,1\n"]
        counts += [d1, d2, cens, 0]
    codes = np.repeat(np.arange(len(lines)), counts)
    rng = np.random.default_rng(seed)
    leave_empty = (codes % 4 == 2) & (rng.random(codes.size) < 0.5)
    codes[leave_empty] += 1
    codes = codes[rng.permutation(codes.size)]
    return ("t,d,censored\n" + "".join(np.array(lines, dtype=object)[codes])).encode()


def write(path: Path, data: bytes) -> str:
    """Write ``data`` to ``path`` and return its sha256."""
    path.write_bytes(data)
    return sha256(data)
