"""Shared fixtures: the national-register count tables used across tests.

TABLE1 is the two-year marginal table (window s=2, cohorts G=5).  TABLE3
is the same panel stratified by cohort; its first-year failure count for
cohort t=1 carries a -30 adjustment so that the stratified counts pool
exactly to the marginal table (the published stratified figures overshoot
the marginal first-year total by 30).  ``data/table1.csv`` and
``data/table3.csv`` hold the same tables as long-format CSV.
"""

from __future__ import annotations

import io
from pathlib import Path

from geomlife.panel_io import AggregateTable, parse_aggregate

DATA = Path(__file__).resolve().parent.parent / "data"

S, G = 2, 5

# (count_d1, count_d2, count_censored)
TABLE1_ROW = (168112, 107050, 1172652)

# one row per cohort t = 0..G-1
TABLE3_ROWS = (
    (18687, 18633, 292566),
    (34549, 27464, 278223),
    (35588, 23353, 209649),
    (42272, 20305, 200411),
    (37016, 17295, 191803),
)

ZERO_ROW = (0,) * (S + 1)

TABLE1_M = sum(TABLE1_ROW)  # 1_447_814
TABLE1_M_UNCENS = TABLE1_ROW[0] + TABLE1_ROW[1]  # 275_162
TABLE1_DURATION_SUM = 1 * TABLE1_ROW[0] + 2 * TABLE1_ROW[1]  # 382_212
TABLE1_RISK_TIME = TABLE1_DURATION_SUM + S * TABLE1_ROW[2]  # 2_727_516


def table1() -> AggregateTable:
    """The marginal table: every count in row G."""
    return AggregateTable(S, G, [*[ZERO_ROW] * G, TABLE1_ROW])


def table3() -> AggregateTable:
    """The stratified table: row G empty."""
    return AggregateTable(S, G, [*TABLE3_ROWS, ZERO_ROW])


def table1_csv() -> str:
    return (DATA / "table1.csv").read_text()


def table3_csv() -> str:
    return (DATA / "table3.csv").read_text()


def parse_csv(text: str, s: int = S, g: int = G) -> AggregateTable:
    return parse_aggregate(io.StringIO(text), s=s, G=g)
