"""Every ingest rule pinned to its full result: rows, or error type, message and line.

Each case is the bytes of one file with s = 2, G = 5.  An aggregate case is
read by ``parse_aggregate``, a unit case by ``parse_units`` and
``count_units``, each through ``open(path, newline="")`` as the CLI opens
its input.  ``tests/golden/ingest_results.json`` holds the recorded
results; rewrite it after a deliberate change of an ingest rule with
``PYTHONPATH=src python tests/test_ingest_golden.py``.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from geomlife.panel_io import count_units, parse_aggregate, parse_units

GOLDEN = Path(__file__).resolve().parent / "golden" / "ingest_results.json"
S, G = 2, 5

AGG = b"cohort,outcome,count\n"
UNITS = b"t,d,censored\n"
BOM = b"\xef\xbb\xbf"  # UTF-8's byte-order mark, as Excel's "CSV UTF-8" writes before the header

AGGREGATE_CASES = {
    "empty": b"",
    "header_only": AGG,
    "wrong_header": b"a,b,c\n0,1,5\n",
    "two_field_header": b"cohort,outcome\n0,1,5\n",
    "padded_header": b" cohort , outcome ,count\n0,1,5\n",
    "quoted_header": b'"cohort",outcome,count\n0,1,5\n',
    "units_header": UNITS + b"0,1,0\n",
    "row_with_2_fields": AGG + b"0,1\n",
    "row_with_4_fields": AGG + b"0,1,5,6\n",
    "blank_and_whitespace_rows": AGG + b"\n0,1,5\n   \n\t\n,,\n , , \n0,2,3\n",
    "crlf_and_no_final_newline": b"cohort,outcome,count\r\n0,1,5\r\n1,cens,2",
    "padded_cells": AGG + b" 3 , cens , 7 \n",
    "duplicates_summed": AGG + b"0,1,5\n0,1,7\n",
    "cohort_not_integer": AGG + b"x,1,5\n",
    "cohort_float": AGG + b"1.5,1,5\n",
    "cohort_too_large": AGG + b"5,1,5\n",
    "cohort_negative": AGG + b"-1,1,5\n",
    "outcome_not_integer": AGG + b"0,zzz,5\n",
    "outcome_empty": AGG + b"0,,5\n",
    "outcome_upper_case_cens": AGG + b"0,CENS,5\n",
    "outcome_zero": AGG + b"0,0,5\n",
    "outcome_too_large": AGG + b"0,3,5\n",
    "count_not_integer": AGG + b"0,1,x\n",
    "count_float": AGG + b"0,1,1.5\n",
    "count_empty": AGG + b"0,1,\n",
    "count_negative": AGG + b"0,1,-2\n",
    "count_signed_and_underscored": AGG + b"0,1,+3\n0,2,1_000\n",
    "count_huge": AGG + b"0,1,123456789012345678901234567890\n",
    "marginal_then_stratified": AGG + b",1,5\n\n0,2,3\n",
    "stratified_then_marginal": AGG + b"0,1,5\n,cens,3\n",
    "marginal_only": AGG + b",1,5\n,2,4\n,cens,9\n",
    "quoted_cell": AGG + b'"0",1,5\n',
    "quoted_cell_spanning_lines": AGG + b'"1\n",1,5\n9,1,5\n',
    "nul_byte": AGG + b"0,1,\x005\n",
    "lone_cr": AGG + b"0,1,5\r0,2,3\n",
    "undecodable_byte": AGG + b"0,1,5\n\xe9,1,5\n",
    "long_cell": AGG + b"0,1,5\n\n0,2," + b"9" * (2**17 + 1) + b"\n",
    "row_error_before_undecodable_byte": AGG + b"0,1,5\n9,1,5\n0,1,5\n\xe9,1,5\n",
    "byte_order_mark": BOM + AGG + b",1,5\n,2,4\n,cens,9\n",
}

UNIT_CASES = {
    "empty": b"",
    "header_only": UNITS,
    "wrong_header": b"t,d,cens\n0,1,0\n",
    "two_field_header": b"t,d\n0,1\n",
    "padded_header": b" t , d ,censored\n0,1,0\n",
    "quoted_header": b'"t",d,censored\n0,1,0\n',
    "aggregate_header": AGG + b"0,1,5\n",
    "row_with_2_fields": UNITS + b"0,1\n",
    "row_with_4_fields": UNITS + b"0,1,0,0\n",
    "blank_and_whitespace_rows": UNITS + b"\n0,1,0\n   \n\t\n,,\n , , \n4,,1\n",
    "crlf_and_no_final_newline": b"t,d,censored\r\n0,1,0\r\n1,2,1",
    "padded_cells": UNITS + b" 3 , 2 , 0 \n\t4, ,1\n",
    "valid_mix": UNITS + b"0,1,0\n0,1,0\n3,2,0\n4,,1\n1,2,1\n",
    "t_not_integer": UNITS + b"x,1,0\n",
    "t_float": UNITS + b"1.5,1,0\n",
    "t_empty": UNITS + b",1,0\n",
    "t_too_large": UNITS + b"5,1,0\n",
    "t_negative": UNITS + b"-1,1,0\n",
    "d_not_integer": UNITS + b"0,x,0\n",
    "d_empty_uncensored": UNITS + b"0,,0\n",
    "d_zero": UNITS + b"0,0,0\n",
    "d_too_large": UNITS + b"0,3,0\n",
    "censored_d_not_integer": UNITS + b"0,x,1\n",
    "censored_d_not_s": UNITS + b"0,1,1\n",
    "censored_d_too_large": UNITS + b"0,3,1\n",
    "censored_two": UNITS + b"0,1,2\n",
    "censored_word": UNITS + b"0,1,true\n",
    "censored_empty": UNITS + b"0,1,\n",
    "censored_padded_zero": UNITS + b"0,1,00\n",
    "bad_censored_before_bad_d": UNITS + b"0,x,x\n",
    "bad_t_before_bad_censored": UNITS + b"9,1,x\n",
    "error_after_valid_rows": UNITS + b"0,1,0\n1,,1\n\n0,1,0\n3,9,0\n1,,1\n4,x,0\n",
    "quoted_cell": UNITS + b'"0",1,0\n1,,1\n',
    "quoted_cell_spanning_lines": UNITS + b'"1\n",1,0\n9,1,0\n',
    "nul_byte": UNITS + b"4,\x00,1\n",
    "lone_cr": UNITS + b"0,1,0\r1,1,0\n",
    "cr_inside_row": UNITS + b"0,1\r,0\n",
    "undecodable_byte": UNITS + b"0,1,0\n\xe9,1,0\n",
    "undecodable_byte_past_first_8_kib": UNITS + b"0,1,0\n" * 2000 + b"1,\xe9,1\n" + b"2,2,0\n" * 9,
    "undecodable_byte_after_lone_crs": UNITS + b"0,1,0\r1,1,0\r\n\xe9,1,0\n",
    "long_cell": UNITS + b"0," + b"9" * (2**17 + 1) + b",0\n",
    "row_error_before_undecodable_byte": UNITS + b"0,1,0\n9,1,0\n0,1,0\n\xe9,1,0\n",
    "undecodable_byte_ending_the_file": UNITS + b"0,1,0\n1,2,\xe4",
    "byte_order_mark": BOM + UNITS + b"0,1,0\n0,1,0\n3,2,0\n4,,1\n1,2,1\n",
}


def _result(read, path):
    try:
        value = read(path)
    except Exception as exc:
        return {"error": type(exc).__name__, "message": str(exc), "line": getattr(exc, "line", None)}
    if isinstance(value, list):  # parse_units
        return {"units": [[u.t_obs, u.d, u.censored] for u in value]}
    return {"rows": [list(row) for row in value.rows]}


def _opened(parse):
    def read(path):
        with open(path, newline="") as fh:
            return parse(fh, S, G)

    return read


READERS = {
    "aggregate": {"parse_aggregate": _opened(parse_aggregate)},
    "units": {"parse_units": _opened(parse_units), "count_units": lambda path: count_units(path, S, G)},
}


def ingest_results(directory: Path) -> dict:
    results = {}
    for kind, cases in (("aggregate", AGGREGATE_CASES), ("units", UNIT_CASES)):
        for name, data in cases.items():
            path = directory / f"{kind}_{name}.csv"
            path.write_bytes(data)
            results[f"{kind}/{name}"] = {reader: _result(read, path) for reader, read in READERS[kind].items()}
    return results


def test_ingest_results_match_the_recording(tmp_path):
    assert ingest_results(tmp_path) == json.loads(GOLDEN.read_text())


def test_a_byte_order_mark_changes_no_result():
    recorded = json.loads(GOLDEN.read_text())
    assert recorded["aggregate/byte_order_mark"] == recorded["aggregate/marginal_only"]
    assert recorded["units/byte_order_mark"] == recorded["units/valid_mix"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(ingest_results(Path(tmp)), indent=1, sort_keys=True) + "\n")
