import csv
import io
import os
import threading
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomlife import panel_io
from geomlife.estimator import theta_hat
from geomlife.model import ObservedUnit, StudyDesign, TruncationDist, observe_arrays, sample_units
from geomlife.panel_io import (
    AggregateTable,
    PanelFormatError,
    age_counts,
    count_units,
    parse_aggregate,
    parse_units,
    to_sufficient_stats,
)

from helpers import (
    G,
    S,
    TABLE1_DURATION_SUM,
    TABLE1_M,
    TABLE1_RISK_TIME,
    parse_csv,
    table1,
    table1_csv,
    table3,
    table3_csv,
)


class TestParseAggregate:
    def test_marginal_table(self):
        table = parse_csv("cohort,outcome,count\n,1,168112\n,2,107050\n,cens,1172652\n")
        assert table.m == TABLE1_M
        assert table.rows[G] == (168112, 107050, 1172652)
        assert table == table1()

    def test_empty_table(self):
        table = parse_csv("cohort,outcome,count\n")
        assert table.m == 0
        assert table.rows == ((0, 0, 0),) * (G + 1)

    def test_stratified_marginals_match_marginal_table(self):
        stratified = parse_csv(table3_csv())
        assert not any(stratified.rows[G])
        assert stratified.pooled() == table1()

    def test_duplicate_rows_summed(self):
        table = parse_csv("cohort,outcome,count\n0,1,5\n0,1,7\n")
        assert table.rows[0] == (12, 0, 0)

    def test_blank_lines_skipped(self):
        table = parse_csv("cohort,outcome,count\n\n0,1,5\n\n")
        assert table.rows[0] == (5, 0, 0)

    @pytest.mark.parametrize(
        "body,fragment",
        [
            ("0,1\n", "3 fields"),
            ("x,1,5\n", "cohort"),
            ("0,9,5\n", "outcome 9"),
            ("0,zzz,5\n", "outcome"),
            ("0,1,-2\n", "nonnegative"),
            ("9,1,5\n", "cohort 9"),
            ("0,1,1.5\n", "integer"),
            ("0,1,\u0661\n", "count '\u0661' is not an integer"),  # int() reads ARABIC-INDIC DIGIT ONE as 1
        ],
    )
    def test_malformed_rows(self, body, fragment):
        with pytest.raises(PanelFormatError, match=fragment) as err:
            parse_csv("cohort,outcome,count\n" + body)
        assert err.value.line == 2

    def test_bad_header(self):
        with pytest.raises(PanelFormatError, match="header"):
            parse_csv("a,b,c\n0,1,5\n")

    def test_empty_stream(self):
        with pytest.raises(PanelFormatError, match="empty"):
            parse_csv("")

    @pytest.mark.parametrize(
        "body,fragment,line",
        [
            (",1,5\n\n0,2,3\n", "stratified row in a marginal table", 4),
            ("0,1,5\n,cens,3\n", "marginal row in a stratified table", 3),
        ],
    )
    def test_marginal_and_stratified_rows_do_not_mix(self, body, fragment, line):
        with pytest.raises(PanelFormatError, match=fragment) as err:
            parse_csv("cohort,outcome,count\n" + body)
        assert err.value.line == line


class TestParseUnits:
    def test_basic_rows(self):
        units = parse_units(io.StringIO("t,d,censored\n3,1,0\n"), s=2, G=5)
        assert units == [ObservedUnit(t_obs=3, d=1, censored=False)]

    def test_censored_duration_normalized(self):
        units = parse_units(io.StringIO("t,d,censored\n3,,1\n"), s=2, G=5)
        assert units == [ObservedUnit(t_obs=3, d=2, censored=True)]

    def test_censored_duration_explicit(self):
        units = parse_units(io.StringIO("t,d,censored\n3,2,1\n"), s=2, G=5)
        assert units == [ObservedUnit(t_obs=3, d=2, censored=True)]

    @pytest.mark.parametrize(
        "body,fragment",
        [
            ("3,5,0\n", "outside 1..2"),
            ("3,1,1\n", "censored unit"),
            ("7,1,0\n", "t 7"),
            ("3,1,x\n", "censored must be"),
            ("3,,0\n", "integer"),
        ],
    )
    def test_domain_errors(self, body, fragment):
        with pytest.raises(PanelFormatError, match=fragment):
            parse_units(io.StringIO("t,d,censored\n" + body), s=2, G=5)


def _per_row(path, s=2, G=5):
    """Reference table: parse_units row by row, tabulated by (cohort, outcome)."""
    try:
        with open(path, newline="") as fh:
            units = parse_units(fh, s, G)
    except ValueError as exc:  # PanelFormatError or UnicodeDecodeError
        return type(exc), str(exc)
    # k = d for a failure, s + 1 for a censored unit (whose d is s); column k - 1
    cells = Counter((unit.t_obs, unit.d + unit.censored) for unit in units)
    return AggregateTable(s, G, [[cells[t, k] for k in range(1, s + 2)] for t in range(G + 1)])


def _counted(path, s=2, G=5):
    try:
        return count_units(path, s, G)
    except ValueError as exc:
        return type(exc), str(exc)


_VALID_ROWS = st.sampled_from(
    ["0,1,0", "3,2,0", "4,,1", "1,2,1", "2, ,1", " 0 , 1 , 0 ", "\t2,1 ,0", "", "   ", ",,"]
)
# Line breaks of str.splitlines that csv.reader reads as cell text, where they are padding
_BREAK_CHARS = st.sampled_from(list("\v\f\x1c\x1d\x1e\x85\u2028\u2029"))


@st.composite
def _padded_rows(draw):
    row = draw(_VALID_ROWS)
    at = draw(st.integers(0, len(row)))
    return row[:at] + draw(_BREAK_CHARS) + row[at:]


_CELLS = st.sampled_from(["0", "1", "2", "4", "5", "-1", "", " 1", "2 ", " ", "01", "x", "1.0", "\t3"])
_ODD_ROWS = st.one_of(
    st.tuples(_CELLS, _CELLS, _CELLS).map(",".join),
    st.sampled_from(["0,1", "0,1,0,0", '"0",1,0', '0,"2",0', '"1\n",1,0', "0,1\r,0", "\r", "4,\x00,1"]),
    st.tuples(_VALID_ROWS, _BREAK_CHARS, _VALID_ROWS).map("".join),  # one row of 5 fields, not two rows
    st.binary(max_size=6).map(lambda b: b.decode("latin-1")),
)


@st.composite
def _unit_files(draw):
    """A t,d,censored file: plain valid rows, or valid rows mixed with every oddity."""
    header = draw(st.sampled_from(["t,d,censored"] * 4 + [" t , d ,censored", "t,d", '"t",d,censored', ""]))
    padded, odd = st.one_of(_VALID_ROWS, _padded_rows()), st.one_of(_VALID_ROWS, _ODD_ROWS)
    rows = draw(st.sampled_from([_VALID_ROWS, padded, odd]))
    lines = [header] + draw(st.lists(rows, max_size=12))
    ends = st.sampled_from(["\n", "\r\n", "\r"])
    if draw(st.booleans()):  # one line end throughout, else a mix
        ends = st.just(draw(ends))
    text = "".join(line + draw(ends) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    # latin-1 bytes above 0x7f are not valid UTF-8; "?" stands for a character latin-1 lacks
    return text.encode(draw(st.sampled_from(["utf-8", "latin-1"])), errors="replace")


class TestCountUnits:
    @settings(max_examples=400)
    @given(data=_unit_files())
    def test_agrees_with_per_row_parse(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("units") / "units.csv"
        path.write_bytes(data)
        assert _counted(path) == _per_row(path)

    # Blocks of a few characters end inside the header, inside a cell and between \r and \n
    @pytest.mark.parametrize("block", [1, 2, 3, 7])
    @settings(max_examples=200)
    @given(data=_unit_files())
    def test_agrees_with_per_row_parse_in_small_blocks(self, tmp_path_factory, block, data):
        path = tmp_path_factory.mktemp("units") / "units.csv"
        path.write_bytes(data)
        with mock.patch.object(panel_io, "_BLOCK", block):
            assert _counted(path) == _per_row(path)

    def test_bad_row_after_valid_lines_reports_first_error(self, tmp_path):
        path = tmp_path / "units.csv"
        path.write_bytes(b"t,d,censored\n0,1,0\n1,,1\n\n0,1,0\n3,9,0\n1,,1\n4,x,0\n")
        with pytest.raises(PanelFormatError) as err:
            count_units(path, 2, 5)
        assert str(err.value) == "line 6: uncensored d 9 outside 1..2"
        assert _counted(path) == _per_row(path)

    def test_per_row_path_starts_from_zero_counts(self, tmp_path):
        path = tmp_path / "units.csv"
        path.write_bytes(b't,d,censored\n0,1,0\n1,,1\n0,1,0\n"2",2,0\n')
        table = count_units(path, 2, 5)
        assert table.rows[:3] == ((2, 0, 0), (0, 0, 1), (0, 1, 0))
        assert table == _per_row(path)

    def test_valid_file_is_counted_without_per_row_parse(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("parse_units called on a plain valid file")

        monkeypatch.setattr(panel_io, "parse_units", refuse)
        monkeypatch.setattr(panel_io, "_unit_rows", refuse)
        path = tmp_path / "units.csv"
        path.write_bytes(b"t , d, censored\r\n0,1,0\r\n\n 4 ,,1\n3,2,1\n  \n4,,1\n1,2,0")
        table = count_units(path, 2, 5)
        assert table.rows == ((1, 0, 0), (0, 1, 0), (0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 0, 0))
        path.write_bytes(b"t,d,censored\r0,1,0\r4,,1\r\n3,2,0\n")  # lone-CR line ends
        assert count_units(path, 2, 5).rows == ((1, 0, 0), (0, 0, 0), (0, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0))
        path.write_text("t,d,censored\r0,1\f,0\r\x854,,1\r3,2,0\x85\r\f\r", newline="")
        assert count_units(path, 2, 5).rows == ((1, 0, 0), (0, 0, 0), (0, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0))

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
    def test_line_end_at_block_edge(self, tmp_path, monkeypatch, end):
        # The first row's line end starts on the last character of the first block after the
        # header: a CRLF is split between two blocks, a CR ends the block.
        first = "0,1," + "0".rjust(panel_io._BLOCK - 5)
        rows = [first] + [f"{i % 5},{i % 2 + 1},0" if i % 3 else f"{i % 5},,1" for i in range(50_000)]
        path = tmp_path / "units.csv"
        path.write_text(end.join(["t,d,censored", *rows, ""]), newline="")
        expected = _per_row(path)
        assert expected.m == 50_001

        def refuse(*args, **kwargs):
            raise AssertionError("a valid file was read row by row")

        monkeypatch.setattr(panel_io, "_unit_rows", refuse)
        assert count_units(path, 2, 5) == expected

    def test_line_over_field_limit_is_read_no_further(self, tmp_path):
        limit = csv.field_size_limit()
        text = "t,d,censored\n" + "9" * (20 * limit)  # a second line with no line end
        fh = io.StringIO(text)
        assert panel_io._count_distinct_lines(fh, 2, 5) is None
        assert fh.tell() <= len("t,d,censored\n") + limit + panel_io._BLOCK
        path = tmp_path / "units.csv"
        path.write_text(text)
        with pytest.raises(PanelFormatError) as err:
            count_units(path, 2, 5)
        assert str(err.value) == "line 2: field larger than field limit (131072)"

    @pytest.mark.parametrize(
        "limit,text,line",
        [
            (2**17, "t,d,censored\n0,1,0" + " " * 2**17 + "\n", 2),  # a valid row once stripped
            (2**17, "t,d," + " " * 2**17 + "censored\n0,1,0\n", 1),
            (16, "t,d,censored\n0,1,0\n1,,1" + " " * 16 + "\n4,2,1\n", 3),  # within one block
        ],
        ids=["row", "header", "short-limit"],
    )
    def test_padded_cell_over_field_limit(self, tmp_path, limit, text, line):
        path = tmp_path / "units.csv"
        path.write_text(text)
        default = csv.field_size_limit(limit)
        try:
            message = f"line {line}: field larger than field limit ({limit})"
            assert _counted(path) == _per_row(path) == (PanelFormatError, message)
        finally:
            csv.field_size_limit(default)

    def test_per_row_path_counts_without_unit_objects(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("count_units built an ObservedUnit")

        monkeypatch.setattr(panel_io, "ObservedUnit", refuse)
        path = tmp_path / "units.csv"
        path.write_bytes(b't,d,censored\n"0",1,0\n1,,1\n0,1,0\n')  # the quoted cell needs the csv rules
        assert count_units(path, 2, 5).rows == ((2, 0, 0), (0, 0, 1), *[(0, 0, 0)] * 4)

    def test_pipe_is_read_row_by_row(self, tmp_path):
        fifo = tmp_path / "units.fifo"
        os.mkfifo(fifo)

        def count_from_pipe(data):
            writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
            writer.start()
            try:
                return _counted(fifo)
            finally:
                writer.join(timeout=10)

        valid = b"t,d,censored\n0,1,0\r\n4,,1\r3,2,0\n\n0,1,0"
        path = tmp_path / "units.csv"
        path.write_bytes(valid)
        assert count_from_pipe(valid) == count_units(path, 2, 5)
        bad_row = b"t,d,censored\n0,1,0\n4,,1\n3,9,0\n"
        assert count_from_pipe(bad_row) == (PanelFormatError, "line 4: uncensored d 9 outside 1..2")
        quoted_cr = b't,d,censored\n0,1,0\n"1\r2",1,0\n'  # csv.reader keeps the \r of a quoted cell
        path.write_bytes(quoted_cr)
        expected = (PanelFormatError, "line 4: t '1\\r2' is not an integer")
        assert _counted(path) == count_from_pipe(quoted_cr) == expected
        kind, message = count_from_pipe(b"t,d,censored\r0,1,0\r\xe9,1,0\r")  # 0xe9 does not decode in UTF-8
        assert kind is PanelFormatError and message.startswith("line 3: ")

    @pytest.mark.parametrize("cell", ["+1", "0_1", "\u0661"], ids=["plus", "underscore", "arabic-indic"])  # int() reads 1
    @pytest.mark.parametrize("row,name", [("{},1,0", "t"), ("0,{},0", "d")], ids=["t", "d"])
    @pytest.mark.parametrize("first", [b"0,1,0\n", b'"0",1,0\n'], ids=["fast-path", "per-row-path"])
    def test_integer_cells_are_ascii_digits(self, tmp_path, cell, row, name, first):
        path = tmp_path / "units.csv"
        path.write_bytes(b"t,d,censored\n" + first + row.format(cell).encode() + b"\n")
        message = f"line 3: {name} {cell!r} is not an integer"
        assert _counted(path) == _per_row(path) == (PanelFormatError, message)

    def test_reference_panel_as_units(self, tmp_path):
        lines = ["t,d,censored\n"]
        for t, (*failures, censored) in enumerate(table3().rows[:G]):
            for d, count in enumerate(failures, start=1):
                lines += [f"{t},{d},0\n"] * count
            lines += [f"{t},,1\n"] * censored
        path = tmp_path / "units.csv"
        path.write_text("".join(lines))
        assert count_units(path, S, G) == table3()


class TestToSufficientStats:
    def test_marginal_table(self):
        stats = to_sufficient_stats(table1())
        assert stats.duration_sum == TABLE1_DURATION_SUM
        assert stats.risk_time == TABLE1_RISK_TIME

    def test_single_row(self):
        stats = to_sufficient_stats(parse_csv("cohort,outcome,count\n,1,1\n"))
        assert (stats.m_uncens, stats.risk_time) == (1, 1)

    def test_pooling_commutes_with_aggregation(self):
        stratified = table3()
        assert to_sufficient_stats(stratified) == to_sufficient_stats(stratified.pooled())
        assert to_sufficient_stats(stratified) == to_sufficient_stats(table1())

    def test_pooled_estimate_identical(self):
        assert theta_hat(to_sufficient_stats(table3())) == theta_hat(
            to_sufficient_stats(table1())
        )


class TestAgeCounts:
    def test_hand_example(self):
        # cohort 0: 3 fail in year 1, 2 censored; cohort 1: 5 fail in year 2
        table = AggregateTable(s=2, G=2, rows=[(3, 0, 2), (0, 5, 0), (0, 0, 0)])
        assert age_counts(table) == ([3, 0, 5], [5, 7, 5])

    @pytest.mark.parametrize(
        "theta,s,G,pmf",
        [(0.1, 2, 5, None), (0.3, 4, 7, None), (0.05, 3, 4, [0.1, 0.2, 0.3, 0.4]), (0.5, 1, 1, None)],
    )
    def test_equals_per_unit_indicator_sums(self, theta, s, G, pmf):
        design = StudyDesign(s=s, G=G)
        tdist = TruncationDist.uniform(G) if pmf is None else TruncationDist(pmf)
        x, t = sample_units(theta, tdist, 20_000, np.random.default_rng(2026))
        code = observe_arrays(x, t, design)  # 0 truncated, d = 1..s, s + 1 censored
        cells = Counter(zip(t.tolist(), code.tolist()))
        table = AggregateTable(s, G, [[cells[c, k] for k in range(1, s + 2)] for c in range(G + 1)])
        ages = np.arange(1, design.horizon + 1)[:, None]
        events = ((t < ages) & (ages <= t + s) & (ages == x)).sum(axis=1)
        at_risk = ((t < ages) & (ages <= np.minimum(x, t + s))).sum(axis=1)
        assert age_counts(table) == (events.tolist(), at_risk.tolist())

    def test_reference_panel_totals(self):
        events, at_risk = age_counts(table3())
        stats = to_sufficient_stats(table3())
        assert len(events) == len(at_risk) == S + G - 1
        assert sum(events) == stats.m_uncens
        assert sum(at_risk) == stats.risk_time
        # the panel's discrete hazards by age, events over units at risk
        assert [round(e / r, 3) for e, r in zip(events, at_risk)] == [0.057, 0.082, 0.110, 0.132, 0.123, 0.083]

    def test_marginal_table_rejected(self):
        with pytest.raises(ValueError, match="stratified table"):
            age_counts(table1())

    def test_all_zero_marginal_table_is_the_empty_table(self):
        # nothing in the rows marks a table whose counts are all 0 as marginal
        empty = parse_csv("cohort,outcome,count\n,1,0\n,cens,0\n")
        assert empty == parse_csv("cohort,outcome,count\n0,1,0\n")
        assert age_counts(empty) == ([0] * (S + G - 1), [0] * (S + G - 1))


class TestAggregateTableRows:
    def test_rows_equal_long_format(self):
        table = AggregateTable(2, 5, [[2, 3, 4], *[[0, 0, 0]] * 5])
        assert table == parse_csv("cohort,outcome,count\n0,1,2\n0,2,3\n0,cens,4\n")
        assert table.rows[0] == (2, 3, 4)

    def test_row_length_checked(self):
        with pytest.raises(ValueError, match="6 rows of 3 counts"):
            AggregateTable(2, 5, [(1, 2), *[(0, 0, 0)] * 5])

    def test_row_count_checked(self):
        with pytest.raises(ValueError, match="6 rows of 3 counts"):
            AggregateTable(2, 5, [(0, 0, 0)] * 5)

    def test_negative_count_rejected(self):
        with pytest.raises(PanelFormatError, match="nonnegative, got -1"):
            AggregateTable(2, 5, [(0, 0, 0), (0, -1, 0), *[(0, 0, 0)] * 4])

    @pytest.mark.parametrize("count", [1.5, True, "3"], ids=["float", "bool", "str"])
    def test_non_integer_count_rejected(self, count):
        with pytest.raises(PanelFormatError, match=f"counts must be integers, got {count!r}"):
            AggregateTable(2, 5, [[count, 0, 2], *[[0, 0, 0]] * 5])


class TestBundledData:
    def test_data_files_match_reference_tables(self):
        assert parse_csv(table1_csv()) == table1()
        assert parse_csv(table3_csv()) == table3()


_LONG_CELL = "9" * (2**17 + 1)  # one over csv.field_size_limit()'s default


class TestLongCells:
    @pytest.mark.parametrize(
        "parse,text,line",
        [
            (parse_units, f"t,d,censored\n0,{_LONG_CELL},0\n", 2),
            (parse_aggregate, f"cohort,outcome,count\n0,1,{_LONG_CELL}\n", 2),
            (parse_units, f"{_LONG_CELL}\n0,1,0\n", 1),
            (parse_aggregate, f"cohort,outcome,count\n0,1,5\n\n0,2,{_LONG_CELL}\n", 4),
        ],
    )
    def test_csv_error_becomes_panel_format_error(self, parse, text, line):
        with pytest.raises(PanelFormatError, match=f"^line {line}: field larger than field limit"):
            parse(io.StringIO(text), 2, 5)


class Unseekable(io.BytesIO):
    """Bytes that cannot be re-read, as from a pipe."""

    def seekable(self):
        return False


class TestPhysicalLineNumbers:
    """After a quoted cell spanning two lines, errors still name the file's line."""

    @pytest.mark.parametrize(
        "parse,text,message",
        [
            (parse_units, 't,d,censored\n"1\n",1,0\n9,1,0\n', "line 4: t 9 outside 0..4"),
            (parse_aggregate, 'cohort,outcome,count\n"1\n",1,5\n9,1,5\n', "line 4: cohort 9 outside 0..4"),
        ],
    )
    def test_error_after_multiline_cell(self, parse, text, message):
        with pytest.raises(PanelFormatError) as err:
            parse(io.StringIO(text), 2, 5)
        assert str(err.value) == message
        assert err.value.line == 4

    def test_count_units_falls_back_with_the_same_line(self, tmp_path):
        path = tmp_path / "units.csv"
        path.write_text('t,d,censored\n"1\n",1,0\n0,1,0\n0,1,0\n9,1,0\n')
        with pytest.raises(PanelFormatError, match="^line 6: t 9"):
            count_units(path, 2, 5)

    @pytest.mark.parametrize(
        "data,cr_at,line",
        [  # CR line ends; byte 8191, the last of the text stream's first 8 KiB chunk, is a \r before the 0xff
            (b"t,d,censored\r" + b"0,1,0\r" * 1359 + b"0,,1\r" * 5 + b"\xff,1,0\r0,1,0\r", 8191, 1366),
            # CRLF line ends; bytes 65535 and 65536 are a \r\n, split across two 64 KiB chunks of a re-read
            (b"t,d,censored\r\n" + b"0,1,0\r\n" * 9357 + b"0,,1\r\n" * 4 + b"1,1,0\r\n\xff,1,0\r\n", 65535, 9364),
        ],
        ids=["cr-at-8-kib", "crlf-across-64-kib"],
    )
    def test_undecodable_byte_after_a_chunk_ending_in_cr(self, tmp_path, data, cr_at, line):
        assert data[cr_at : cr_at + 1] == b"\r"
        path = tmp_path / "units.csv"
        path.write_bytes(data)
        message = f"^line {line}: 'utf-8' codec can't decode byte 0xff"
        with open(path, newline="", encoding="utf-8") as fh, pytest.raises(PanelFormatError, match=message):
            parse_units(fh, 2, 5)
        with pytest.raises(PanelFormatError, match=f"^line {line}: "):
            count_units(path, 2, 5)

    def test_undecodable_byte_in_an_unseekable_stream(self):
        data = b"t,d,censored\n" + b"0,1,0\n" * 2000 + b"1,\xe9,1\n"  # past the first 8 KiB chunk
        stream = io.TextIOWrapper(Unseekable(data), encoding="utf-8", newline="")
        with pytest.raises(PanelFormatError, match="^line 2002: 'utf-8' codec can't decode byte 0xe9"):
            parse_units(stream, 2, 5)

    def test_unseekable_stream_after_a_chunk_ending_in_cr(self):
        data = b"t,d,censored\r" + b"0,1,0\r" * 1359 + b"0,,1\r" * 5 + b"\xff,1,0\r0,1,0\r"
        assert data[8191:8193] == b"\r\xff"  # the first 8 KiB decode chunk ends in the \r
        stream = io.TextIOWrapper(Unseekable(data), encoding="utf-8", newline="")
        with pytest.raises(PanelFormatError, match="^line 1366: 'utf-8' codec can't decode byte 0xff: invalid start byte$"):
            parse_units(stream, 2, 5)

    @pytest.mark.parametrize(
        "body,line",
        [
            (b'"1\xe9\n\n",1,0\n', 3),  # the cell's first line
            (b'"1\n\xe9\n",1,0\n', 4),
            (b'"1\r\n\r\n\xe9",1,0\r\n', 5),  # its last
        ],
    )
    def test_undecodable_byte_in_a_cell_spanning_lines(self, body, line):
        data = b"t,d,censored\n0,1,0\n" + body + b"0,1,0\n"
        stream = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")
        with pytest.raises(PanelFormatError, match=f"^line {line}: 'utf-8' codec can't decode byte 0xe9"):
            parse_units(stream, 2, 5)

    @pytest.mark.parametrize("parse,header", [(parse_units, b"t,d,censored"), (parse_aggregate, b"cohort,outcome,count")])
    def test_surrogateescape_stream_gets_the_codec_message(self, parse, header):
        data = header + b"\n0,1,0\n\xe9,1,0\n"
        stream = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape", newline="")
        with pytest.raises(PanelFormatError) as err:
            parse(stream, 2, 5)
        assert str(err.value) == "line 3: 'utf-8' codec can't decode byte 0xe9: invalid continuation byte"

    def test_strict_stream_is_left_in_surrogateescape_mode(self):
        stream = io.TextIOWrapper(io.BytesIO(b"t,d,censored\n0,1,0\n"), encoding="utf-8", newline="")
        assert parse_units(stream, 2, 5) == [ObservedUnit(0, 1, False)]
        assert stream.errors == "surrogateescape"

    @pytest.mark.parametrize(
        "parse,text", [(parse_units, "t,d,censored\n0,1,0\n1,,1\n2,2,0\n"), (parse_aggregate, table3_csv())]
    )
    def test_stream_read_before_parsing(self, parse, text):
        stream = io.TextIOWrapper(io.BytesIO(b"# preamble\n" + text.encode()), encoding="utf-8", newline="")
        assert stream.readline() == "# preamble\n"  # decoded text is buffered: the stream cannot be reconfigured
        unread = io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8", newline="")
        assert parse(stream, 2, 5) == parse(unread, 2, 5)
        assert stream.errors == "strict"

    @pytest.mark.parametrize(
        "parse,header,last_read",
        [(parse_units, b"t,d,censored", 1362), (parse_aggregate, b"cohort,outcome,count", 1361)],
    )
    def test_undecodable_byte_in_a_stream_read_before_parsing(self, parse, header, last_read):
        # the byte is on line 2002 of the parsed text, past the codec's first 8 KiB chunk; the
        # codec decodes that chunk when the reader asks for the line after the last whole line
        # of the first, so the byte is known to lie after that line and no line is claimed
        data = b"# preamble\n" + header + b"\n" + b"0,1,0\n" * 2000 + b"\xe9,1,0\n"
        stream = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")
        stream.readline()
        with pytest.raises(PanelFormatError) as err:
            parse(stream, 2, 5)
        assert str(err.value) == f"'utf-8' codec can't decode byte 0xe9: invalid continuation byte after line {last_read}"
        assert err.value.line is None
