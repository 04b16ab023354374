"""Ingestion of aggregate count tables and unit-level records.

Aggregate tables are long-format CSV with header ``cohort,outcome,count``:
``cohort`` is the truncation age (may be empty for a marginal table),
``outcome`` is a failure year ``1..s`` or the literal ``cens``, and
``count`` is a nonnegative integer.  Duplicate (cohort, outcome) rows are
summed.  A table is either marginal (every ``cohort`` empty) or stratified
(none empty); mixing the two would count units twice and is an error.
Unit-level files use header ``t,d,censored``.

Both formats are read by one reader: ``_data_rows`` checks the header
(``_check_header``, which allows a leading byte-order mark), skips blank
rows and strips the three cells of every other row (``_cells``), and each
integer cell is parsed by ``_integer``, so an error names the same line
and wording in either format.  The fast path of :func:`count_units`
reads the file with universal newlines, which end a line where
``csv.reader`` does, splits each ``_BLOCK`` characters of its text at
``\\n`` and applies the same header, row and cell rules to each distinct
line; both of its paths tally one ``Counter`` of ``(t, d, censored)``.

A strict text stream is switched to ``errors="surrogateescape"`` and left
so: an undecodable byte reaches its row and is reported on its own line, in
file order, from a file or a pipe alike.  A strict stream the caller has
already read from cannot be switched and is read as it is.
:func:`parse_aggregate` and :func:`parse_units` read their stream to its
end or first error.

Every input becomes one :class:`AggregateTable`, G + 1 rows of s + 1
exact ints: row t is cohort t, row G a marginal table's counts; columns
are failure in window year 1..s, then censored.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from itertools import chain
from typing import NamedTuple

from .estimator import SufficientStats
from .model import ObservedUnit, _make

CENSORED_OUTCOME = "cens"

AGGREGATE_HEADER = ["cohort", "outcome", "count"]
UNITS_HEADER = ["t", "d", "censored"]

#: Characters of decoded text that the distinct-line count of
#: :func:`count_units` splits into lines at a time.
_BLOCK = 1 << 16


class PanelFormatError(ValueError):
    """Malformed or out-of-domain input; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class AggregateTable(NamedTuple("AggregateTable", [("s", int), ("G", int), ("rows", tuple[tuple[int, ...], ...])])):
    """A (cohort x outcome) count table: ``rows``, G + 1 tuples of s + 1 ints.

    ``rows[t][d - 1]`` counts the units of cohort t that fail in window
    year d and ``rows[t][s]`` those censored at the window's end.  Row G
    holds the counts of a marginal table, whose units carry no cohort.
    """

    __slots__ = ()
    _make = _make

    def __new__(cls, s: int, G: int, rows):
        rows = tuple(map(tuple, rows))
        if len(rows) != G + 1 or set(map(len, rows)) != {s + 1}:
            raise ValueError(f"a table with s={s}, G={G} needs {G + 1} rows of {s + 1} counts")
        cells = tuple(chain.from_iterable(rows))
        for count in cells:
            if type(count) is not int:  # a bool or a float is not a count
                raise PanelFormatError(f"counts must be integers, got {count!r}")
        low = min(cells, default=0)
        if low < 0:
            raise PanelFormatError(f"counts must be nonnegative, got {low}")
        return super().__new__(cls, s, G, rows)

    @property
    def m(self) -> int:
        return sum(map(sum, self.rows))

    def pooled(self) -> "AggregateTable":
        """Marginalize over cohorts: each column summed into row G."""
        zero = (0,) * (self.s + 1)
        return AggregateTable(self.s, self.G, [*[zero] * self.G, map(sum, zip(*self.rows))])


def _check_header(header: list[str] | None, expected: list[str]) -> None:
    """Raise unless the header row (None for empty input) is ``expected``, up to padding and a byte-order mark."""
    if header is None:
        raise PanelFormatError(f"empty input; expected header {','.join(expected)}")
    if header and header[0].startswith("\ufeff"):  # as Excel's "CSV UTF-8" writes
        header = [header[0][1:], *header[1:]]
    if [h.strip() for h in header] != expected:
        raise PanelFormatError(f"expected header {','.join(expected)}, got {','.join(header)}", line=1)


def _cells(row: list[str], lineno: int | None) -> list[str] | None:
    """The stripped cells of a row of three fields; None for a blank row, an error for other widths."""
    if not row or all(not cell.strip() for cell in row):
        return None
    if len(row) != 3:
        raise PanelFormatError(f"expected 3 fields, got {len(row)}", line=lineno)
    return [cell.strip() for cell in row]


def _data_rows(stream: io.TextIOBase, header: list[str]):
    """``(line, cells)`` for each non-blank row of ``csv.reader`` after a checked header.

    ``line`` is the physical line the row ends on, which differs from the
    row count after a quoted cell spanning lines.  A csv-level error or
    an undecodable byte, which reaches its row as a lone surrogate once a
    strict stream reads with ``errors="surrogateescape"``, becomes a
    PanelFormatError.  A strict stream the caller has already read from
    cannot be switched; it is read as it is.  Its codec decodes ahead of
    the rows, so an undecodable byte there is reported with no line, as
    after the last line read.
    """
    if isinstance(stream, io.TextIOWrapper) and stream.errors == "strict":
        try:
            stream.reconfigure(errors="surrogateescape")
        except io.UnsupportedOperation:  # decoded text is buffered already
            pass
    reader = csv.reader(stream)
    rows = (_decodable(row, stream, reader.line_num) for row in reader)
    try:
        _check_header(next(rows, None), header)
        for row in rows:
            cells = _cells(row, reader.line_num)
            if cells is not None:
                yield reader.line_num, cells
    except csv.Error as exc:  # e.g. a cell over csv.field_size_limit()
        raise PanelFormatError(str(exc), line=reader.line_num) from None
    except UnicodeDecodeError as exc:  # a strict stream that could not be switched
        raise PanelFormatError(f"{_decode_message(exc)} after line {reader.line_num}") from None


def _decodable(row: list[str], stream: io.TextIOBase, lineno: int) -> list[str]:
    """``row``, unless a ``surrogateescape`` stream read a byte into it that its codec cannot decode."""
    if not all(map(str.isascii, row)) and getattr(stream, "errors", None) == "surrogateescape":
        data = (",".join(row) + "\n").encode(stream.encoding, "surrogateescape")
        try:  # decoded strictly again for the codec's own byte and reason
            data.decode(stream.encoding)
        except UnicodeDecodeError as exc:
            raise PanelFormatError(_decode_message(exc), line=lineno - _line_ends(data[exc.start : -1])) from None
    return row


def _decode_message(exc: UnicodeDecodeError) -> str:
    """The codec's byte and reason, without its position in a buffer the user never sees."""
    return f"{exc.encoding!r} codec can't decode byte {exc.object[exc.start]:#04x}: {exc.reason}"


def _line_ends(data: bytes) -> int:
    """The number of line ends (``\\n``, ``\\r\\n`` or ``\\r``) in ``data``."""
    return data.count(b"\n") + data.count(b"\r") - data.count(b"\r\n")


def _integer(raw: str, name: str, lineno: int | None, expected: str = "is not an integer") -> int:
    """ASCII digits after an optional ``-`` as an int, else a PanelFormatError ``{name} {raw!r} {expected}``."""
    if raw.isascii() and raw.removeprefix("-").isdigit():  # int() alone also reads +3, 1_000 and non-ASCII digits
        try:
            return int(raw)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            pass
    raise PanelFormatError(f"{name} {raw!r} {expected}", line=lineno)


def parse_aggregate(stream: io.TextIOBase, s: int, G: int) -> AggregateTable:
    """Parse and validate a long-format aggregate CSV.

    Reads ``stream`` to its end or first error, and leaves a strict one in
    ``errors="surrogateescape"`` mode unless it was read before.
    """
    rows = [[0] * (s + 1) for _ in range(G + 1)]
    marginal = None  # kind of the first data row; every later row must match
    for lineno, (raw_cohort, raw_outcome, raw_count) in _data_rows(stream, AGGREGATE_HEADER):
        cohort = None if raw_cohort == "" else _integer(raw_cohort, "cohort", lineno)
        if cohort is not None and not 0 <= cohort <= G - 1:
            raise PanelFormatError(f"cohort {cohort} outside 0..{G - 1}", line=lineno)
        if marginal is None:
            marginal = cohort is None
        elif marginal != (cohort is None):
            first, this = ("marginal", "stratified") if marginal else ("stratified", "marginal")
            raise PanelFormatError(
                f"{this} row in a {first} table; marginal (empty cohort) and stratified "
                "rows cannot be mixed",
                line=lineno,
            )

        if raw_outcome == CENSORED_OUTCOME:
            column = s
        else:
            outcome = _integer(raw_outcome, "outcome", lineno, f"must be 1..{s} or {CENSORED_OUTCOME!r}")
            if not 1 <= outcome <= s:
                raise PanelFormatError(f"outcome {outcome} outside 1..{s}", line=lineno)
            column = outcome - 1

        count = _integer(raw_count, "count", lineno)
        if count < 0:
            raise PanelFormatError(f"count must be nonnegative, got {count}", line=lineno)

        rows[G if cohort is None else cohort][column] += count

    return AggregateTable(s, G, rows)


def _unit_row(cells: list[str], s: int, G: int, lineno: int | None) -> tuple[int, int, bool]:
    """Validate the stripped cells of one ``t,d,censored`` row into ``(t, d, censored)``."""
    raw_t, raw_d, raw_censored = cells
    t = _integer(raw_t, "t", lineno)
    if not 0 <= t <= G - 1:
        raise PanelFormatError(f"t {t} outside 0..{G - 1}", line=lineno)

    if raw_censored not in ("0", "1"):
        raise PanelFormatError(f"censored must be 0 or 1, got {raw_censored!r}", line=lineno)
    censored = raw_censored == "1"

    d = s if censored and raw_d == "" else _integer(raw_d, "d", lineno)
    if censored and d != s:
        raise PanelFormatError(f"censored unit must have d = s = {s} or empty, got {d}", line=lineno)
    if not 1 <= d <= s:
        raise PanelFormatError(f"uncensored d {d} outside 1..{s}", line=lineno)
    return t, d, censored


def _unit_rows(stream: io.TextIOBase, s: int, G: int):
    """Validated ``(t, d, censored)`` for each non-blank row of a ``t,d,censored`` CSV."""
    for lineno, cells in _data_rows(stream, UNITS_HEADER):
        yield _unit_row(cells, s, G, lineno)


def parse_units(stream: io.TextIOBase, s: int, G: int) -> list[ObservedUnit]:
    """Parse unit-level records ``t,d,censored`` (censored rows may omit d).

    One object per row: the per-row reference for :func:`count_units`.
    Reads ``stream`` to its end or first error, and leaves a strict one in
    ``errors="surrogateescape"`` mode unless it was read before.
    """
    return [ObservedUnit(*parsed) for parsed in _unit_rows(stream, s, G)]


def _count_distinct_lines(fh: io.TextIOBase, s: int, G: int) -> Counter | None:
    """Count a unit file's ``(t, d, censored)`` by validating each distinct line once.

    ``fh`` reads with universal newlines, so every line ends in ``\\n``.
    After the header, reads ``_BLOCK`` characters at a time and splits the
    unfinished line of the last block plus the new block at ``\\n``.

    Returns None, and the caller reads the file row by row, which reports
    the first error with its line number, when the header, a distinct
    line or an unfinished line reaches ``csv.field_size_limit()``, which
    also stops the reading of a file without line ends; or when the header
    or a distinct line is not a valid row.
    """
    # Splitting at commas gives the cells csv.reader gives: a line has no
    # CR or LF, and a valid cell stripped of padding is ASCII digits, "-"
    # or empty, so a line that splits into a valid row holds no quote, no
    # NUL and no escaped undecodable byte.
    limit = csv.field_size_limit()  # a line this long may hold a cell csv.reader refuses
    header = fh.readline(limit)
    lines = Counter()
    tail = ""  # the unfinished line at the end of the text read so far
    units = Counter()
    try:
        _check_header(header.rstrip("\n").split(","), UNITS_HEADER)
        while len(tail) < limit and (block := fh.read(_BLOCK)):
            pieces = (tail + block).split("\n")
            tail = pieces.pop()
            lines.update(pieces)
        lines[tail] += 1
        if max(map(len, [header, *lines])) >= limit:
            return None
        for line, n in lines.items():
            cells = _cells(line.split(","), None)
            if cells is not None:
                units[_unit_row(cells, s, G, None)] += n
    except PanelFormatError:
        return None
    return units


def count_units(path, s: int, G: int) -> AggregateTable:
    """Read a ``t,d,censored`` file straight into an aggregate table.

    Equal to tabulating :func:`parse_units`, with the same errors, but a
    valid file costs one pass over its text, split into lines a block at
    a time, and memory in the number of distinct lines, not rows.  A pipe
    takes the per-row path, which counts the rows as they are read; so
    does a file with a distinct line that does not split into a valid row
    (a quoted cell, an undecodable byte, an invalid row, ...) or with a
    line as long as ``csv.field_size_limit()``.  The per-row path reads the
    same stream with ``newline=""``, as ``csv.reader`` needs, so a quoted
    cell keeps its ``\\r``.
    """
    with open(path, errors="surrogateescape") as fh:
        units = None
        if fh.seekable():
            units = _count_distinct_lines(fh, s, G)
            if units is None:
                fh.seek(0)
        if units is None:
            fh.reconfigure(newline="")  # allowed before the first read and after a seek
            units = Counter(_unit_rows(fh, s, G))
    rows = [[0] * (s + 1) for _ in range(G + 1)]
    for (t, d, censored), n in units.items():
        rows[t][s if censored else d - 1] += n
    return AggregateTable(s, G, rows)


def to_sufficient_stats(table: AggregateTable) -> SufficientStats:
    """Collapse an aggregate table to sufficient statistics."""
    *failures, m_cens = map(sum, zip(*table.rows))  # the pooled row
    m_uncens = sum(failures)
    return SufficientStats(
        m=m_uncens + m_cens,
        m_uncens=m_uncens,
        m_cens=m_cens,
        duration_sum=sum(d * count for d, count in enumerate(failures, start=1)),
        s=table.s,
    )


def age_counts(table: AggregateTable) -> tuple[list[int], list[int]]:
    """Events and units at risk at ages ``1 .. s+G-1`` of a stratified table.

    A unit of cohort t with outcome d (d = s if censored) is at risk at
    ages t+1 .. t+d and, if uncensored, fails at age t+d: in window year
    j + 1 of row t, ``rows[t][j]`` fail out of the ``sum(rows[t][j:])`` at
    risk.  A marginal table has no cohorts, hence no ages; one whose counts
    are all 0 is the empty table and has zeros at every age.
    """
    s, G = table.s, table.G
    if any(table.rows[G]):
        raise ValueError("age counts need a stratified table (a cohort on every row), got a marginal one")
    events = [0] * (s + G - 1)
    at_risk = [0] * (s + G - 1)
    for t, row in enumerate(table.rows[:G]):
        for j in range(s):  # age t + j + 1
            events[t + j] += row[j]
            at_risk[t + j] += sum(row[j:])
    return events, at_risk
