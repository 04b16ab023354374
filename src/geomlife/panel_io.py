"""Ingestion of aggregate count tables and unit-level records.

Aggregate tables are long-format CSV with header ``cohort,outcome,count``:
``cohort`` is the truncation age (may be empty for a marginal table),
``outcome`` is a failure year ``1..s`` or the literal ``cens``, and
``count`` is a nonnegative integer.  Duplicate (cohort, outcome) rows are
summed.  A table is either marginal (every ``cohort`` empty) or stratified
(none empty); mixing the two would count units twice and is an error.
Unit-level files use header ``t,d,censored``.

Every input becomes one :class:`AggregateTable`, G + 1 rows of s + 1
exact ints: row t is cohort t, row G a marginal table's counts; columns
are failure in window year 1..s, then censored.
"""

from __future__ import annotations

import codecs
import csv
import io
from collections import Counter
from dataclasses import dataclass
from itertools import chain

from .estimator import SufficientStats
from .model import ObservedUnit

CENSORED_OUTCOME = "cens"

AGGREGATE_HEADER = ["cohort", "outcome", "count"]
UNITS_HEADER = ["t", "d", "censored"]


class PanelFormatError(ValueError):
    """Malformed or out-of-domain input; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class AggregateTable:
    """A (cohort x outcome) count table: ``rows``, G + 1 tuples of s + 1 ints.

    ``rows[t][d - 1]`` counts the units of cohort t that fail in window
    year d and ``rows[t][s]`` those censored at the window's end.  Row G
    holds the counts of a marginal table, whose units carry no cohort.
    """

    s: int
    G: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(map(tuple, self.rows))
        if len(rows) != self.G + 1 or set(map(len, rows)) != {self.s + 1}:
            raise ValueError(f"a table with s={self.s}, G={self.G} needs {self.G + 1} rows of {self.s + 1} counts")
        cells = tuple(chain.from_iterable(rows))
        for count in cells:
            if type(count) is not int:  # a bool or a float is not a count
                raise PanelFormatError(f"counts must be integers, got {count!r}")
        low = min(cells, default=0)
        if low < 0:
            raise PanelFormatError(f"counts must be nonnegative, got {low}")
        object.__setattr__(self, "rows", rows)

    @property
    def m(self) -> int:
        return sum(map(sum, self.rows))

    def pooled(self) -> "AggregateTable":
        """Marginalize over cohorts: each column summed into row G."""
        zero = (0,) * (self.s + 1)
        return AggregateTable(self.s, self.G, [*[zero] * self.G, map(sum, zip(*self.rows))])


def _csv_rows(stream: io.TextIOBase):
    """``(line, row)`` for each row of ``csv.reader``.

    ``line`` is the physical line the row ends on, which differs from the
    row count after a quoted cell spanning lines.  A csv-level error
    becomes a PanelFormatError.
    """
    reader = csv.reader(stream)
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as exc:  # e.g. a cell over csv.field_size_limit()
        raise PanelFormatError(str(exc), line=reader.line_num) from None


def parse_aggregate(stream: io.TextIOBase, s: int, G: int) -> AggregateTable:
    """Parse and validate a long-format aggregate CSV."""
    reader = _csv_rows(stream)
    try:
        _, header = next(reader)
    except StopIteration:
        raise PanelFormatError("empty input; expected header cohort,outcome,count")
    if [h.strip() for h in header] != AGGREGATE_HEADER:
        raise PanelFormatError(f"expected header {','.join(AGGREGATE_HEADER)}, got {','.join(header)}", line=1)

    rows = [[0] * (s + 1) for _ in range(G + 1)]
    marginal = None  # kind of the first data row; every later row must match
    for lineno, row in reader:
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != 3:
            raise PanelFormatError(f"expected 3 fields, got {len(row)}", line=lineno)
        raw_cohort, raw_outcome, raw_count = (cell.strip() for cell in row)

        if raw_cohort == "":
            cohort = None
        else:
            try:
                cohort = int(raw_cohort)
            except ValueError:
                raise PanelFormatError(f"cohort {raw_cohort!r} is not an integer", line=lineno)
            if not 0 <= cohort <= G - 1:
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
            try:
                outcome = int(raw_outcome)
            except ValueError:
                raise PanelFormatError(
                    f"outcome {raw_outcome!r} must be 1..{s} or {CENSORED_OUTCOME!r}", line=lineno
                )
            if not 1 <= outcome <= s:
                raise PanelFormatError(f"outcome {outcome} outside 1..{s}", line=lineno)
            column = outcome - 1

        try:
            count = int(raw_count)
        except ValueError:
            raise PanelFormatError(f"count {raw_count!r} is not an integer", line=lineno)
        if count < 0:
            raise PanelFormatError(f"count must be nonnegative, got {count}", line=lineno)

        rows[G if cohort is None else cohort][column] += count

    return AggregateTable(s, G, rows)


def _unit_row(row: list[str], s: int, G: int, lineno: int | None) -> tuple[int, int, bool] | None:
    """Validate one ``t,d,censored`` row; ``(t, d, censored)``, or None if blank."""
    if not row or all(not cell.strip() for cell in row):
        return None
    if len(row) != 3:
        raise PanelFormatError(f"expected 3 fields, got {len(row)}", line=lineno)
    raw_t, raw_d, raw_censored = (cell.strip() for cell in row)

    try:
        t = int(raw_t)
    except ValueError:
        raise PanelFormatError(f"t {raw_t!r} is not an integer", line=lineno)
    if not 0 <= t <= G - 1:
        raise PanelFormatError(f"t {t} outside 0..{G - 1}", line=lineno)

    if raw_censored not in ("0", "1"):
        raise PanelFormatError(f"censored must be 0 or 1, got {raw_censored!r}", line=lineno)
    censored = raw_censored == "1"

    if censored:
        if raw_d == "":
            d = s
        else:
            try:
                d = int(raw_d)
            except ValueError:
                raise PanelFormatError(f"d {raw_d!r} is not an integer", line=lineno)
            if d != s:
                raise PanelFormatError(f"censored unit must have d = s = {s} or empty, got {d}", line=lineno)
    else:
        try:
            d = int(raw_d)
        except ValueError:
            raise PanelFormatError(f"d {raw_d!r} is not an integer", line=lineno)
        if not 1 <= d <= s:
            raise PanelFormatError(f"uncensored d {d} outside 1..{s}", line=lineno)
    return t, d, censored


def _unit_rows(stream: io.TextIOBase, s: int, G: int):
    """Validated ``(t, d, censored)`` for each non-blank row of a ``t,d,censored`` CSV."""
    reader = _csv_rows(stream)
    try:
        _, header = next(reader)
    except StopIteration:
        raise PanelFormatError("empty input; expected header t,d,censored")
    if [h.strip() for h in header] != UNITS_HEADER:
        raise PanelFormatError(f"expected header {','.join(UNITS_HEADER)}, got {','.join(header)}", line=1)
    for lineno, row in reader:
        parsed = _unit_row(row, s, G, lineno)
        if parsed is not None:
            yield parsed


def parse_units(stream: io.TextIOBase, s: int, G: int) -> list[ObservedUnit]:
    """Parse unit-level records ``t,d,censored`` (censored rows may omit d).

    One object per row: the per-row reference for :func:`count_units`.
    """
    return [ObservedUnit(*parsed) for parsed in _unit_rows(stream, s, G)]


#: Encodings in which a byte 0x0A, 0x0D, 0x22, 0x2C or 0x00 is always that
#: character, so a file can be split into lines before it is decoded.
_LINE_SPLITTABLE_ENCODINGS = frozenset({"utf-8", "ascii"})


def _plain_fields(line: bytes, encoding: str) -> list[str] | None:
    """The row ``csv.reader`` gives for one raw line, or None if only csv can tell.

    Quotes, NULs, carriage returns other than a trailing CRLF, overlong
    lines and undecodable bytes all return None.
    """
    if line.endswith(b"\r\n"):
        line = line[:-2]
    elif line.endswith(b"\n"):
        line = line[:-1]
    if b'"' in line or b"\r" in line or b"\0" in line or len(line) > csv.field_size_limit():
        return None
    try:
        text = line.decode(encoding)
    except UnicodeDecodeError:
        return None
    return text.split(",") if text else []


def _count_distinct_lines(raw: io.BufferedIOBase, encoding: str, s: int, G: int) -> AggregateTable | None:
    """Tabulate a unit file by validating each distinct line once.

    Returns None when the header or any distinct line is not a plain,
    valid row; the caller then parses the file row by row, which reports
    the first error with its line number.
    """
    header = _plain_fields(raw.readline(), encoding)
    if header is None or [h.strip() for h in header] != UNITS_HEADER:
        return None
    rows = [[0] * (s + 1) for _ in range(G + 1)]
    for line, n in Counter(raw).items():
        row = _plain_fields(line, encoding)
        if row is None:
            return None
        try:
            parsed = _unit_row(row, s, G, lineno=None)
        except PanelFormatError:
            return None
        if parsed is not None:
            t, d, censored = parsed
            rows[t][s if censored else d - 1] += n
    return AggregateTable(s, G, rows)


def count_units(path, s: int, G: int) -> AggregateTable:
    """Read a ``t,d,censored`` file straight into an aggregate table.

    Equal to tabulating :func:`parse_units`, with the same errors, but a
    valid file costs one pass over its bytes and memory in the number of
    distinct lines, not rows.  Files that need the csv rules (quoted
    cells, stray carriage returns, ...) or hold an invalid row take the
    per-row path, which counts the rows as they are read.
    """
    with open(path, newline="") as fh:
        if fh.seekable() and codecs.lookup(fh.encoding).name in _LINE_SPLITTABLE_ENCODINGS:
            table = _count_distinct_lines(fh.buffer, fh.encoding, s, G)
            if table is not None:
                return table
            fh.seek(0)
        rows = [[0] * (s + 1) for _ in range(G + 1)]
        for t, d, censored in _unit_rows(fh, s, G):
            rows[t][s if censored else d - 1] += 1
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
