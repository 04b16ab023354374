"""Records are immutable values: fixed repr, no assignable fields, equality and hash by value."""

import pytest

from geomlife.estimator import SufficientStats
from geomlife.model import StudyDesign
from geomlife.panel_io import AggregateTable

# repr, a factory of that record, and a record of the same type holding other values
RECORDS = [
    ("StudyDesign(s=2, G=5)", lambda: StudyDesign(2, 5), StudyDesign(2, 6)),
    (
        "SufficientStats(m=3, m_uncens=2, m_cens=1, duration_sum=3, s=2)",
        lambda: SufficientStats(m=3, m_uncens=2, m_cens=1, duration_sum=3, s=2),
        SufficientStats(m=3, m_uncens=2, m_cens=1, duration_sum=4, s=2),
    ),
    (
        "AggregateTable(s=1, G=1, rows=((1, 2), (0, 0)))",
        lambda: AggregateTable(1, 1, [[1, 2], [0, 0]]),
        AggregateTable(1, 1, [[1, 2], [0, 1]]),
    ),
]


@pytest.mark.parametrize("text,make,other", RECORDS, ids=[text.split("(")[0] for text, _, _ in RECORDS])
class TestRecord:
    def test_repr(self, text, make, other):
        assert repr(make()) == text

    def test_fields_cannot_be_assigned(self, text, make, other):
        record = make()
        with pytest.raises(AttributeError):
            record.s = 7
        with pytest.raises(AttributeError):  # no __dict__ takes a new attribute either
            record.extra = 7
        assert record == make()

    def test_equal_values_are_equal_and_hash_alike(self, text, make, other):
        record = make()
        positional, keyword = type(record)(*record), type(record)(**record._asdict())
        assert record == positional == keyword
        assert len({hash(record), hash(positional), hash(keyword)}) == 1
        assert record != other
