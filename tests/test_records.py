"""Records are immutable values: fixed repr, no assignable fields, equality and hash by value.

A validated record cannot be built invalid: ``_make`` and ``_replace`` run
the constructor's checks.
"""

import re

import numpy as np
import pytest

from geomlife.estimator import SufficientStats
from geomlife.model import LatentUnit, StudyDesign, TruncationDist
from geomlife.panel_io import AggregateTable
from geomlife.simulation import SimConfig


def sim_config(n=100):
    return SimConfig(0.1, StudyDesign(2, 2), TruncationDist.uniform(2), n=n, n_replicates=10, seed=1)


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
    (
        "SimConfig(theta0=0.1, design=StudyDesign(s=2, G=2), tdist=TruncationDist(pmf=(0.5, 0.5)), "
        "n=100, n_replicates=10, seed=1, level=0.95)",
        sim_config,
        sim_config(n=101),
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


# a valid record, changes its checks reject, and a change they accept; an integer field takes
# neither a bool nor a float, integral or not
VALIDATED = [
    (StudyDesign(2, 5), [{"s": 0}, {"s": 2.5}, {"s": True}, {"G": 5.0}], {"s": 3}),
    (TruncationDist([0.5, 0.5]), [{"pmf": (0.5, 0.6)}], {"pmf": (0.25, 0.75)}),
    (LatentUnit(3, 1), [{"x": 0}, {"x": 2.5}, {"t": True}], {"t": 2}),
    (SufficientStats(3, 2, 1, 3, 2), [{"m_uncens": -7}, {"s": 2.5}, {"s": True}], {"duration_sum": 4}),
    (AggregateTable(1, 1, [[1, 2], [0, 0]]), [{"rows": ((1, -2), (0, 0))}], {"rows": ((1, 2), (0, 5))}),
    (
        sim_config(),
        [{"n": 0}, {"n": 10.5}, {"n": True}, {"n_replicates": 2.5}, {"n_replicates": 0}, {"seed": True}],
        {"n": 5},
    ),
]


@pytest.mark.parametrize("record,bads,good", VALIDATED, ids=[type(record).__name__ for record, _, _ in VALIDATED])
def test_make_and_replace_run_the_constructor_checks(record, bads, good):
    cls = type(record)
    for bad in bads:
        values = [bad.get(name, value) for name, value in zip(cls._fields, record)]
        with pytest.raises(ValueError) as built:
            cls(*values)
        message = f"^{re.escape(str(built.value))}$"
        with pytest.raises(type(built.value), match=message):
            cls._make(values)
        with pytest.raises(type(built.value), match=message):
            record._replace(**bad)
    replaced = record._replace(**good)
    assert type(replaced) is cls
    assert replaced == cls(**{**record._asdict(), **good})


@pytest.mark.parametrize(
    "make,message",
    [
        (lambda: StudyDesign(2.5, 5), "window length s must be an integer, got 2.5"),
        (lambda: StudyDesign(True, 5), "window length s must be an integer, got True"),
        (lambda: LatentUnit(2.5, 0), "lifespan x must be an integer, got 2.5"),
        (lambda: SufficientStats(3, 2, 1, 3, s=2.5), "window length s must be an integer, got 2.5"),
        (lambda: sim_config(n=10.5), "n must be an integer, got 10.5"),
        (lambda: sim_config(n=True), "n must be an integer, got True"),
        (lambda: sim_config()._replace(n_replicates=2.5), "n_replicates must be an integer, got 2.5"),
        (lambda: sim_config(n=-5), "n must be >= 1, got -5"),
        (lambda: sim_config()._replace(n_replicates=0), "n_replicates must be >= 1, got 0"),
    ],
)
def test_integer_fields_name_the_field_and_the_value(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


def test_numpy_integers_are_integers():
    assert StudyDesign(np.int64(2), np.int32(5)) == StudyDesign(2, 5)
    assert sim_config(n=np.int64(100)) == sim_config()
