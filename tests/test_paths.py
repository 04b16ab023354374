import itertools

import numpy as np
import pytest

from geomlife.model import LatentUnit, StudyDesign, TruncationDist, sample_units
from geomlife.paths import build_paths, sum_identities

DESIGN = StudyDesign(s=2, G=5)


class TestBuildPaths:
    def test_observed_failure_in_window(self):
        b = build_paths(LatentUnit(x=4, t=3), DESIGN, theta=0.1)
        assert b.dn_tc == (0, 0, 0, 1, 0, 0)
        assert b.y_tc_prev == (0, 0, 0, 1, 0, 0)
        assert b.da_tc[3] == pytest.approx(0.1)
        assert sum(b.da_tc) == pytest.approx(0.1)

    def test_truncated_unit_all_zero(self):
        b = build_paths(LatentUnit(x=2, t=4), DESIGN, theta=0.3)
        assert not any(b.dn_trunc)
        assert not any(b.y_trunc_prev)
        assert not any(b.dn_tc)
        assert not any(b.y_tc_prev)
        assert not any(b.da_tc)
        assert not any(b.dm_tc)

    def test_censored_unit(self):
        b = build_paths(LatentUnit(x=10, t=3), DESIGN, theta=0.1)
        assert not any(b.dn_tc)
        assert b.y_tc_prev == (0, 0, 0, 1, 1, 0)
        assert sum(b.da_tc) == pytest.approx(2 * 0.1)

    def test_raw_vectors(self):
        b = build_paths(LatentUnit(x=3, t=0), DESIGN, theta=0.2)
        assert b.dn == (0, 0, 1, 0, 0, 0)
        assert b.y_prev == (1, 1, 1, 0, 0, 0)

    def test_invariants_on_grid(self):
        theta = 0.4
        for t in range(DESIGN.G):
            for x in range(1, 31):
                b = build_paths(LatentUnit(x=x, t=t), DESIGN, theta)
                assert sum(b.dn) <= 1
                assert sum(b.dn_tc) <= 1
                # an event requires being observably at risk, age by age
                assert all(dn <= y for dn, y in zip(b.dn_tc, b.y_tc_prev, strict=True))
                # at-risk indicator is 1 on a contiguous range
                idx = [i for i, y in enumerate(b.y_tc_prev) if y]
                if idx:
                    assert idx == list(range(idx[0], idx[-1] + 1))
                assert set(b.da_tc) <= {0.0, theta}

    def test_compensator_predictable_from_prefix(self):
        # da_tc at age x is recomputable from (t, s, observability, events
        # strictly before x): no look-ahead into the unit's future.
        theta = 0.3
        for t in range(DESIGN.G):
            for x_life in range(1, 31):
                b = build_paths(LatentUnit(x=x_life, t=t), DESIGN, theta)
                observable = x_life > t
                for i, age in enumerate(b.ages):
                    no_event_yet = sum(b.dn_tc[:i]) == 0
                    at_risk = int(observable and no_event_yet and t < age <= t + DESIGN.s)
                    assert b.da_tc[i] == pytest.approx(theta * at_risk)


class TestSumIdentities:
    @pytest.mark.parametrize(
        "x,t,expected",
        [(4, 3, (1, 1)), (2, 4, (0, 0)), (10, 3, (0, 2))],
    )
    def test_examples(self, x, t, expected):
        assert sum_identities(LatentUnit(x=x, t=t), DESIGN) == expected

    def test_exhaustive_grid_against_path_sums(self):
        for t in range(DESIGN.G):
            for x in range(1, 51):
                unit = LatentUnit(x=x, t=t)
                b = build_paths(unit, DESIGN, theta=0.5)
                events, risk_time = sum_identities(unit, DESIGN)
                assert sum(b.dn_tc) == events
                assert sum(b.y_tc_prev) == risk_time


class TestMartingaleResidual:
    def test_unobserved_unit_zero(self):
        b = build_paths(LatentUnit(x=1, t=4), DESIGN, theta=0.1)
        assert not any(b.dm_tc)

    def test_event_year_residual(self):
        b = build_paths(LatentUnit(x=4, t=3), DESIGN, theta=0.1)
        dm = b.dm_tc
        assert dm[3] == pytest.approx(0.9)
        assert dm[:3] + dm[4:] == (0, 0, 0, 0, 0)

    def test_cumulative_path(self):
        b = build_paths(LatentUnit(x=10, t=3), DESIGN, theta=0.1)
        path = list(itertools.accumulate(b.dm_tc))
        assert path[-1] == pytest.approx(-0.2)

    def test_zero_mean_at_true_parameter(self):
        # simulation oracle: residual sums average to ~0 under the truth
        theta0, n = 0.1, 10**5
        rng = np.random.default_rng(2024)
        x, t = sample_units(theta0, TruncationDist.uniform(DESIGN.G), n, rng)
        events = (t < x) & (x <= t + DESIGN.s)
        risk = np.where(t < x, np.minimum(x, t + DESIGN.s) - t, 0)
        totals = events - theta0 * risk  # sum over ages of dm_tc per unit
        se = totals.std(ddof=1) / np.sqrt(n)
        assert abs(totals.mean()) < 3 * se
