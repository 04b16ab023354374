import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from geomlife.estimator import NoRiskTimeError, SufficientStats
from geomlife.likelihood import _golden_section_max, conditional_loglik, grid_argmax
from geomlife.model import THETA_EPS, LatentUnit, StudyDesign, TruncationDist, sample_units
from geomlife.paths import build_paths

from helpers import G, S, TABLE1_M_UNCENS, TABLE1_RISK_TIME, table1
from oracles import likelihood_contribution, observe

DESIGN = StudyDesign(s=S, G=G)

TABLE1_STATS = SufficientStats(
    m=1447814, m_uncens=275162, m_cens=1172652, duration_sum=382212, s=2
)


def path_product(unit, design, theta):
    """Independent product form: prod (1-dA)^(1-dN) * dA^dN with 0**0 = 1."""
    b = build_paths(unit, design, theta)
    prod = 1.0
    for dn, da in zip(b.dn_tc, b.da_tc):
        prod *= (1.0 - da) ** (1 - dn) * da**dn
    return prod


class TestContribution:
    def test_failure_in_window(self):
        theta = 0.37
        assert likelihood_contribution(LatentUnit(x=4, t=3), DESIGN, theta) == pytest.approx(theta)

    def test_unobserved_unit(self):
        assert likelihood_contribution(LatentUnit(x=2, t=4), DESIGN, 0.3) == 1.0

    def test_censored_unit(self):
        assert likelihood_contribution(LatentUnit(x=10, t=3), DESIGN, 0.1) == pytest.approx(0.81)

    @pytest.mark.parametrize("theta", [0.05, 0.1, 0.5, 0.9])
    def test_product_consistency_on_grid(self, theta):
        for t in range(DESIGN.G):
            for x in range(1, 51):
                unit = LatentUnit(x=x, t=t)
                closed = likelihood_contribution(unit, DESIGN, theta)
                assert closed == pytest.approx(path_product(unit, DESIGN, theta), rel=1e-12)

    @given(
        x=st.integers(min_value=1, max_value=40),
        t=st.integers(min_value=0, max_value=7),
        s=st.integers(min_value=1, max_value=5),
        theta=st.floats(min_value=0.01, max_value=0.99),
    )
    def test_product_consistency_property(self, x, t, s, theta):
        design = StudyDesign(s=s, G=8)
        unit = LatentUnit(x=x, t=t)
        closed = likelihood_contribution(unit, design, theta)
        assert closed == pytest.approx(path_product(unit, design, theta), rel=1e-12)

    def test_reduces_to_pmf_without_truncation_or_censoring(self):
        # G=1 forces t=0; a window covering the lifespan leaves plain pmf terms
        theta = 0.23
        for x in range(1, 8):
            design = StudyDesign(s=10, G=1)
            got = likelihood_contribution(LatentUnit(x=x, t=0), design, theta)
            assert got == pytest.approx(theta * (1.0 - theta) ** (x - 1), rel=1e-12)


class TestConditionalLoglik:
    def test_single_immediate_failure(self):
        stats = SufficientStats(m=1, m_uncens=1, m_cens=0, duration_sum=1, s=2)
        assert conditional_loglik(stats, 0.5) == pytest.approx(math.log(0.5))

    def test_unimodal_around_estimate(self):
        at_hat = conditional_loglik(TABLE1_STATS, 0.1009)
        assert at_hat > conditional_loglik(TABLE1_STATS, 0.09)
        assert at_hat > conditional_loglik(TABLE1_STATS, 0.11)
        assert math.isfinite(at_hat)

    def test_no_events(self):
        stats = SufficientStats(m=5, m_uncens=0, m_cens=5, duration_sum=0, s=2)
        theta = 0.2
        assert conditional_loglik(stats, theta) == pytest.approx(10 * math.log(0.8))

    def test_boundary_values_are_neg_inf(self):
        stats = SufficientStats(m=2, m_uncens=1, m_cens=1, duration_sum=2, s=2)
        assert conditional_loglik(stats, 0.0) == -math.inf
        assert conditional_loglik(stats, 1.0) == -math.inf

    def test_boundary_with_zero_count_stays_finite(self):
        stats = SufficientStats(m=3, m_uncens=0, m_cens=3, duration_sum=0, s=2)
        assert conditional_loglik(stats, 0.0) == 0.0

    def test_equals_sum_of_unit_log_contributions(self):
        theta0, theta_eval, n = 0.2, 0.35, 400
        design = StudyDesign(s=3, G=4)
        rng = np.random.default_rng(8)
        x, t = sample_units(theta0, TruncationDist.uniform(4), n, rng)
        units = [LatentUnit(x=int(xi), t=int(ti)) for xi, ti in zip(x, t)]
        log_prod = sum(math.log(likelihood_contribution(u, design, theta_eval)) for u in units)

        observed = [observe(u, design) for u in units]
        kept = [o for o in observed if o is not None]
        m_uncens = sum(1 for o in kept if not o.censored)
        duration_sum = sum(o.d for o in kept if not o.censored)
        m_cens = sum(1 for o in kept if o.censored)
        stats = SufficientStats(
            m=len(kept), m_uncens=m_uncens, m_cens=m_cens, duration_sum=duration_sum, s=3
        )
        assert conditional_loglik(stats, theta_eval) == pytest.approx(log_prod, rel=1e-12)

    def test_strict_concavity_by_finite_differences(self):
        stats = TABLE1_STATS
        h = 1e-5
        for theta in np.linspace(0.05, 0.95, 10):
            second = (
                conditional_loglik(stats, theta + h)
                - 2 * conditional_loglik(stats, theta)
                + conditional_loglik(stats, theta - h)
            ) / h**2
            assert second < 0.0


class TestGridArgmax:
    def test_table_stats(self):
        assert abs(grid_argmax(TABLE1_STATS) - TABLE1_M_UNCENS / TABLE1_RISK_TIME) <= 1e-6

    def test_symmetric_case(self):
        # m_uncens = 5 over R = 10 risk years
        stats = SufficientStats(m=5, m_uncens=5, m_cens=0, duration_sum=10, s=2)
        assert abs(grid_argmax(stats) - 0.5) <= 1e-6

    def test_random_stats_match_closed_form(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            m_uncens = int(rng.integers(1, 500))
            extra = int(rng.integers(0, m_uncens + 1))
            m_cens = int(rng.integers(1, 500))
            stats = SufficientStats(
                m=m_uncens + m_cens,
                m_uncens=m_uncens,
                m_cens=m_cens,
                duration_sum=m_uncens + extra,
                s=2,
            )
            closed = m_uncens / stats.risk_time
            assert abs(grid_argmax(stats) - closed) <= 1e-6

    def test_argmax_equals_the_numpy_scan_on_oracle_cases(self):
        # criterion 04's cases: 100 seeded random stats and the reference table
        rng = np.random.default_rng(1234)
        cases = [TABLE1_STATS]
        for _ in range(100):
            m_uncens = int(rng.integers(1, 2000))
            extra = int(rng.integers(0, m_uncens + 1))
            m_cens = int(rng.integers(1, 2000))
            cases.append(SufficientStats(m_uncens + m_cens, m_uncens, m_cens, m_uncens + extra, 2))
        for stats in cases:
            grid = np.linspace(THETA_EPS, 1.0 - THETA_EPS, 2001)
            values = np.array([conditional_loglik(stats, th) for th in grid])
            k = int(np.argmax(values))
            loglik = partial(conditional_loglik, stats)
            want = _golden_section_max(loglik, grid[max(k - 1, 0)], grid[min(k + 1, 2000)])
            assert grid_argmax(stats) == want

    def test_no_data(self):
        stats = SufficientStats(m=0, m_uncens=0, m_cens=0, duration_sum=0, s=2)
        with pytest.raises(NoRiskTimeError):
            grid_argmax(stats)

    def test_table1_helper_agrees(self):
        from geomlife.panel_io import to_sufficient_stats

        assert to_sufficient_stats(table1()) == TABLE1_STATS
