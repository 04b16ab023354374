import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from geomlife.estimator import (
    NoRiskTimeError,
    SufficientStats,
    estimate,
    sufficient_stats,
    theta_hat,
    var_hat,
    wald_ci,
)
from geomlife.model import ObservedUnit, StudyDesign

from helpers import TABLE1_DURATION_SUM, TABLE1_M, TABLE1_M_UNCENS, TABLE1_RISK_TIME

TABLE1_STATS = SufficientStats(
    m=TABLE1_M,
    m_uncens=TABLE1_M_UNCENS,
    m_cens=TABLE1_M - TABLE1_M_UNCENS,
    duration_sum=TABLE1_DURATION_SUM,
    s=2,
)


def observed_information_fd(stats, theta, dps=60, h="1e-12"):
    """-loglik''(theta) by high-precision central differences.

    Evaluates the conditional log-likelihood in mpmath arithmetic so the
    second difference is accurate to ~1e-20 relative; float64 differences
    cannot reach the 1e-9 comparison tolerance.
    """
    with mpmath.workdps(dps):
        m_u = mpmath.mpf(stats.m_uncens)
        rest = mpmath.mpf(stats.risk_time - stats.m_uncens)
        f = lambda th: m_u * mpmath.log(th) + rest * mpmath.log(1 - th)
        th = mpmath.mpf(repr(theta))
        step = mpmath.mpf(h)
        second = (f(th + step) - 2 * f(th) + f(th - step)) / step**2
        return float(-second)


class TestSufficientStats:
    def test_single_uncensored_unit(self):
        design = StudyDesign(s=2, G=5)
        stats = sufficient_stats([ObservedUnit(t_obs=0, d=1, censored=False)], design)
        assert (stats.m, stats.m_uncens, stats.m_cens, stats.duration_sum) == (1, 1, 0, 1)
        assert stats.risk_time == 1

    def test_mixed_units(self):
        design = StudyDesign(s=2, G=5)
        units = [
            ObservedUnit(t_obs=3, d=1, censored=False),
            ObservedUnit(t_obs=1, d=2, censored=False),
            ObservedUnit(t_obs=0, d=2, censored=True),
            ObservedUnit(t_obs=4, d=2, censored=True),
        ]
        stats = sufficient_stats(units, design)
        assert stats == SufficientStats(m=4, m_uncens=2, m_cens=2, duration_sum=3, s=2)
        assert stats.risk_time == 3 + 4

    def test_empty_input_gives_zero_stats(self):
        stats = sufficient_stats([], StudyDesign(s=2, G=5))
        assert stats.m == 0 and stats.risk_time == 0

    def test_rejects_invalid_units(self):
        design = StudyDesign(s=2, G=5)
        with pytest.raises(ValueError):
            sufficient_stats([ObservedUnit(t_obs=9, d=1, censored=False)], design)
        with pytest.raises(ValueError):
            sufficient_stats([ObservedUnit(t_obs=0, d=3, censored=False)], design)
        with pytest.raises(ValueError):
            sufficient_stats([ObservedUnit(t_obs=0, d=1, censored=True)], design)

    @pytest.mark.parametrize("count", [1.5, True, "3"], ids=["float", "bool", "str"])
    def test_non_integer_count_rejected(self, count):
        with pytest.raises(ValueError, match=f"m_uncens must be an integer, got {count!r}"):
            SufficientStats(m=1, m_uncens=count, m_cens=0, duration_sum=1, s=2)

    def test_invariant_validation(self):
        with pytest.raises(ValueError):
            SufficientStats(m=2, m_uncens=2, m_cens=1, duration_sum=2, s=2)
        with pytest.raises(ValueError):
            SufficientStats(m=1, m_uncens=1, m_cens=0, duration_sum=5, s=2)


class TestThetaHat:
    def test_table_counts_exact_rational(self):
        assert Fraction(TABLE1_STATS.m_uncens, TABLE1_STATS.risk_time) == Fraction(275162, 2727516)
        assert theta_hat(TABLE1_STATS) == 275162 / 2727516
        assert f"{theta_hat(TABLE1_STATS):.4f}" == "0.1009"

    def test_immediate_closure(self):
        stats = SufficientStats(m=1, m_uncens=1, m_cens=0, duration_sum=1, s=2)
        assert theta_hat(stats) == 1.0

    def test_stratified_cohort(self):
        stats = SufficientStats(
            m=246114, m_uncens=54311, m_cens=191803, duration_sum=71606, s=2
        )
        assert stats.risk_time == 455212
        assert theta_hat(stats) == 54311 / 455212
        assert theta_hat(stats) == pytest.approx(0.119310, abs=1e-6)

    def test_no_failures_returns_zero(self):
        stats = SufficientStats(m=3, m_uncens=0, m_cens=3, duration_sum=0, s=2)
        assert theta_hat(stats) == 0.0

    def test_no_risk_time(self):
        stats = SufficientStats(m=0, m_uncens=0, m_cens=0, duration_sum=0, s=2)
        with pytest.raises(NoRiskTimeError):
            theta_hat(stats)


class TestVarHat:
    def test_table_values(self):
        th = theta_hat(TABLE1_STATS)
        var = var_hat(TABLE1_STATS, th)
        assert var == pytest.approx(3.3256e-8, abs=1e-12)
        assert math.sqrt(var) == pytest.approx(1.8236e-4, abs=1e-8)

    def test_rational_form_identity(self):
        # theta*(1-theta)/R at theta = m/R equals (m*R - m^2)/R^3
        for stats in (
            TABLE1_STATS,
            SufficientStats(m=7, m_uncens=4, m_cens=3, duration_sum=6, s=2),
        ):
            th = theta_hat(stats)
            R = stats.risk_time
            m = stats.m_uncens
            rational = (m * R - m**2) / R**3
            assert var_hat(stats, th) == pytest.approx(rational, rel=1e-15)

    def test_half_probability(self):
        stats = SufficientStats(m=5, m_uncens=5, m_cens=0, duration_sum=10, s=2)
        assert var_hat(stats, 0.5) == pytest.approx(0.025)

    @pytest.mark.parametrize("theta", [0.0, 1.0])
    def test_boundary_parameter(self, theta):
        stats = SufficientStats(m=5, m_uncens=5, m_cens=0, duration_sum=10, s=2)
        assert var_hat(stats, theta) == 0.0

    def test_no_risk_time(self):
        stats = SufficientStats(m=0, m_uncens=0, m_cens=0, duration_sum=0, s=2)
        with pytest.raises(NoRiskTimeError):
            var_hat(stats, 0.5)


class TestWaldCi:
    def test_quantile_accuracy(self):
        lo, hi = wald_ci(0.5, 0.01, 0.95)
        z = (hi - 0.5) / 0.01  # the half-width over se is the 0.975 normal quantile
        assert z == pytest.approx(1.959964, abs=1e-6)
        assert z == pytest.approx(1.95996398454, abs=1e-8)
        assert (0.5 - lo) / 0.01 == pytest.approx(1.95996398454, abs=1e-8)

    def test_table_interval(self):
        th = theta_hat(TABLE1_STATS)
        se = math.sqrt(var_hat(TABLE1_STATS, th))
        lo, hi = wald_ci(th, se, 0.95)
        assert lo == pytest.approx(0.10053, abs=5e-6)
        assert hi == pytest.approx(0.10124, abs=5e-6)

    def test_zero_se(self):
        assert wald_ci(0.5, 0.0, 0.95) == (0.5, 0.5)

    def test_clipping(self):
        lo, hi = wald_ci(0.999, 0.01, 0.95)
        assert hi == 1.0
        lo, hi = wald_ci(0.001, 0.01, 0.95)
        assert lo == 0.0

    def test_bad_level(self):
        with pytest.raises(ValueError):
            wald_ci(0.5, 0.1, 1.5)

    def test_level_next_to_one(self):
        with pytest.raises(ValueError, match="^confidence level 0.9999999999999999 is too close to 1"):
            wald_ci(0.5, 0.1, 1.0 - 2.0**-53)  # (1 + level) / 2 rounds to 1
        lo, hi = wald_ci(0.5, 0.01, 1.0 - 2.0**-52)  # the largest level whose z is finite
        assert 0.0 < lo < 0.5 < hi < 1.0

    @given(
        theta=st.floats(min_value=0.0, max_value=1.0),
        se=st.floats(min_value=0.0, max_value=0.5),
        level=st.floats(min_value=0.01, max_value=0.999),
    )
    def test_ordering_and_bounds(self, theta, se, level):
        lo, hi = wald_ci(theta, se, level)
        assert 0.0 <= lo <= theta <= hi <= 1.0


class TestEstimate:
    def test_table_result(self):
        result = estimate(TABLE1_STATS, 0.95)
        assert result.theta_hat == 275162 / 2727516
        assert result.life_expectancy == pytest.approx(9.9124, abs=1e-4)
        assert result.life_expectancy_ci[0] == pytest.approx(9.877, abs=5e-4)
        assert result.life_expectancy_ci[1] == pytest.approx(9.948, abs=5e-4)
        assert not result.degenerate
        # reciprocal endpoints of the unrounded theta interval
        assert result.life_expectancy_ci == (1.0 / result.ci[1], 1.0 / result.ci[0])

    def test_boundary_estimate_clipped(self):
        stats = SufficientStats(m=5, m_uncens=5, m_cens=0, duration_sum=5, s=2)
        result = estimate(stats, 0.95)
        assert result.theta_hat == 1.0
        assert result.ci[1] == 1.0

    def test_degenerate_sample(self):
        stats = SufficientStats(m=4, m_uncens=0, m_cens=4, duration_sum=0, s=2)
        result = estimate(stats, 0.95)
        assert result.degenerate
        assert result.theta_hat == 0.0
        assert result.se == 0.0
        assert result.ci == (0.0, 0.0)
        assert math.isinf(result.life_expectancy)

    def test_to_dict_schema(self):
        payload = estimate(TABLE1_STATS).to_dict()
        assert set(payload) == {
            "theta_hat",
            "se",
            "var",
            "level",
            "ci",
            "life_expectancy",
            "life_expectancy_ci",
            "m",
            "m_uncens",
            "m_cens",
            "risk_time",
            "degenerate",
        }
        assert payload["m"] == TABLE1_M
        assert payload["risk_time"] == TABLE1_RISK_TIME


class TestInvariants:
    def test_variance_matches_observed_information(self):
        th = theta_hat(TABLE1_STATS)
        info = observed_information_fd(TABLE1_STATS, th)
        assert var_hat(TABLE1_STATS, th) == pytest.approx(1.0 / info, rel=1e-9)

    @given(
        m_uncens=st.integers(min_value=1, max_value=400),
        extra=st.integers(min_value=0, max_value=400),
        m_cens=st.integers(min_value=1, max_value=400),
    )
    def test_closed_form_maximizes_likelihood(self, m_uncens, extra, m_cens):
        from geomlife.likelihood import grid_argmax

        duration_sum = min(m_uncens + extra, 2 * m_uncens)
        stats = SufficientStats(
            m=m_uncens + m_cens,
            m_uncens=m_uncens,
            m_cens=m_cens,
            duration_sum=duration_sum,
            s=2,
        )
        assert abs(theta_hat(stats) - grid_argmax(stats)) <= 1e-6

    def test_truncation_age_invariance(self):
        # the estimate uses units only through (d, censored); shifting every
        # t_obs leaves it bit-identical
        rng = np.random.default_rng(4)
        units = [
            ObservedUnit(
                t_obs=int(rng.integers(0, 5)),
                d=int(rng.integers(1, 3)),
                censored=False,
            )
            for _ in range(50)
        ] + [ObservedUnit(t_obs=int(rng.integers(0, 5)), d=2, censored=True) for _ in range(50)]
        base = sufficient_stats(units, StudyDesign(s=2, G=5))
        shifted_units = [
            ObservedUnit(t_obs=u.t_obs + 7, d=u.d, censored=u.censored) for u in units
        ]
        shifted = sufficient_stats(shifted_units, StudyDesign(s=2, G=12))
        assert theta_hat(base) == theta_hat(shifted)
        assert estimate(base).ci == estimate(shifted).ci
