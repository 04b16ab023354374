"""Closed-form conditional MLE, variance, Wald interval, life expectancy.

Aggregating a panel to its sufficient statistics, the point estimate is

    theta_hat = m_uncens / R,    R = sum_j d_j + s * m_cens,

the number of observed failures over the total observed risk time, and

    var_hat = theta_hat * (1 - theta_hat) / R

estimates its variance.  All counts are kept as exact integers; division
happens once, at the end, so identical integer inputs give bit-identical
estimates.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .model import ObservedUnit, StudyDesign, _make, check_integer, check_level, check_theta, life_expectancy


class NoRiskTimeError(ValueError):
    """Raised when estimation is requested with zero observed risk time."""


class SufficientStats(
    NamedTuple("SufficientStats", [("m", int), ("m_uncens", int), ("m_cens", int), ("duration_sum", int), ("s", int)])
):
    """Everything the estimator needs: counts and the uncensored duration sum."""

    __slots__ = ()
    _make = _make

    def __new__(cls, m: int, m_uncens: int, m_cens: int, duration_sum: int, s: int):
        for name, value in zip(cls._fields, (m, m_uncens, m_cens, duration_sum)):
            if type(value) is not int:  # a bool or a float is not a count
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if m != m_uncens + m_cens:
            raise ValueError("m must equal m_uncens + m_cens")
        if min(m_uncens, m_cens, duration_sum) < 0:
            raise ValueError("counts must be nonnegative")
        check_integer(s, "window length s", 1)
        if not m_uncens <= duration_sum <= s * m_uncens:
            raise ValueError(
                f"duration_sum {duration_sum} incompatible with "
                f"{m_uncens} uncensored units and s={s}"
            )
        return super().__new__(cls, m, m_uncens, m_cens, duration_sum, s)

    @property
    def risk_time(self) -> int:
        """Total observed exposure R = duration_sum + s * m_cens."""
        return self.duration_sum + self.s * self.m_cens


class EstimateResult(NamedTuple):
    theta_hat: float
    var_hat: float
    se: float
    level: float
    ci: tuple[float, float]
    life_expectancy: float
    life_expectancy_ci: tuple[float, float]
    degenerate: bool
    stats: SufficientStats

    def to_dict(self) -> dict:
        """JSON-ready mapping (non-finite years serialized as None)."""
        fin = lambda v: v if math.isfinite(v) else None
        return {
            "theta_hat": self.theta_hat,
            "se": self.se,
            "var": self.var_hat,
            "level": self.level,
            "ci": [self.ci[0], self.ci[1]],
            "life_expectancy": fin(self.life_expectancy),
            "life_expectancy_ci": [fin(self.life_expectancy_ci[0]), fin(self.life_expectancy_ci[1])],
            "m": self.stats.m,
            "m_uncens": self.stats.m_uncens,
            "m_cens": self.stats.m_cens,
            "risk_time": self.stats.risk_time,
            "degenerate": self.degenerate,
        }


def sufficient_stats(units: list[ObservedUnit], design: StudyDesign) -> SufficientStats:
    """Count and sum a list of observed units into sufficient statistics."""
    m_uncens = m_cens = duration_sum = 0
    for u in units:
        if not 0 <= u.t_obs <= design.G - 1:
            raise ValueError(f"t_obs {u.t_obs} outside cohort support 0..{design.G - 1}")
        if not 1 <= u.d <= design.s:
            raise ValueError(f"duration {u.d} outside 1..{design.s}")
        if u.censored:
            if u.d != design.s:
                raise ValueError(f"censored unit must have d = s = {design.s}, got {u.d}")
            m_cens += 1
        else:
            m_uncens += 1
            duration_sum += u.d
    return SufficientStats(
        m=m_uncens + m_cens,
        m_uncens=m_uncens,
        m_cens=m_cens,
        duration_sum=duration_sum,
        s=design.s,
    )


def theta_hat(stats: SufficientStats) -> float:
    """Point estimate m_uncens / R.

    With no observed failures the estimate is the boundary value 0; callers
    should treat it via the ``degenerate`` flag of :func:`estimate`.
    """
    R = stats.risk_time
    if R == 0:
        raise NoRiskTimeError("no risk time observed; cannot estimate")
    return stats.m_uncens / R


def var_hat(stats: SufficientStats, theta: float) -> float:
    """Variance estimate theta * (1 - theta) / R.

    At theta = m_uncens / R this equals the rational form
    (m_uncens * R - m_uncens^2) / R^3.
    """
    check_theta(theta)
    R = stats.risk_time
    if R == 0:
        raise NoRiskTimeError("no risk time observed; cannot estimate variance")
    return theta * (1.0 - theta) / R


def wald_ci(theta: float, se: float, level: float) -> tuple[float, float]:
    """theta +/- z * se, clipped to [0, 1]."""
    from statistics import NormalDist  # here, so that check and paths never import statistics

    check_level(level)
    z = NormalDist().inv_cdf((1.0 + level) / 2.0)  # Wichura's AS241, accurate to machine precision
    lo = max(0.0, theta - z * se)
    hi = min(1.0, theta + z * se)
    return lo, hi


def estimate(stats: SufficientStats, level: float = 0.95) -> EstimateResult:
    """Point estimate with variance, Wald CI, and life-expectancy interval.

    The interval on the expectancy scale is the reciprocal image of the
    unrounded theta interval, (1/hi, 1/lo).
    """
    th = theta_hat(stats)
    degenerate = stats.m_uncens == 0
    var = var_hat(stats, th)
    se = math.sqrt(var)
    lo, hi = wald_ci(th, se, level)
    expectancy = life_expectancy(th) if th > 0.0 else math.inf
    le_lo = 1.0 / hi if hi > 0.0 else math.inf
    le_hi = 1.0 / lo if lo > 0.0 else math.inf
    return EstimateResult(
        theta_hat=th,
        var_hat=var,
        se=se,
        level=level,
        ci=(lo, hi),
        life_expectancy=expectancy,
        life_expectancy_ci=(le_lo, le_hi),
        degenerate=degenerate,
        stats=stats,
    )
