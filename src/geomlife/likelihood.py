"""Conditional likelihood for truncated/censored units, plus a numerical maximizer.

Conditioning on observability makes each unit's contribution free of the
truncation-age distribution:

    L(theta) = 1                                          if x <= t (never seen)
             = theta^{1{x <= t+s}} * (1-theta)^{min(x-1, t+s) - t}   otherwise

The sample log-likelihood collapses to counts:  m_uncens * log(theta) +
(R - m_uncens) * log(1 - theta).  ``grid_argmax`` returns its argmax, found
numerically (grid scan + golden-section refinement): an independent check on
the closed-form estimator; it never uses the m_uncens / R formula.
"""

from __future__ import annotations

import math
from functools import partial

from .estimator import NoRiskTimeError, SufficientStats
from .model import THETA_EPS, check_theta

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: Points of grid_argmax's uniform grid over [THETA_EPS, 1 - THETA_EPS].
GRID_POINTS = 2001


def _xlogy(count: float, p: float) -> float:
    """count * log(p) with the 0 * log(0) = 0 convention."""
    if count == 0:
        return 0.0
    if p == 0.0:
        return -math.inf
    return count * math.log(p)


def conditional_loglik(stats: SufficientStats, theta: float) -> float:
    """m_uncens * log(theta) + (R - m_uncens) * log(1 - theta).

    Returns -inf (not an exception) at theta in {0, 1} when the
    corresponding count is positive.
    """
    check_theta(theta)
    events, survivals = stats.m_uncens, stats.risk_time - stats.m_uncens
    if theta == 0.0 or theta == 1.0:
        return _xlogy(events, theta) + _xlogy(survivals, 1.0 - theta)
    return _loglik(events, survivals, theta)


def _loglik(events: int, survivals: int, theta: float) -> float:
    """The log-likelihood at a theta in (0, 1), unchecked: the objective grid_argmax searches."""
    return events * math.log(theta) + survivals * math.log(1.0 - theta)


def _golden_section_max(f, lo: float, hi: float, tol: float = 1e-10) -> float:
    """Maximize a unimodal f on [lo, hi] to within tol."""
    a, b = lo, hi
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def grid_argmax(stats: SufficientStats) -> float:
    """Numerically maximize the conditional log-likelihood over [THETA_EPS, 1 - THETA_EPS].

    A uniform grid of :data:`GRID_POINTS` points locates the mode;
    golden-section search on the bracketing interval refines it to ~1e-9.
    """
    if stats.risk_time == 0:
        raise NoRiskTimeError("no observed risk time; log-likelihood is flat")
    first, last = THETA_EPS, 1.0 - THETA_EPS
    step = (last - first) / (GRID_POINTS - 1)
    grid = tuple(i * step + first for i in range(GRID_POINTS - 1)) + (last,)  # np.linspace, bit for bit
    loglik = partial(_loglik, stats.m_uncens, stats.risk_time - stats.m_uncens)  # every th searched is in (0, 1)
    values = tuple(map(loglik, grid))
    k = max(range(GRID_POINTS), key=values.__getitem__)  # the first maximum, as np.argmax
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, GRID_POINTS - 1)]
    return _golden_section_max(loglik, lo, hi)
