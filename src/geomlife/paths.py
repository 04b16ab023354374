"""Per-unit counting-process paths, compensators, martingale residuals.

Age is indexed ``x = 1 .. horizon``.  For a unit with lifespan ``X`` and
truncation age ``T`` under an ``s``-year window, the bundle stores the
increment/at-risk vectors

* ``dn(x)      = 1{X = x}``                         raw failure indicator
* ``y_prev(x)  = 1{X >= x}``                        at risk just before x
* ``dn_trunc(x)     = 1{T <= x-1} 1{X = x}``        left-truncated
* ``y_trunc_prev(x) = 1{T <= x-1 <= X-1}``
* ``dn_tc(x)   = 1{T < x <= T+s} 1{X = x}``         truncated + censored
* ``y_tc_prev(x) = 1{T < x <= min(X, T+s)}``
* ``da_tc(x)   = theta * y_tc_prev(x)``             compensator increment
* ``dm_tc(x)   = dn_tc(x) - da_tc(x)``              martingale residual

A unit that failed before observation began (``X <= T``) has all
truncated/censored vectors identically zero, which the indicator formulas
produce without special-casing.  Each vector is a tuple over the ages.
"""

from __future__ import annotations

from typing import NamedTuple

from .model import LatentUnit, StudyDesign, check_theta

#: Column order of the CSV dump produced by the ``paths`` CLI subcommand.
PATH_COLUMNS = ("x", "dN", "Y_prev", "dN_tc", "Y_tc_prev", "dA_tc", "dM_tc")


class PathBundle(NamedTuple):
    """Counting-process increment vectors for one unit over ages 1..horizon."""

    ages: tuple[int, ...]
    dn: tuple[int, ...]
    y_prev: tuple[int, ...]
    dn_trunc: tuple[int, ...]
    y_trunc_prev: tuple[int, ...]
    dn_tc: tuple[int, ...]
    y_tc_prev: tuple[int, ...]
    da_tc: tuple[float, ...]
    dm_tc: tuple[float, ...]
    theta: float


def build_paths(unit: LatentUnit, design: StudyDesign, theta: float) -> PathBundle:
    """Evaluate all indicator vectors for one unit at a given theta."""
    check_theta(theta)
    if unit.t > design.G - 1:
        raise ValueError(f"truncation age {unit.t} outside cohort support 0..{design.G - 1}")
    ages = tuple(range(1, design.horizon + 1))
    x, t, s = unit.x, unit.t, design.s

    def indicator(holds) -> tuple[int, ...]:
        return tuple(int(holds(age)) for age in ages)

    dn_tc = indicator(lambda age: t < age <= t + s and age == x)
    y_tc_prev = indicator(lambda age: t < age <= min(x, t + s))
    da_tc = tuple(theta * y for y in y_tc_prev)
    return PathBundle(
        ages=ages,
        dn=indicator(lambda age: age == x),
        y_prev=indicator(lambda age: age <= x),
        dn_trunc=indicator(lambda age: t <= age - 1 and age == x),
        y_trunc_prev=indicator(lambda age: t <= age - 1 and age <= x),
        dn_tc=dn_tc,
        y_tc_prev=y_tc_prev,
        da_tc=da_tc,
        dm_tc=tuple(dn - da for dn, da in zip(dn_tc, da_tc)),
        theta=theta,
    )


def sum_identities(unit: LatentUnit, design: StudyDesign) -> tuple[int, int]:
    """Closed forms for the path sums: (event count, risk time).

    ``events = 1{T < X <= T+s}`` and
    ``risk_time = 1{T < X} * (min(X, T+s) - T)`` equal the sums over the
    bundle's ``dn_tc`` and ``y_tc_prev`` vectors whenever the horizon is
    at least ``t + s``.
    """
    x, t, s = unit.x, unit.t, design.s
    events = int(t < x <= t + s)
    risk_time = int(t < x) * (min(x, t + s) - t)
    return events, risk_time
