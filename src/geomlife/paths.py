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
produce without special-casing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import LatentUnit, StudyDesign, check_theta

#: Column order of the CSV dump produced by the ``paths`` CLI subcommand.
PATH_COLUMNS = ("x", "dN", "Y_prev", "dN_tc", "Y_tc_prev", "dA_tc", "dM_tc")


@dataclass(frozen=True)
class PathBundle:
    """Counting-process increment vectors for one unit over ages 1..horizon."""

    ages: np.ndarray
    dn: np.ndarray
    y_prev: np.ndarray
    dn_trunc: np.ndarray
    y_trunc_prev: np.ndarray
    dn_tc: np.ndarray
    y_tc_prev: np.ndarray
    da_tc: np.ndarray
    dm_tc: np.ndarray
    theta: float


def dn_tc_indicator(x, t, age, s):
    """1{t < age <= t+s, age = x}; broadcasts over array arguments."""
    return ((t < age) & (age <= t + s) & (age == x)).astype(np.int64)


def y_tc_prev_indicator(x, t, age, s):
    """1{t < age <= min(x, t+s)}; broadcasts over array arguments."""
    return ((t < age) & (age <= np.minimum(x, t + s))).astype(np.int64)


def build_paths(unit: LatentUnit, design: StudyDesign, theta: float) -> PathBundle:
    """Evaluate all indicator vectors for one unit at a given theta."""
    check_theta(theta)
    if unit.t > design.G - 1:
        raise ValueError(f"truncation age {unit.t} outside cohort support 0..{design.G - 1}")
    ages = np.arange(1, design.horizon + 1)
    x, t, s = unit.x, unit.t, design.s

    dn = (ages == x).astype(np.int64)
    y_prev = (ages <= x).astype(np.int64)
    dn_trunc = ((t <= ages - 1) & (ages == x)).astype(np.int64)
    y_trunc_prev = ((t <= ages - 1) & (ages <= x)).astype(np.int64)
    dn_tc = dn_tc_indicator(x, t, ages, s)
    y_tc_prev = y_tc_prev_indicator(x, t, ages, s)
    da_tc = theta * y_tc_prev
    dm_tc = dn_tc - da_tc

    return PathBundle(
        ages=ages,
        dn=dn,
        y_prev=y_prev,
        dn_trunc=dn_trunc,
        y_trunc_prev=y_trunc_prev,
        dn_tc=dn_tc,
        y_tc_prev=y_tc_prev,
        da_tc=da_tc,
        dm_tc=dm_tc,
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
