"""Per-unit reference functions that the tests compare production code against.

No subcommand, study or criterion calls them: the package works on the
(cohort x outcome) count table, and these spell the model out one unit
or one age at a time.  ``geom_pmf`` and ``geom_survival`` are the
lifespan distribution, ``observe`` the truncation/censoring scheme of one
latent unit (``model.observe_arrays`` is its vectorized production
form), ``likelihood_contribution`` one unit's conditional likelihood and
``expected_risk_profile`` the expected risk time by age.
"""

from __future__ import annotations

import numpy as np

from geomlife.model import LatentUnit, ObservedUnit, StudyDesign, TruncationDist, check_theta


def geom_pmf(theta: float, x) -> float:
    """P(X = x) = theta * (1 - theta)^(x-1) for integer lifespans x >= 1."""
    check_theta(theta)
    x = np.asarray(x)
    if np.any(x < 1):
        raise ValueError("lifespan x must be >= 1")
    out = theta * (1.0 - theta) ** (x - 1)
    return float(out) if out.ndim == 0 else out


def geom_survival(theta: float, x) -> float:
    """P(X >= x+1) = (1 - theta)^x for integer ages x >= 0."""
    check_theta(theta)
    x = np.asarray(x)
    if np.any(x < 0):
        raise ValueError("age x must be >= 0")
    out = (1.0 - theta) ** x
    return float(out) if out.ndim == 0 else out


def observe(unit: LatentUnit, design: StudyDesign) -> ObservedUnit | None:
    """Apply the truncation/censoring scheme to a latent unit.

    Returns ``None`` for a unit that failed before observation began
    (``x <= t``); otherwise the recorded triple.  The mapping is
    deterministic and uses nothing about the unit before age ``t``.
    """
    if unit.t > design.G - 1:
        raise ValueError(f"truncation age {unit.t} outside cohort support 0..{design.G - 1}")
    if unit.x <= unit.t:
        return None
    censored = unit.x > unit.t + design.s
    d = min(unit.x, unit.t + design.s) - unit.t
    return ObservedUnit(t_obs=unit.t, d=d, censored=censored)


def likelihood_contribution(unit: LatentUnit, design: StudyDesign, theta: float) -> float:
    """Conditional likelihood contribution of one latent unit."""
    check_theta(theta)
    x, t, s = unit.x, unit.t, design.s
    if x <= t:
        return 1.0
    event = 1 if x <= t + s else 0
    exponent = min(x - 1, t + s) - t
    return theta**event * (1.0 - theta) ** exponent


def expected_risk_profile(
    theta0: float, design: StudyDesign, tdist: TruncationDist
) -> np.ndarray:
    """E[y_tc_prev(x)] for x = 1..horizon: sum_t pmf(t) 1{t < x <= t+s} q^(x-1)."""
    q = 1.0 - theta0
    ages = np.arange(1, design.horizon + 1)
    t = np.arange(design.G)[:, None]
    at_risk = (t < ages) & (ages <= t + design.s)
    return (np.asarray(tdist.pmf)[:, None] * at_risk * q ** (ages - 1)).sum(axis=0)
