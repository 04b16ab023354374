"""Geometric lifespan model with left truncation and right censoring.

A unit (an enterprise, say) lives an integer number of years ``x >= 1``
drawn from a geometric distribution with annual closure probability
``theta``.  Its age one year before the observation window opens is
``t in {0, ..., G-1}``, drawn independently from a truncation-age
distribution.  The unit enters the panel only if it is still alive when
observation starts (``x >= t + 1``); otherwise it is left-truncated and
leaves no record at all.  Units alive after the ``s``-year window are
right-censored.

numpy is imported inside the functions that build arrays, so the scalar
half of this module (designs, units, ``observe``) costs no numpy import.
Records are ``typing.NamedTuple`` classes; a validated one checks its
invariants in ``__new__`` and sets :data:`_make`, which ``_replace`` calls.
Integer parameters (``s``, ``G``, ``x``, ``t``, a study's ``n``) are checked
by :func:`check_integer`; a count must be a plain int.
"""

from __future__ import annotations

import math
import numbers
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    import numpy as np

#: Default half-width trimmed off the parameter space [eps, 1 - eps].
THETA_EPS = 1e-6

#: ``_make`` for a validated record.  namedtuple's own ``_make``, which its
#: ``_replace`` calls, builds the tuple with ``tuple.__new__`` and so skips
#: the checks in ``__new__``; this one calls the class.
_make = classmethod(lambda cls, values: cls(*values))


def check_theta(theta: float, eps: float = 0.0) -> float:
    """Validate a closure probability, optionally against [eps, 1 - eps]."""
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta}")
    if eps and not eps <= theta <= 1.0 - eps:
        raise ValueError(f"theta must lie in [{eps}, {1.0 - eps}], got {theta}")
    return theta


def check_level(level: float, name: str = "confidence level") -> float:
    """Validate a confidence level: in (0, 1), with a finite normal quantile ``z`` at ``(1 + level) / 2``."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"{name} must be in (0, 1), got {level}")
    if (1.0 + level) / 2.0 == 1.0:  # the one float below 1 that rounds there
        raise ValueError(f"{name} {level} is too close to 1 for a finite interval")
    return level


def check_integer(value: int, name: str, low: int) -> None:
    """Validate an integer field >= ``low``: a numpy integer is one, a bool or a float is not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


class StudyDesign(NamedTuple("StudyDesign", [("s", int), ("G", int)])):
    """Observation-window length ``s`` and cohort count ``G``.

    ``horizon = s + G - 1`` bounds the age index of per-unit path vectors;
    it covers every age at which an observable unit can be seen at risk
    or fail.  It does not limit sampled lifespans.
    """

    __slots__ = ()
    _make = _make

    def __new__(cls, s: int, G: int):
        check_integer(s, "window length s", 1)
        check_integer(G, "cohort count G", 1)
        return super().__new__(cls, s, G)

    @property
    def horizon(self) -> int:
        return self.s + self.G - 1


class TruncationDist(NamedTuple("TruncationDist", [("pmf", tuple[float, ...])])):
    """Distribution of the truncation age on support {0, ..., G-1}.

    ``pmf`` is stored as a tuple of floats, so that two distributions
    compare equal and hash alike when their probabilities do.
    """

    __slots__ = ()
    _make = _make

    def __new__(cls, pmf):
        pmf = tuple(map(float, pmf))
        if not pmf:
            raise ValueError("truncation pmf must be a non-empty 1-d vector")
        if not all(map(math.isfinite, pmf)):  # NaN passes both checks below
            raise ValueError(f"truncation pmf entries must be finite, got {list(pmf)!r}")
        if min(pmf) < 0.0:
            raise ValueError("truncation pmf entries must be nonnegative")
        total = math.fsum(pmf)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"truncation pmf must sum to 1, got {total!r}")
        return super().__new__(cls, pmf)

    @property
    def G(self) -> int:
        return len(self.pmf)

    @classmethod
    def uniform(cls, G: int) -> "TruncationDist":
        check_integer(G, "cohort count G", 1)
        return cls([1.0 / G] * G)

    @classmethod
    def point_mass(cls, t: int, G: int) -> "TruncationDist":
        check_integer(t, "truncation age t", 0)
        check_integer(G, "cohort count G", 1)
        if t > G - 1:
            raise ValueError(f"point mass at {t} outside support 0..{G - 1}")
        pmf = [0.0] * G
        pmf[t] = 1.0
        return cls(pmf)


class LatentUnit(NamedTuple("LatentUnit", [("x", int), ("t", int)])):
    """A latent draw: lifespan ``x`` and truncation age ``t``."""

    __slots__ = ()
    _make = _make

    def __new__(cls, x: int, t: int):
        check_integer(x, "lifespan x", 1)
        check_integer(t, "truncation age t", 0)
        return super().__new__(cls, x, t)


class ObservedUnit(NamedTuple):
    """What the panel records for a unit that survived into the window.

    ``d`` is the duration in study: the failure year counted from
    observation start for an uncensored unit, or the full window length
    ``s`` for a censored one.
    """

    t_obs: int
    d: int
    censored: bool


def geom_pmf(theta: float, x) -> float:
    """P(X = x) = theta * (1 - theta)^(x-1) for integer lifespans x >= 1."""
    import numpy as np

    check_theta(theta)
    x = np.asarray(x)
    if np.any(x < 1):
        raise ValueError("lifespan x must be >= 1")
    out = theta * (1.0 - theta) ** (x - 1)
    return float(out) if out.ndim == 0 else out


def geom_survival(theta: float, x) -> float:
    """P(X >= x+1) = (1 - theta)^x for integer ages x >= 0."""
    import numpy as np

    check_theta(theta)
    x = np.asarray(x)
    if np.any(x < 0):
        raise ValueError("age x must be >= 0")
    out = (1.0 - theta) ** x
    return float(out) if out.ndim == 0 else out


def life_expectancy(theta: float) -> float:
    """Mean lifespan 1/theta of the geometric distribution on {1, 2, ...}."""
    check_theta(theta)
    if theta == 0.0:
        raise ValueError("life expectancy is undefined at theta = 0")
    return 1.0 / theta


def sample_units(
    theta: float,
    tdist: TruncationDist,
    n: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``n`` latent (x, t) pairs as integer arrays.

    Lifespans come from the inverse CDF ``x = ceil(log(1-u) / log(1-theta))``
    applied to one block of uniforms, truncation ages from a second block,
    so a single rng stream yields a reproducible sample of any size.
    """
    import numpy as np

    check_theta(theta, eps=THETA_EPS)
    if n < 0:
        raise ValueError("sample size must be >= 0")
    u_x = rng.random(n)
    u_t = rng.random(n)
    x = np.ceil(np.log1p(-u_x) / math.log1p(-theta)).astype(np.int64)
    np.maximum(x, 1, out=x)
    t = np.searchsorted(np.cumsum(tdist.pmf), u_t, side="right").astype(np.int64)
    np.minimum(t, tdist.G - 1, out=t)
    return x, t


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


def observe_arrays(x: np.ndarray, t: np.ndarray, design: StudyDesign) -> np.ndarray:
    """Vectorized :func:`observe`: one outcome code per unit.

    The code is 0 for a truncated unit, the failure year ``d`` in 1..s for
    an uncensored one and ``s + 1`` for a censored one, so that element
    by element it encodes what observe() returns.
    """
    import numpy as np

    return np.clip(x - t, 0, design.s + 1)


def observation_probability(theta: float, tdist: TruncationDist) -> float:
    """P(unit enters the panel) = sum_t pmf(t) * (1 - theta)^t."""
    import numpy as np

    check_theta(theta)
    ages = np.arange(tdist.G)
    return float(np.dot(tdist.pmf, (1.0 - theta) ** ages))


def cell_probabilities(theta: float, design: StudyDesign, tdist: TruncationDist) -> np.ndarray:
    """Probabilities of the (cohort x outcome) cells of one latent unit.

    Row ``t`` is cohort ``t``; its columns follow the outcome codes of
    :func:`observe_arrays`: truncated, failure in window year d = 1..s,
    censored.  With ``q = 1 - theta``:

        truncated   pmf(t) * (1 - q^t)
        fail in d   pmf(t) * theta * q^(t+d-1)
        censored    pmf(t) * q^(t+s)

    Each cell has its own closed form, none is "one minus the rest", so a
    cell that cannot occur (truncation at age 0) is exactly 0.  The table of
    n independent units is multinomial(n, cells).
    """
    import numpy as np

    check_theta(theta)
    if tdist.G != design.G:
        raise ValueError(f"truncation pmf has {tdist.G} entries but design has G={design.G}")
    q = 1.0 - theta
    t = np.arange(design.G)[:, None]
    d = np.arange(1, design.s + 1)
    given_cohort = [1.0 - q**t, theta * q ** (t + d - 1), q ** (t + design.s)]
    return np.asarray(tdist.pmf)[:, None] * np.concatenate(given_cohort, axis=1)
