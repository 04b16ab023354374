"""Monte Carlo engine: consistency (MSE), CI coverage, CLT shape checks.

Under the model the (cohort x outcome) count table of n independent
latent units is exactly multinomial, so a study draws its K replicate
tables as ``multinomial(n, cells)`` over the cells of
:func:`model.cell_probabilities` from one generator seeded by
``SeedSequence(seed)`` (RNG stream ``table-multinomial-v1``), in chunks of
:data:`STUDY_CHUNK` tables that continue one another's stream, and reduces
each chunk as one integer array.  Same-seed studies are bit-identical;
there is no per-replicate ``spawn_key`` seeding in a study.  The per-unit
sampler (``model.sample_units`` and ``observe_arrays``) is the oracle the
tests compare this draw against.  Degenerate replicates (no observed
units or no observed failures) enter the MSE with theta_hat = 0 but are
excluded from coverage denominators; their count is reported.
"""

from __future__ import annotations

import math
import numbers
from statistics import NormalDist
from typing import NamedTuple

import numpy as np

from .estimator import SufficientStats
from .model import (THETA_EPS, StudyDesign, TruncationDist, _make, cell_probabilities, check_integer, check_level,
                    check_tdist, check_theta, observation_probability)

#: Replicate tables drawn and reduced at a time, so that a study's memory
#: does not grow with the tables of all K replicates.
STUDY_CHUNK = 8192


class SimConfig(
    NamedTuple(
        "SimConfig",
        [("theta0", float), ("design", StudyDesign), ("tdist", TruncationDist),
         ("n", int), ("n_replicates", int), ("seed", int), ("level", float)],
    )
):
    """One study: K = ``n_replicates`` count tables of ``n`` latent units, drawn from ``seed``."""

    __slots__ = ()
    _make = _make

    def __new__(cls, theta0: float, design: StudyDesign, tdist: TruncationDist, n: int, n_replicates: int,
                seed: int, level: float = 0.95):
        check_theta(theta0, eps=THETA_EPS)  # the range sample_units accepts
        check_integer(n, "n", 1)
        if design.s * int(n) > 2**63 - 1:  # a table's risk time reaches s * n, an int64 sum
            raise ValueError(f"n must be <= {(2**63 - 1) // design.s} at s={design.s}, got {n}")
        check_integer(n_replicates, "n_replicates", 1)
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
        check_level(level)
        check_tdist(tdist, design)  # cell_probabilities' check, made before any study draws
        return super().__new__(cls, theta0, design, tdist, n, n_replicates, seed, level)


class StudyReport(NamedTuple):
    """Per-replicate estimates and the summary statistics built from them."""

    n: int
    n_replicates: int
    theta0: float
    level: float
    theta_hats: np.ndarray
    mse: float
    coverage: float
    standardized: np.ndarray
    mean: float
    variance: float
    skewness: float
    excess_kurtosis: float
    ks_distance: float
    sigma_pb_sq: float
    asymptotic_n_var: float
    degenerate_count: int

    def to_row(self) -> dict:
        """Flat record matching the study output schema."""
        return {
            "n": self.n,
            "K": self.n_replicates,
            "theta0": self.theta0,
            "mse": self.mse,
            "n_times_mse": self.n * self.mse,
            "asymptotic_n_var": self.asymptotic_n_var,
            "coverage": self.coverage,
            "ks_distance": self.ks_distance,
            "degenerate_count": self.degenerate_count,
        }


def asymptotic_variance(
    theta0: float, design: StudyDesign, tdist: TruncationDist
) -> tuple[float, float]:
    """Analytic (sigma_pb_sq, limit of n * Var(theta_hat)).

    The expected per-unit observed risk time over ages x = 1..s+G-1 is

        sum_x E[y_tc_prev(x)] = sum_t pmf(t) * sum_{k=1}^{s} (1-theta)^{t+k-1},

    a finite geometric sum; sigma_pb_sq is that divided by theta*(1-theta),
    and its reciprocal is the variance limit.
    """
    check_theta(theta0)
    if theta0 in (0.0, 1.0):
        raise ValueError("asymptotic variance undefined at the boundary")
    check_tdist(tdist, design)
    q = 1.0 - theta0
    window_sum = (1.0 - q**design.s) / theta0
    expected_risk = window_sum * observation_probability(theta0, tdist)
    sigma_pb_sq = expected_risk / (theta0 * q)
    return sigma_pb_sq, 1.0 / sigma_pb_sq


def _replicate_rng(seed: int, replicate_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(replicate_index,)))


def study_tables(config: SimConfig):
    """Cell counts of the K replicates of a study, in arrays of shape (k, G, s + 2).

    Successive multinomial draws of :data:`STUDY_CHUNK` tables (fewer in
    the last) over the cells of :func:`model.cell_probabilities`, all from
    the generator of ``SeedSequence(seed)``, so that together they equal
    one draw of size K.  In each table row t is cohort t; columns are
    truncated, failure in year 1..s, censored.
    """
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    s, G = config.design.s, config.design.G
    cells = cell_probabilities(config.theta0, config.design, config.tdist).ravel()
    for start in range(0, config.n_replicates, STUDY_CHUNK):
        size = min(STUDY_CHUNK, config.n_replicates - start)
        yield rng.multinomial(config.n, cells, size=size).reshape(-1, G, s + 2)


def replicate_table(config: SimConfig, replicate_index: int) -> np.ndarray:
    """Cell counts of one table of n latent units, shape (G, s + 2).

    Drawn like one replicate of :func:`study_tables`, but from the generator
    of ``SeedSequence(seed, spawn_key=(replicate_index,))``, so it is not
    replicate ``replicate_index`` of a study.
    """
    rng = _replicate_rng(config.seed, replicate_index)
    s, G = config.design.s, config.design.G
    cells = cell_probabilities(config.theta0, config.design, config.tdist).ravel()
    return rng.multinomial(config.n, cells).reshape(G, s + 2)


def replicate_stats(config: SimConfig, replicate_index: int) -> SufficientStats:
    """Reduce one :func:`replicate_table` like a parsed panel.

    The one-table bridge to the parsers' :class:`AggregateTable`; studies
    reduce their tables with :func:`run_replicate` instead.
    """
    from .panel_io import AggregateTable, to_sufficient_stats  # imported on use; studies do not need it

    s, G = config.design.s, config.design.G
    cells = replicate_table(config, replicate_index)
    # column 0 holds the truncated units, which the panel never records
    return to_sufficient_stats(AggregateTable(s, G, [*cells[:, 1:].tolist(), [0] * (s + 1)]))


def run_replicate(
    config: SimConfig, tables: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Estimate from each count table of shape (..., G, s + 2).

    Returns ``theta_hat``, ``ci_lo``, ``ci_hi`` and ``degenerate`` arrays of
    shape ``...``, element for element equal to :func:`estimator.estimate`
    on the table's sufficient statistics.  A table with no observed risk
    time stays 0, [0, 0] and is degenerate.
    """
    s = config.design.s
    pooled = tables.sum(axis=-2)  # over cohorts; column 0 (truncated) is never used
    m_uncens = pooled[..., 1:-1].sum(axis=-1)
    risk = pooled[..., 1:-1] @ np.arange(1, s + 1) + s * pooled[..., -1]
    observed = risk > 0
    theta = np.divide(m_uncens, risk, out=np.zeros(risk.shape), where=observed)
    var = np.divide(theta * (1.0 - theta), risk, out=np.zeros(risk.shape), where=observed)
    half = NormalDist().inv_cdf((1.0 + config.level) / 2.0) * np.sqrt(var)  # z * se, as in wald_ci
    return theta, np.maximum(0.0, theta - half), np.minimum(1.0, theta + half), m_uncens == 0


def ks_normal(sample: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance between the sample's ECDF and N(0, 1)."""
    x = np.sort(sample)
    n = x.size
    cdf = np.fromiter((0.5 * math.erfc(-v / math.sqrt(2.0)) for v in x.tolist()), float, count=n)
    above = np.arange(1, n + 1) / n - cdf  # ECDF just after each point
    below = cdf - np.arange(n) / n  # and just before it
    return float(max(above.max(), below.max()))


def skew_kurtosis(sample: np.ndarray) -> tuple[float, float]:
    """Moment skewness m3 / m2^1.5 and excess kurtosis m4 / m2^2 - 3 (biased)."""
    dev = sample - sample.mean()
    sq = dev * dev
    m2, m3, m4 = float(sq.mean()), float((sq * dev).mean()), float((sq * sq).mean())
    return m3 / m2**1.5, m4 / m2**2 - 3.0


def run_study(config: SimConfig) -> StudyReport:
    """Draw and reduce all K replicates; summarize MSE, coverage, and CLT shape."""
    chunks = zip(*(run_replicate(config, tables) for tables in study_tables(config)))
    theta_hats, ci_lo, ci_hi, degenerate = (np.concatenate(chunk) for chunk in chunks)

    errors = theta_hats - config.theta0
    mse = float(np.mean(errors**2))

    valid = ~degenerate
    if valid.any():
        covered = (ci_lo[valid] <= config.theta0) & (config.theta0 <= ci_hi[valid])
        coverage = float(covered.mean())
    else:
        coverage = float("nan")

    sigma_pb_sq, n_var = asymptotic_variance(config.theta0, config.design, config.tdist)
    standardized = np.sqrt(config.n) * errors * np.sqrt(sigma_pb_sq)
    if config.n_replicates >= 2 and np.ptp(standardized) > 0.0:
        variance = float(np.var(standardized, ddof=1))
        ks = ks_normal(standardized)
        skewness, kurt = skew_kurtosis(standardized)
    else:
        variance, ks, skewness, kurt = float("nan"), float("nan"), float("nan"), float("nan")

    return StudyReport(
        n=config.n,
        n_replicates=config.n_replicates,
        theta0=config.theta0,
        level=config.level,
        theta_hats=theta_hats,
        mse=mse,
        coverage=coverage,
        standardized=standardized,
        mean=float(np.mean(standardized)),
        variance=variance,
        skewness=skewness,
        excess_kurtosis=kurt,
        ks_distance=ks,
        sigma_pb_sq=sigma_pb_sq,
        asymptotic_n_var=n_var,
        degenerate_count=int(degenerate.sum()),
    )


def martingale_diagnostics(config: SimConfig) -> dict:
    """Age-by-age residual means over one large simulated sample.

    For each age x: the mean of dm_tc(x) across units with its Monte Carlo
    standard error, the count at risk, and the event frequency among units
    at risk.  The sample is one table of n units, table 0 of the study
    stream of ``SeedSequence(seed)`` (:func:`study_tables`).  Per unit,
    dm_tc(x) is 1 - theta0 on an event, -theta0 when at risk without one
    and 0 otherwise, so every figure is a closed form in the table's
    :func:`panel_io.age_counts`.  The standard error needs n >= 2.
    """
    from .panel_io import AggregateTable, age_counts  # imported on use; studies do not need it

    s, G, n, theta = config.design.s, config.design.G, config.n, config.theta0
    if n < 2:
        raise ValueError(f"martingale diagnostics need n >= 2 units, got n = {n}")
    cells = next(study_tables(config._replace(n_replicates=1)))[0]
    table = AggregateTable(s, G, [*cells[:, 1:].tolist(), [0] * (s + 1)])
    events, at_risk = (np.array(counts, dtype=np.int64) for counts in age_counts(table))
    dm_mean = (events - theta * at_risk) / n
    # squared deviations from the mean over the three values dm_tc takes
    squares = (
        events * (1.0 - theta - dm_mean) ** 2
        + (at_risk - events) * (theta + dm_mean) ** 2
        + (n - at_risk) * dm_mean**2
    )
    event_freq = np.divide(events, at_risk, out=np.full(at_risk.shape, np.nan), where=at_risk > 0)
    return {
        "ages": np.arange(1, config.design.horizon + 1),
        "dm_mean": dm_mean,
        "dm_se": np.sqrt(squares / (n - 1) / n),  # sample sd (ddof = 1) over sqrt(n)
        "at_risk": at_risk,
        "events": events,
        "event_freq": event_freq,
        "empirical_risk": at_risk / n,
    }
