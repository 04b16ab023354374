"""Monte Carlo engine: consistency (MSE), CI coverage, CLT shape checks.

Under the model the (cohort x outcome) count table of n independent
latent units is exactly multinomial, so each replicate is one multinomial
draw over the cells of :func:`model.cell_probabilities`, reduced by the
same code as the panel parsers' tables.  The per-unit sampler
(``model.sample_units`` and ``observe_arrays``) stays as the oracle the
tests compare this draw against, and feeds
:func:`martingale_diagnostics`.  Replicates are independent: replicate
``k`` draws its rng from ``SeedSequence(seed, spawn_key=(k,))``, so
results are bit-identical whatever the execution order.  Replicates run
in one serial loop.  Degenerate replicates (no observed units or no
observed failures) enter the MSE with theta_hat = 0 but are excluded from
coverage denominators; their count is reported.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .estimator import EstimateResult, SufficientStats, estimate
from .model import THETA_EPS, StudyDesign, TruncationDist, cell_probabilities, check_theta, sample_units
from .panel_io import AggregateTable, to_sufficient_stats
from .paths import dn_tc_indicator, y_tc_prev_indicator


@dataclass(frozen=True)
class SimConfig:
    theta0: float
    design: StudyDesign
    tdist: TruncationDist
    n: int
    n_replicates: int
    seed: int
    level: float = 0.95

    def __post_init__(self):
        check_theta(self.theta0, eps=THETA_EPS)  # the range sample_units accepts
        if self.n < 1 or self.n_replicates < 1:
            raise ValueError("n and n_replicates must be >= 1")
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
        if not 0.0 < self.level < 1.0:
            raise ValueError(f"confidence level must be in (0, 1), got {self.level}")
        if self.tdist.G != self.design.G:
            raise ValueError(
                f"truncation pmf has {self.tdist.G} entries but design has G={self.design.G}"
            )
        # one set of cell probabilities serves every replicate of the study
        cells = cell_probabilities(self.theta0, self.design, self.tdist)
        object.__setattr__(self, "_cells", cells.ravel())


@dataclass(frozen=True)
class StudyReport:
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
    if tdist.G != design.G:
        raise ValueError("truncation pmf and design disagree on G")
    q = 1.0 - theta0
    window_sum = (1.0 - q**design.s) / theta0
    ages = np.arange(design.G)
    expected_risk = window_sum * float(np.dot(tdist.pmf, q**ages))
    sigma_pb_sq = expected_risk / (theta0 * q)
    return sigma_pb_sq, 1.0 / sigma_pb_sq


def expected_risk_profile(
    theta0: float, design: StudyDesign, tdist: TruncationDist
) -> np.ndarray:
    """E[y_tc_prev(x)] for x = 1..horizon: sum_t pmf(t) 1{t < x <= t+s} q^(x-1)."""
    q = 1.0 - theta0
    ages = np.arange(1, design.horizon + 1)
    t = np.arange(design.G)[:, None]
    at_risk = (t < ages) & (ages <= t + design.s)
    return np.asarray((tdist.pmf[:, None] * at_risk * q ** (ages - 1)).sum(axis=0))


def _replicate_rng(seed: int, replicate_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(replicate_index,)))


def replicate_table(config: SimConfig, replicate_index: int) -> np.ndarray:
    """Cell counts of one replicate's n latent units, shape (G, s + 2).

    One multinomial draw over the cells of :func:`model.cell_probabilities`:
    row t is cohort t, columns are truncated, failure in year 1..s, censored.
    """
    rng = _replicate_rng(config.seed, replicate_index)
    s, G = config.design.s, config.design.G
    return rng.multinomial(config.n, config._cells).reshape(G, s + 2)


def replicate_stats(config: SimConfig, replicate_index: int) -> SufficientStats:
    """Draw one replicate's count table and reduce it like a parsed panel."""
    s, G = config.design.s, config.design.G
    cells = replicate_table(config, replicate_index)
    # column 0 holds the truncated units, which the panel never records
    table = AggregateTable.from_wide(dict(enumerate(cells[:, 1:].tolist())), s=s, G=G)
    return to_sufficient_stats(table)


def run_replicate(config: SimConfig, replicate_index: int) -> EstimateResult | None:
    """Estimate from one simulated replicate; None if nothing was observed."""
    stats = replicate_stats(config, replicate_index)
    if stats.risk_time == 0:
        return None
    return estimate(stats, config.level)


def ks_normal(sample: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance between the sample's ECDF and N(0, 1)."""
    x = np.sort(sample)
    n = x.size
    cdf = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in x.tolist()])
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
    """Run all replicates in order and summarize MSE, coverage, and CLT shape."""
    K = config.n_replicates
    theta_hats, ci_lo, ci_hi = np.zeros(K), np.zeros(K), np.zeros(K)
    degenerate = np.ones(K, dtype=bool)  # a replicate with nothing observed stays 0, [0, 0]
    for k in range(K):
        result = run_replicate(config, k)
        if result is not None:
            theta_hats[k] = result.theta_hat
            ci_lo[k], ci_hi[k] = result.ci
            degenerate[k] = result.degenerate

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
    at risk.  Draws n latent units with the per-unit sampler from the rng
    of replicate index 0; replicates are drawn at count level, so this
    sample is not replicate 0's table.
    """
    rng = _replicate_rng(config.seed, 0)
    x, t = sample_units(config.theta0, config.tdist, config.n, rng)
    horizon = config.design.horizon
    s = config.design.s
    n = config.n

    ages = np.arange(1, horizon + 1)
    dm_mean = np.empty(horizon)
    dm_se = np.empty(horizon)
    at_risk = np.empty(horizon, dtype=np.int64)
    events = np.empty(horizon, dtype=np.int64)
    for i, age in enumerate(ages):
        dn = dn_tc_indicator(x, t, age, s)
        y = y_tc_prev_indicator(x, t, age, s)
        dm = dn - config.theta0 * y
        dm_mean[i] = dm.mean()
        dm_se[i] = dm.std(ddof=1) / np.sqrt(n)
        at_risk[i] = y.sum()
        events[i] = dn.sum()

    with np.errstate(invalid="ignore"):
        event_freq = np.where(at_risk > 0, events / at_risk, np.nan)
    return {
        "ages": ages,
        "dm_mean": dm_mean,
        "dm_se": dm_se,
        "at_risk": at_risk,
        "events": events,
        "event_freq": event_freq,
        "empirical_risk": at_risk / n,
    }
