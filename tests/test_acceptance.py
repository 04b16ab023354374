"""Acceptance gate: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  The Monte Carlo criteria share two module-scoped study runs
(K = 1000 replicates at n = 1e3/1e4/1e5) whose wall times are tracked so
the runtime budgets cover the actual simulation work.
"""

import math
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from geomlife.cli import main
from geomlife.estimator import SufficientStats, estimate, theta_hat, var_hat, wald_ci
from geomlife.likelihood import grid_argmax
from geomlife.model import LatentUnit, StudyDesign, TruncationDist
from geomlife.paths import build_paths, sum_identities
from geomlife.simulation import SimConfig, asymptotic_variance, martingale_diagnostics, run_study
from geomlife.panel_io import to_sufficient_stats

from helpers import table1, table3

DESIGN = StudyDesign(s=2, G=5)
UNIFORM = TruncationDist.uniform(5)
THETA0 = 0.1
K_SIM = 1000
MC_SEED = 20250809


def report(number: int, ok: bool, description: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d}: {status} - {description}")
    assert ok, f"criterion {number:02d} failed: {description}"


@pytest.fixture(scope="module")
def table1_stats() -> SufficientStats:
    return to_sufficient_stats(table1())


@pytest.fixture(scope="module")
def random_cases(table1_stats):
    """The 101 oracle cases: 100 seeded random stats plus the reference table."""
    rng = np.random.default_rng(1234)
    cases = []
    for _ in range(100):
        m_uncens = int(rng.integers(1, 2000))
        extra = int(rng.integers(0, m_uncens + 1))
        m_cens = int(rng.integers(1, 2000))
        cases.append(
            SufficientStats(
                m=m_uncens + m_cens,
                m_uncens=m_uncens,
                m_cens=m_cens,
                duration_sum=m_uncens + extra,
                s=2,
            )
        )
    return cases + [table1_stats]


@pytest.fixture(scope="module")
def studies():
    """K=1000 studies at n in {1e3, 1e4, 1e5}, with wall times per n."""
    out = {}
    for n in (10**3, 10**4, 10**5):
        config = SimConfig(
            theta0=THETA0,
            design=DESIGN,
            tdist=UNIFORM,
            n=n,
            n_replicates=K_SIM,
            seed=MC_SEED,
        )
        start = time.perf_counter()
        out[n] = (run_study(config), time.perf_counter() - start)
    return out


def best_time(fn, repeats=5) -> float:
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_criterion_01_point_estimate_and_se(table1_stats):
    th = theta_hat(table1_stats)
    se = math.sqrt(var_hat(table1_stats, th))
    exact = Fraction(table1_stats.m_uncens, table1_stats.risk_time) == Fraction(275162, 2727516)
    exact = exact and th == 275162 / 2727516 and f"{th:.4f}" == "0.1009"
    se_ok = abs(se - 1.824e-4) <= 1e-7
    elapsed = best_time(lambda: math.sqrt(var_hat(table1_stats, theta_hat(table1_stats))))
    report(
        1,
        exact and se_ok and elapsed < 1e-3,
        f"theta_hat = 275162/2727516 = {th:.6f} exactly, se = {se:.4e} "
        f"(|se - 1.824e-4| = {abs(se - 1.824e-4):.2e} <= 1e-7), {elapsed * 1e6:.0f} us",
    )


def test_criterion_02_intervals(table1_stats):
    result = estimate(table1_stats, 0.95)
    lo, hi = result.ci
    # conservative display: round the theta interval outward at 4 decimals
    theta_display = (math.floor(lo * 1e4) / 1e4, math.ceil(hi * 1e4) / 1e4)
    le_lo, le_hi = result.life_expectancy_ci
    le_display = (round(le_lo, 2), round(le_hi, 2))
    reciprocal = result.life_expectancy_ci == (1.0 / hi, 1.0 / lo)
    elapsed = best_time(lambda: estimate(table1_stats, 0.95))
    report(
        2,
        theta_display == (0.1005, 0.1013)
        and le_display == (9.88, 9.95)
        and reciprocal
        and elapsed < 1e-3,
        f"theta CI [{lo:.6f}, {hi:.6f}] -> {theta_display}, "
        f"life-expectancy CI [{le_lo:.4f}, {le_hi:.4f}] -> {le_display}, {elapsed * 1e6:.0f} us",
    )


def test_criterion_03_stratified_identity(table1_stats):
    stratified = table3()
    pooled_counts_equal = stratified.pooled() == table1()
    pooled_stats = to_sufficient_stats(stratified)
    bitwise = theta_hat(pooled_stats) == theta_hat(table1_stats)
    report(
        3,
        pooled_counts_equal and pooled_stats == table1_stats and bitwise,
        "stratified counts pool exactly to the marginal table; pooled theta_hat bit-identical",
    )


def test_criterion_04_oracle_equivalence(random_cases):
    start = time.perf_counter()
    worst = 0.0
    for stats in random_cases:
        diff = abs(theta_hat(stats) - grid_argmax(stats))
        worst = max(worst, diff)
    elapsed = time.perf_counter() - start
    report(
        4,
        worst <= 1e-6 and elapsed < 5.0,
        f"max |closed form - numerical argmax| = {worst:.2e} over 101 cases "
        f"(tol 1e-6), {elapsed:.2f} s",
    )


def test_criterion_05_variance_information_identity(random_cases):
    worst = 0.0
    for stats in random_cases:
        th = theta_hat(stats)
        with mpmath.workdps(60):
            m_u = mpmath.mpf(stats.m_uncens)
            rest = mpmath.mpf(stats.risk_time - stats.m_uncens)
            f = lambda v: m_u * mpmath.log(v) + rest * mpmath.log(1 - v)
            t0 = mpmath.mpf(repr(th))
            h = mpmath.mpf("1e-12")
            info = -float((f(t0 + h) - 2 * f(t0) + f(t0 - h)) / h**2)
        rel = abs(var_hat(stats, th) - 1.0 / info) / var_hat(stats, th)
        worst = max(worst, rel)
    report(
        5,
        worst <= 1e-9,
        f"max relative gap between theta(1-theta)/R and inverse observed "
        f"information = {worst:.2e} (tol 1e-9) over 101 cases",
    )


def test_criterion_06_counting_process_identities():
    checks = 0
    ok = True
    for t in range(5):
        for x in range(1, 51):
            unit = LatentUnit(x=x, t=t)
            bundle = build_paths(unit, DESIGN, THETA0)
            events, risk_time = sum_identities(unit, DESIGN)
            ok = ok and sum(bundle.dn_tc) == events
            ok = ok and sum(bundle.y_tc_prev) == risk_time
            checks += 1
    report(6, ok and checks == 250, f"{checks} exact closed-form vs path-sum checks")


def test_criterion_07_martingale_zero_mean():
    start = time.perf_counter()
    config = SimConfig(
        theta0=THETA0, design=DESIGN, tdist=UNIFORM, n=10**5, n_replicates=1, seed=MC_SEED
    )
    diag = martingale_diagnostics(config)
    elapsed = time.perf_counter() - start
    resid_ok = bool(np.all(np.abs(diag["dm_mean"]) <= 4 * diag["dm_se"]))
    se_freq = np.sqrt(THETA0 * (1 - THETA0) / diag["at_risk"])
    freq_ok = bool(np.all(np.abs(diag["event_freq"] - THETA0) <= 4 * se_freq))
    worst_z = float(np.max(np.abs(diag["dm_mean"]) / diag["dm_se"]))
    report(
        7,
        resid_ok and freq_ok and elapsed < 10.0,
        f"residual means within 4 SE of 0 at every age (max |z| = {worst_z:.2f}) and "
        f"at-risk event rates within 4 SE of theta0, n = 1e5, {elapsed:.2f} s",
    )


def test_criterion_08_asymptotic_variance_and_mse_scaling(studies):
    sigma_sq, n_var = asymptotic_variance(THETA0, DESIGN, UNIFORM)
    # independent re-derivation: per-age at-risk expectations are plain
    # geometric sums, (1 + 0.9) * sum_t 0.9^t / 5 = 1.556138
    rederived = 0.09 / 1.556138
    analytic_ok = abs(n_var - rederived) <= 1e-12 and abs(n_var - 0.05784) <= 1e-5

    n_mse = {n: n * rep.mse for n, (rep, _) in studies.items()}
    band_ok = 0.040 <= n_mse[10**4] <= 0.076

    sizes = sorted(studies)
    slope = float(
        np.polyfit(np.log([float(n) for n in sizes]), np.log([studies[n][0].mse for n in sizes]), 1)[0]
    )
    slope_ok = -1.2 <= slope <= -0.8

    sim_time = sum(t for _, t in studies.values())
    report(
        8,
        analytic_ok and band_ok and slope_ok and sim_time < 120.0,
        f"n*Var limit = {n_var:.6f} (0.05784 +/- 1e-5), n*MSE at 1e4 = "
        f"{n_mse[10**4]:.4f} in [0.040, 0.076], log-log slope = {slope:.3f} in "
        f"[-1.2, -0.8], {sim_time:.1f} s",
    )


def test_criterion_09_coverage(studies):
    rep, elapsed = studies[10**4]
    ok = 0.93 <= rep.coverage <= 0.97
    report(
        9,
        ok and elapsed < 60.0,
        f"95% Wald coverage = {rep.coverage:.4f} in [0.93, 0.97] at n = 1e4, "
        f"K = {K_SIM}, {elapsed:.1f} s",
    )


def test_criterion_10_clt_shape(studies):
    rep, _ = studies[10**4]
    ok = 0.85 <= rep.variance <= 1.15 and rep.ks_distance < 0.06
    report(
        10,
        ok,
        f"standardized sample variance = {rep.variance:.4f} in [0.85, 1.15], "
        f"KS distance = {rep.ks_distance:.4f} < 0.06",
    )


def test_criterion_11_determinism(tmp_path, capsys):
    args = [
        "simulate",
        "--theta0", "0.1",
        "--s", "2",
        "--G", "5",
        "--K", "40",
        "--n", "400",
        "--seed", "33",
    ]
    paths = [tmp_path / f"run_{i}.json" for i in range(3)]
    for path in paths:
        assert main(args + ["--output", str(path)]) == 0
    capsys.readouterr()
    blobs = [p.read_bytes() for p in paths]
    report(
        11,
        blobs[0] == blobs[1] == blobs[2],
        "three same-seed simulate runs byte-identical",
    )
