import math
from functools import partial

import numpy as np
import pytest
from scipy import stats as sps
from scipy.stats import chi2_contingency, chisquare

from geomlife import simulation
from geomlife.estimator import SufficientStats, estimate
from geomlife.model import (
    StudyDesign,
    TruncationDist,
    cell_probabilities,
    observe_arrays,
    sample_units,
)
from geomlife.simulation import (
    SimConfig,
    _replicate_rng,
    asymptotic_variance,
    ks_normal,
    martingale_diagnostics,
    replicate_stats,
    replicate_table,
    run_replicate,
    run_study,
    skew_kurtosis,
    study_tables,
)
from geomlife.panel_io import AggregateTable, to_sufficient_stats

from oracles import expected_risk_profile, geom_pmf

DESIGN = StudyDesign(s=2, G=5)
UNIFORM = TruncationDist.uniform(5)


def brute_force_expected_risk(theta, design, tdist, x_max=4000):
    """Enumeration oracle for E[1{X > t} * (min(X, t+s) - t)]."""
    total = 0.0
    for t in range(design.G):
        acc = 0.0
        for x in range(t + 1, x_max):
            acc += geom_pmf(theta, x) * (min(x, t + design.s) - t)
        total += tdist.pmf[t] * acc
    return total


def config(n=1000, K=10, seed=42, theta0=0.1, level=0.95, design=DESIGN, tdist=UNIFORM):
    return SimConfig(
        theta0=theta0, design=design, tdist=tdist, n=n, n_replicates=K, seed=seed, level=level
    )


def all_tables(c):
    """The K tables of a study as one (K, G, s + 2) array."""
    return np.concatenate(list(study_tables(c)))


class TestAsymptoticVariance:
    def test_reference_design(self):
        sigma_sq, n_var = asymptotic_variance(0.1, DESIGN, UNIFORM)
        # geometric-sum value: 1.9 * (1 + .9 + .81 + .729 + .6561) / 5 / 0.09
        assert sigma_sq == pytest.approx(17.290422222222, rel=1e-12)
        assert n_var == pytest.approx(0.057835487598, rel=1e-9)

    def test_against_enumeration_oracle(self):
        for theta in (0.05, 0.1, 0.4, 0.8):
            sigma_sq, _ = asymptotic_variance(theta, DESIGN, UNIFORM)
            brute = brute_force_expected_risk(theta, DESIGN, UNIFORM) / (theta * (1 - theta))
            assert sigma_sq == pytest.approx(brute, rel=1e-10)

    def test_single_bernoulli_trial(self):
        design = StudyDesign(s=1, G=1)
        sigma_sq, n_var = asymptotic_variance(0.3, design, TruncationDist.uniform(1))
        assert sigma_sq == pytest.approx(1.0 / (0.3 * 0.7), rel=1e-12)
        assert n_var == pytest.approx(0.3 * 0.7, rel=1e-12)

    def test_point_mass_truncation(self):
        theta, t, s = 0.2, 3, 2
        design = StudyDesign(s=s, G=5)
        sigma_sq, _ = asymptotic_variance(theta, design, TruncationDist.point_mass(t, 5))
        expected_risk = sum((1 - theta) ** (t + k - 1) for k in range(1, s + 1))
        assert sigma_sq == pytest.approx(expected_risk / (theta * (1 - theta)), rel=1e-12)

    def test_design_must_match_pmf(self):
        # the message of cell_probabilities and SimConfig
        with pytest.raises(ValueError, match=r"^truncation pmf has 4 entries but design has G=5$"):
            asymptotic_variance(0.1, DESIGN, TruncationDist.uniform(4))

    def test_profile_sums_to_total(self):
        profile = expected_risk_profile(0.1, DESIGN, UNIFORM)
        brute = brute_force_expected_risk(0.1, DESIGN, UNIFORM)
        assert profile.sum() == pytest.approx(brute, rel=1e-10)
        assert profile.size == DESIGN.horizon


class TestRunReplicate:
    """The array reducer of a study's (K, G, s + 2) tables."""

    def test_deterministic(self):
        c = config(n=5000, K=20, seed=7)
        tables = all_tables(c)
        assert np.array_equal(tables, all_tables(c))
        for first, second in zip(run_replicate(c, tables), run_replicate(c, all_tables(c))):
            assert np.array_equal(first, second)

    def test_replicates_differ(self):
        c = config(n=5000, K=20, seed=7)
        tables = all_tables(c)
        assert tables.shape == (20, DESIGN.G, DESIGN.s + 2)
        assert len({table.tobytes() for table in tables}) == 20
        assert np.unique(run_replicate(c, tables)[0]).size > 1

    def test_large_sample_consistency(self):
        c = config(n=10**6, K=1, seed=11)
        theta_hat, _, _, degenerate = run_replicate(c, all_tables(c))
        assert 0.099 <= theta_hat[0] <= 0.101
        assert not degenerate[0]

    def test_all_truncated_sample_is_zero_risk_degenerate(self):
        # point mass at a high truncation age and near-certain early failure
        design = StudyDesign(s=2, G=40)
        c = config(
            n=1,
            K=1,
            seed=0,
            theta0=0.9,
            design=design,
            tdist=TruncationDist.point_mass(39, 40),
        )
        tables = all_tables(c)
        assert tables[..., 1:].sum() == 0
        theta_hat, ci_lo, ci_hi, degenerate = run_replicate(c, tables)
        assert (theta_hat[0], ci_lo[0], ci_hi[0], degenerate[0]) == (0.0, 0.0, 0.0, True)

    def test_study_reduces_its_own_tables(self):
        c = config(n=800, K=30, seed=19)
        report = run_study(c)
        theta_hat, _, _, degenerate = run_replicate(c, all_tables(c))
        assert np.array_equal(report.theta_hats, theta_hat)
        assert report.degenerate_count == degenerate.sum()

    @pytest.mark.parametrize(
        "theta0,s,G,tdist,n,level",
        [
            (0.1, 2, 5, TruncationDist.uniform(5), 1000, 0.95),
            (0.3, 4, 7, TruncationDist.uniform(7), 40, 0.9),
            (0.02, 3, 4, TruncationDist(np.array([0.1, 0.2, 0.3, 0.4])), 3, 0.99),  # no failures
            (0.9, 2, 40, TruncationDist.point_mass(39, 40), 2, 0.95),  # no risk time
            (0.5, 1, 1, TruncationDist.uniform(1), 1, 0.8),
            (0.7, 3, 3, TruncationDist(np.array([0.0, 0.5, 0.5])), 4, 0.95),
        ],
    )
    def test_equals_estimate_on_every_table(self, theta0, s, G, tdist, n, level):
        design = StudyDesign(s=s, G=G)
        c = config(n=n, K=500, seed=23, theta0=theta0, design=design, tdist=tdist, level=level)
        tables = np.concatenate([all_tables(c), np.zeros((1, G, s + 2), dtype=np.int64)])
        reduced = run_replicate(c, tables)
        degenerate_rows = zero_risk_rows = 0
        for k, table in enumerate(tables):
            stats = to_sufficient_stats(AggregateTable(s, G, [*table[:, 1:].tolist(), [0] * (s + 1)]))
            if stats.risk_time == 0:
                zero_risk_rows += 1
                want = (0.0, 0.0, 0.0, True)
            else:
                result = estimate(stats, level)
                want = (result.theta_hat, *result.ci, result.degenerate)
            got = tuple(column[k].item() for column in reduced)
            assert [float(v).hex() for v in got[:3]] == [float(v).hex() for v in want[:3]]
            assert got[3] is want[3]
            degenerate_rows += want[3]
        assert zero_risk_rows >= 1 and degenerate_rows >= zero_risk_rows


class TestStudyChunks:
    """A study draws and reduces its K tables STUDY_CHUNK at a time."""

    def test_chunks_continue_one_draw(self, monkeypatch):
        monkeypatch.setattr(simulation, "STUDY_CHUNK", 3)
        c = config(n=700, K=10, seed=61)
        chunks = list(study_tables(c))
        assert [len(chunk) for chunk in chunks] == [3, 3, 3, 1]
        rng = np.random.default_rng(np.random.SeedSequence(c.seed))
        one_draw = rng.multinomial(c.n, cell_probabilities(c.theta0, DESIGN, UNIFORM).ravel(), size=c.n_replicates)
        assert np.array_equal(np.concatenate(chunks), one_draw.reshape(-1, DESIGN.G, DESIGN.s + 2))

    def test_chunk_size_leaves_the_study_unchanged(self, monkeypatch):
        c = config(n=300, K=50, seed=62)
        whole = run_study(c)
        monkeypatch.setattr(simulation, "STUDY_CHUNK", 7)
        chunked = run_study(c)
        assert whole.theta_hats.tobytes() == chunked.theta_hats.tobytes()
        assert whole.standardized.tobytes() == chunked.standardized.tobytes()
        assert whole.to_row() == chunked.to_row()


class TestProbeContract:
    """What the benchmark's simulation probes call stays callable.

    The traced benchmark times ``run_replicate`` spans nested in
    ``run_study`` (found through the module global) and times
    ``_replicate_rng`` and ``replicate_stats`` on their own.
    """

    def test_run_study_calls_run_replicate_through_the_module(self, monkeypatch):
        calls = []
        reducer = simulation.run_replicate

        def counting(config, tables):
            calls.append(tables.shape)
            return reducer(config, tables)

        monkeypatch.setattr(simulation, "run_replicate", counting)
        c = config(n=500, K=12, seed=4)
        run_study(c)
        assert calls == [(12, DESIGN.G, DESIGN.s + 2)]
        calls.clear()
        monkeypatch.setattr(simulation, "STUDY_CHUNK", 5)
        run_study(c)
        assert calls == [(5, DESIGN.G, DESIGN.s + 2), (5, DESIGN.G, DESIGN.s + 2), (2, DESIGN.G, DESIGN.s + 2)]

    def test_one_replicate_bridge_runs(self):
        c = config(n=500, K=3, seed=4)
        assert isinstance(_replicate_rng(c.seed, 2), np.random.Generator)
        st = replicate_stats(c, 2)
        assert isinstance(st, SufficientStats) and st.m <= c.n


def per_unit_table(c, rng):
    """Oracle for replicate_table: n latent units sampled and observed one by one."""
    x, t = sample_units(c.theta0, c.tdist, c.n, rng)
    codes = observe_arrays(x, t, c.design)
    width = c.design.s + 2
    return np.bincount(t * width + codes, minlength=c.design.G * width).reshape(c.design.G, width)


def merge_small_cells(expected, *observed, min_expected=5.0):
    """Pool the cells whose expected count is below ``min_expected``.

    The pooled cell joins the smallest remaining cell if it is still below
    the threshold.  Returns the merged expected and observed vectors.
    """
    rows = np.vstack([expected.ravel()] + [o.ravel() for o in observed]).astype(float)
    small = rows[0] < min_expected
    merged = rows[:, ~small]
    if small.any():
        pooled = rows[:, small].sum(axis=1)
        if pooled[0] >= min_expected or not merged.size:
            merged = np.column_stack([merged, pooled])
        else:
            merged[:, np.argmin(merged[0])] += pooled
    return merged


def variance_se(x):
    """Monte Carlo se of the sample variance: sqrt((mu4 - sigma^4) / K)."""
    dev = x - x.mean()
    return math.sqrt(((dev**4).mean() - (dev**2).mean() ** 2) / x.size)


CELL_DESIGNS = [
    (0.1, 2, 5, TruncationDist.uniform(5), 3000),
    (0.3, 4, 7, TruncationDist.uniform(7), 500),
    (0.05, 3, 4, TruncationDist(np.array([0.1, 0.2, 0.3, 0.4])), 2000),
    (0.9, 2, 40, TruncationDist.point_mass(39, 40), 50),  # all truncated
    (0.5, 1, 1, TruncationDist.uniform(1), 1),
    (0.5, 1, 1, TruncationDist.uniform(1), 200),
]


class TestReplicateStats:
    """The count-level draw against the per-unit sampler, in distribution."""

    K = 1000

    @pytest.mark.parametrize("theta0,s,G,tdist,n", CELL_DESIGNS)
    def test_matches_per_unit_observation(self, theta0, s, G, tdist, n):
        design = StudyDesign(s=s, G=G)
        c = config(n=n, K=self.K, seed=8, theta0=theta0, design=design, tdist=tdist)
        rng = np.random.default_rng(808)
        counted = sum(replicate_table(c, k) for k in range(self.K))
        per_unit = sum(per_unit_table(c, rng) for _ in range(self.K))
        expected = n * self.K * cell_probabilities(theta0, design, tdist)
        assert counted.sum() == per_unit.sum() == n * self.K
        assert not counted[expected == 0].any() and not per_unit[expected == 0].any()

        expected, counted, per_unit = merge_small_cells(expected, counted, per_unit)
        if expected.size < 2:  # every unit lands in one cell; nothing left to test
            return
        assert chisquare(counted, expected).pvalue > 1e-3
        assert chisquare(per_unit, expected).pvalue > 1e-3
        assert chi2_contingency(np.vstack([counted, per_unit])).pvalue > 1e-3

    @pytest.mark.parametrize("theta0,s,G,tdist,n", CELL_DESIGNS)
    def test_study_draw_matches_cell_probabilities(self, theta0, s, G, tdist, n):
        design = StudyDesign(s=s, G=G)
        c = config(n=n, K=self.K, seed=9, theta0=theta0, design=design, tdist=tdist)
        pooled = all_tables(c).sum(axis=0)
        expected = n * self.K * cell_probabilities(theta0, design, tdist)
        assert pooled.sum() == n * self.K
        assert not pooled[expected == 0].any()

        expected, pooled = merge_small_cells(expected, pooled)
        if expected.size < 2:  # every unit lands in one cell; nothing left to test
            return
        assert chisquare(pooled, expected).pvalue > 1e-3

    def test_moments_match_per_unit_sampler(self):
        n, K = 1000, 4000
        c = config(n=n, K=K, seed=14)
        counted = np.array([(st.m_uncens, st.m_cens) for st in map(partial(replicate_stats, c), range(K))])
        rng = np.random.default_rng(1414)
        per_unit = np.array([
            (table[:, 1:-1].sum(), table[:, -1].sum())
            for table in (per_unit_table(c, rng) for _ in range(K))
        ])
        for a, b in zip(counted.T, per_unit.T):  # m_uncens, then m_cens
            mean_se = math.sqrt((a.var(ddof=1) + b.var(ddof=1)) / K)
            assert abs(a.mean() - b.mean()) <= 4 * mean_se
            var_se = math.hypot(variance_se(a), variance_se(b))
            assert abs(a.var(ddof=1) - b.var(ddof=1)) <= 4 * var_se

    def test_reduces_replicate_table(self):
        c = config(n=500, K=1, seed=3)
        cells = replicate_table(c, 0)
        st = replicate_stats(c, 0)
        assert st.m_uncens == cells[:, 1:-1].sum() and st.m_cens == cells[:, -1].sum()
        assert st.duration_sum == int((cells[:, 1:-1] * np.arange(1, DESIGN.s + 1)).sum())


class TestStudies:
    def test_single_replicate_mse(self):
        c = config(n=2000, K=1, seed=5)
        theta_hat = run_replicate(c, all_tables(c))[0][0]
        assert run_study(c).mse == (theta_hat - 0.1) ** 2

    def test_mse_shrinks_with_n(self):
        c = config(K=60, seed=21)
        assert run_study(c._replace(n=5000)).mse < run_study(c._replace(n=500)).mse

    def test_coverage_near_nominal(self):
        c = config(n=2000, K=200, seed=31)
        coverage = run_study(c).coverage
        assert 0.90 <= coverage <= 0.99

    def test_clt_report(self):
        c = config(n=2000, K=300, seed=13)
        report = run_study(c)
        assert abs(report.mean) < 0.25
        assert 0.75 <= report.variance <= 1.25
        assert report.ks_distance < 0.1
        assert report.degenerate_count == 0
        assert report.standardized.size == 300

    def test_degenerate_replicates_counted(self):
        design = StudyDesign(s=2, G=40)
        c = config(
            n=2,
            K=5,
            seed=3,
            theta0=0.9,
            design=design,
            tdist=TruncationDist.point_mass(39, 40),
        )
        report = run_study(c)
        assert report.degenerate_count == 5
        assert math.isnan(report.coverage)
        # degenerate replicates enter the MSE with theta_hat = 0
        assert report.mse == pytest.approx(0.81)

    def test_tiny_study_report_produced(self):
        report = run_study(config(n=1, K=3, seed=9))
        assert report.theta_hats.size == 3

    def test_to_row_schema(self):
        report = run_study(config(n=500, K=20, seed=2))
        row = report.to_row()
        assert list(row) == [
            "n",
            "K",
            "theta0",
            "mse",
            "n_times_mse",
            "asymptotic_n_var",
            "coverage",
            "ks_distance",
            "degenerate_count",
        ]
        assert row["n"] == 500 and row["K"] == 20

    def test_equal_configs_compare_equal(self):
        assert config(seed=3) == config(seed=3)
        assert hash(config(seed=3)) == hash(config(seed=3))
        assert config(seed=3) != config(seed=4)

    def test_same_seed_rerun_is_identical(self):
        c = config(n=800, K=24, seed=77)
        first, second = run_study(c), run_study(c)
        assert np.array_equal(first.theta_hats, second.theta_hats)
        assert first.to_row() == second.to_row()


def _shape_samples():
    rng = np.random.default_rng(2024)
    yield rng.standard_normal(1000)
    yield rng.standard_normal(2)
    yield 3.0 * rng.exponential(size=517) - 1.0
    yield rng.standard_t(4, size=200)
    yield np.round(rng.standard_normal(300), 1)  # ties
    yield run_study(config(n=1000, K=200, seed=5)).standardized


class TestShapeStatistics:
    """The stdlib/numpy CLT-shape statistics against scipy.stats."""

    @pytest.mark.parametrize("sample", list(_shape_samples()), ids=lambda a: f"size{a.size}")
    def test_match_scipy(self, sample):
        assert ks_normal(sample) == pytest.approx(sps.kstest(sample, "norm").statistic, rel=1e-12)
        skewness, kurtosis = skew_kurtosis(sample)
        assert skewness == pytest.approx(sps.skew(sample), rel=1e-12, abs=1e-12)
        assert kurtosis == pytest.approx(sps.kurtosis(sample), rel=1e-12, abs=1e-12)

    def test_study_report_uses_them(self):
        report = run_study(config(n=2000, K=50, seed=8))
        assert report.ks_distance == ks_normal(report.standardized)
        assert (report.skewness, report.excess_kurtosis) == skew_kurtosis(report.standardized)


class TestMartingaleDiagnostics:
    def test_zero_mean_and_event_rate(self):
        theta0 = 0.1
        diag = martingale_diagnostics(config(n=20000, seed=123, theta0=theta0))
        assert np.all(np.abs(diag["dm_mean"]) <= 4 * diag["dm_se"])
        at_risk = diag["at_risk"]
        freq = diag["event_freq"]
        se = np.sqrt(theta0 * (1 - theta0) / at_risk)
        assert np.all(np.abs(freq - theta0) <= 4 * se)

    def test_empirical_risk_tracks_expectation(self):
        theta0, n = 0.1, 20000
        c = config(n=n, seed=55, theta0=theta0)
        diag = martingale_diagnostics(c)
        expected = expected_risk_profile(theta0, DESIGN, UNIFORM)
        se = np.sqrt(expected * (1 - expected) / n)
        assert np.all(np.abs(diag["empirical_risk"] - expected) <= 4 * se)


    @pytest.mark.parametrize("theta0,s,G,tdist,n", CELL_DESIGNS)
    def test_closed_forms_equal_per_unit_residuals(self, theta0, s, G, tdist, n):
        design = StudyDesign(s=s, G=G)
        c = config(n=max(n, 2), K=3, seed=71, theta0=theta0, design=design, tdist=tdist)
        table = all_tables(c)[0]  # the diagnostics draw table 0 of the study stream
        # one row per unit: cohort t, outcome code (0 truncated, d = 1..s, s + 1 censored)
        t, code = np.divmod(np.repeat(np.arange(table.size), table.ravel()), s + 2)
        d = np.minimum(code, s)
        ages = np.arange(1, design.horizon + 1)[:, None]
        at_risk = (code > 0) & (t < ages) & (ages <= t + d)
        event = at_risk & (code <= s) & (ages == t + d)
        dm = event - theta0 * at_risk  # ages x units
        diag = martingale_diagnostics(c)
        assert np.array_equal(diag["events"], event.sum(axis=1))
        assert np.array_equal(diag["at_risk"], at_risk.sum(axis=1))
        assert diag["dm_mean"] == pytest.approx(dm.mean(axis=1), rel=1e-12, abs=1e-15)
        assert diag["dm_se"] == pytest.approx(dm.std(axis=1, ddof=1) / np.sqrt(c.n), rel=1e-9, abs=1e-15)

    def test_one_unit_rejected(self):
        # the standard error divides by n - 1
        with pytest.raises(ValueError, match="n >= 2 units"):
            martingale_diagnostics(config(n=1))


class TestValidation:
    def test_config_checks(self):
        with pytest.raises(ValueError):
            config(n=0)
        with pytest.raises(ValueError):
            SimConfig(
                theta0=0.1,
                design=DESIGN,
                tdist=TruncationDist.uniform(3),
                n=10,
                n_replicates=1,
                seed=0,
            )

    @pytest.mark.parametrize(
        "n,s,accepted",
        [(2**62 - 1, 2, True), (2**62, 2, False), (2**63 - 1, 2, False), (10**20, 1, False), (2**63 - 1, 1, True),
         (np.int64(2**62), 4, False)],
    )
    def test_risk_time_of_n_units_fits_int64(self, n, s, accepted):
        # a table's risk time is at most s * n and is summed in int64: past 2**63 - 1 it wraps
        design = StudyDesign(s=s, G=5)
        if accepted:
            assert config(n=n, design=design).n == n
        else:
            with pytest.raises(ValueError, match=rf"^n must be <= {(2**63 - 1) // s} at s={s}, got {n}$"):
                config(n=n, design=design)

    @pytest.mark.parametrize("theta0", [0.0, 1.0, 1e-9])
    def test_theta0_outside_sampler_range_rejected_at_construction(self, theta0):
        with pytest.raises(ValueError, match="theta"):
            config(theta0=theta0)

    @pytest.mark.parametrize("level", [0.0, 1.0, 1.5, -0.2, 1.0 - 2.0**-53])  # the last: (1 + level) / 2 rounds to 1
    def test_level_outside_unit_interval_rejected_at_construction(self, level):
        with pytest.raises(ValueError, match="level"):
            config(level=level)

    @pytest.mark.parametrize("seed", [-1, 2.5, "7"])
    def test_bad_seed_rejected_at_construction(self, seed):
        with pytest.raises(ValueError, match=f"seed must be an integer >= 0, got {seed!r}"):
            config(seed=seed)
