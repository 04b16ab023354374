import math
import re

import numpy as np
import pytest
from scipy.stats import chisquare

from geomlife.model import (
    THETA_EPS,
    LatentUnit,
    ObservedUnit,
    StudyDesign,
    TruncationDist,
    cell_probabilities,
    geom_pmf,
    geom_survival,
    life_expectancy,
    observation_probability,
    observe,
    observe_arrays,
    sample_units,
)


class TestGeomPmf:
    def test_first_trial_success(self):
        assert geom_pmf(0.5, 1) == 0.5

    def test_second_year(self):
        assert geom_pmf(0.1, 2) == pytest.approx(0.09, abs=1e-15)

    def test_normalization(self):
        x = np.arange(1, 10**6 + 1)
        assert abs(geom_pmf(0.1, x).sum() - 1.0) < 1e-10

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            geom_pmf(1.5, 1)
        with pytest.raises(ValueError):
            geom_pmf(0.1, 0)


class TestGeomSurvival:
    def test_whole_support(self):
        assert geom_survival(0.1, 0) == 1.0

    def test_one_year(self):
        assert geom_survival(0.1, 1) == pytest.approx(0.9, abs=1e-15)

    def test_five_years(self):
        # oracle: direct repeated multiplication
        expected = 1.0
        for _ in range(5):
            expected *= 0.9
        assert geom_survival(0.1, 5) == pytest.approx(expected, abs=1e-15)
        assert geom_survival(0.1, 5) == pytest.approx(0.59049, abs=1e-12)

    def test_matches_pmf_tail(self):
        theta = 0.3
        x = np.arange(1, 200)
        for age in (0, 1, 5, 17):
            tail = geom_pmf(theta, x[x > age]).sum()
            assert geom_survival(theta, age) == pytest.approx(tail, rel=1e-12)


class TestLifeExpectancy:
    @pytest.mark.parametrize("theta,expected", [(0.5, 2.0), (0.1, 10.0)])
    def test_known_values(self, theta, expected):
        assert life_expectancy(theta) == expected

    def test_reciprocal_of_point_estimate(self):
        assert life_expectancy(0.100884) == pytest.approx(9.9124, abs=1e-4)

    def test_degenerate_parameter(self):
        with pytest.raises(ValueError):
            life_expectancy(0.0)


class TestSampling:
    def test_point_mass_truncation(self):
        rng = np.random.default_rng(0)
        tdist = TruncationDist.point_mass(0, 5)
        _, t = sample_units(0.5, tdist, 1000, rng)
        assert (t == 0).all()

    def test_empirical_mean(self):
        rng = np.random.default_rng(123)
        x, _ = sample_units(0.5, TruncationDist.uniform(3), 10**5, rng)
        assert abs(x.mean() - 2.0) < 0.02

    def test_empirical_first_year_probability(self):
        rng = np.random.default_rng(7)
        x, _ = sample_units(0.1, TruncationDist.uniform(3), 10**5, rng)
        assert abs((x == 1).mean() - 0.1) < 0.005

    def test_single_draw_matches_vectorized(self):
        # n = 1: x by the inverse CDF of the first uniform, t from the second
        x, t = sample_units(0.2, TruncationDist.uniform(4), 1, np.random.default_rng(5))
        u_x, u_t = np.random.default_rng(5).random(2)
        assert int(x[0]) == max(1, math.ceil(math.log1p(-u_x) / math.log1p(-0.2)))
        assert int(t[0]) == math.floor(4 * u_t)

    def test_truncation_ages_follow_pmf(self):
        rng = np.random.default_rng(42)
        tdist = TruncationDist(np.array([0.5, 0.25, 0.25]))
        _, t = sample_units(0.5, tdist, 10**5, rng)
        freq = np.bincount(t, minlength=3) / t.size
        assert np.allclose(freq, tdist.pmf, atol=0.01)

    def test_memorylessness(self):
        # Conditional on surviving past t, the residual lifespan is again
        # geometric with the same parameter.
        theta, t = 0.3, 3
        rng = np.random.default_rng(99)
        x, _ = sample_units(theta, TruncationDist.uniform(1), 2 * 10**5, rng)
        residual = x[x >= t + 1] - t
        kmax = 12  # pool the tail so expected counts stay comfortably above 5
        observed = np.bincount(np.minimum(residual, kmax + 1), minlength=kmax + 2)[1:]
        probs = np.array([geom_pmf(theta, k) for k in range(1, kmax + 1)] + [geom_survival(theta, kmax)])
        result = chisquare(observed, probs * residual.size)
        assert result.pvalue > 0.001


class TestObserve:
    def test_truncated_unit_absent(self):
        assert observe(LatentUnit(x=2, t=4), StudyDesign(s=2, G=5)) is None

    def test_uncensored_unit(self):
        unit = observe(LatentUnit(x=4, t=3), StudyDesign(s=2, G=5))
        assert unit == ObservedUnit(t_obs=3, d=1, censored=False)

    def test_censored_unit(self):
        unit = observe(LatentUnit(x=10, t=3), StudyDesign(s=2, G=5))
        assert unit == ObservedUnit(t_obs=3, d=2, censored=True)

    def test_total_and_deterministic_on_observable_region(self):
        design = StudyDesign(s=2, G=5)
        for t in range(5):
            for x in range(t + 1, 30):
                first = observe(LatentUnit(x=x, t=t), design)
                second = observe(LatentUnit(x=x, t=t), design)
                assert first == second
                assert first is not None
                assert first.t_obs == t
                if first.censored:
                    assert first.d == design.s and x > t + design.s
                else:
                    assert first.d == x - t and 1 <= first.d <= design.s

    def test_vectorized_matches_scalar(self):
        design = StudyDesign(s=3, G=4)
        rng = np.random.default_rng(11)
        x, t = sample_units(0.25, TruncationDist.uniform(4), 500, rng)
        codes = observe_arrays(x, t, design)
        assert codes.shape == x.shape
        for i in range(x.size):
            unit = observe(LatentUnit(x=int(x[i]), t=int(t[i])), design)
            if unit is None:
                assert codes[i] == 0
            elif unit.censored:
                assert codes[i] == design.s + 1
            else:
                assert codes[i] == unit.d
        # every code occurs, so each branch above was exercised
        assert set(codes.tolist()) == set(range(design.s + 2))

    def test_rejects_out_of_support_age(self):
        with pytest.raises(ValueError):
            observe(LatentUnit(x=3, t=7), StudyDesign(s=2, G=5))

    def test_observation_probability_matches_simulation(self):
        theta, G, n = 0.2, 4, 10**5
        tdist = TruncationDist.uniform(G)
        rng = np.random.default_rng(3)
        x, t = sample_units(theta, tdist, n, rng)
        observed = observe_arrays(x, t, StudyDesign(s=2, G=G)) > 0
        p = observation_probability(theta, tdist)
        se = math.sqrt(p * (1.0 - p) / n)
        assert abs(observed.mean() - p) < 3 * se


CELL_CASES = [
    (0.1, StudyDesign(s=2, G=5), TruncationDist.uniform(5)),
    (0.3, StudyDesign(s=4, G=7), TruncationDist.uniform(7)),
    (0.05, StudyDesign(s=3, G=4), TruncationDist([0.1, 0.2, 0.3, 0.4])),
    (0.9, StudyDesign(s=2, G=40), TruncationDist.point_mass(39, 40)),
    (0.5, StudyDesign(s=1, G=1), TruncationDist.uniform(1)),
    (THETA_EPS, StudyDesign(s=7, G=5), TruncationDist.uniform(5)),
    (1.0 - THETA_EPS, StudyDesign(s=7, G=5), TruncationDist.uniform(5)),
]


class TestCellProbabilities:
    """Closed-form checks of the (cohort x outcome) cell probabilities."""

    @pytest.mark.parametrize("theta,design,tdist", CELL_CASES)
    def test_cells_sum_to_one(self, theta, design, tdist):
        cells = cell_probabilities(theta, design, tdist)
        assert cells.shape == (design.G, design.s + 2)
        assert abs(cells.sum() - 1.0) <= 1e-15

    @pytest.mark.parametrize("theta,design,tdist", CELL_CASES)
    def test_observed_mass_is_observation_probability(self, theta, design, tdist):
        observed = cell_probabilities(theta, design, tdist)[:, 1:].sum()
        assert observed == pytest.approx(observation_probability(theta, tdist), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("theta", [THETA_EPS, 0.1, 0.5, 1.0 - THETA_EPS])
    def test_no_truncation_at_age_zero(self, theta):
        assert cell_probabilities(theta, StudyDesign(s=2, G=5), TruncationDist.uniform(5))[0, 0] == 0.0

    @pytest.mark.parametrize(
        "theta,design,tdist",
        [
            (THETA_EPS, StudyDesign(s=3, G=6), TruncationDist.uniform(6)),
            (1.0 - THETA_EPS, StudyDesign(s=3, G=6), TruncationDist.uniform(6)),
            (THETA_EPS, StudyDesign(s=2, G=40), TruncationDist.point_mass(39, 40)),
            (0.9, StudyDesign(s=2, G=40), TruncationDist.point_mass(39, 40)),
            (1.0 - THETA_EPS, StudyDesign(s=2, G=40), TruncationDist.point_mass(39, 40)),
        ],
    )
    def test_nonnegative_at_extremes(self, theta, design, tdist):
        assert (cell_probabilities(theta, design, tdist) >= 0.0).all()

    @pytest.mark.parametrize("theta,design,tdist", CELL_CASES)
    def test_expected_risk_time(self, theta, design, tdist):
        from geomlife.simulation import expected_risk_profile

        cells = cell_probabilities(theta, design, tdist)
        d = np.arange(1, design.s + 1)
        risk_time = (cells[:, 1:-1] * d).sum() + design.s * cells[:, -1].sum()
        assert risk_time == pytest.approx(expected_risk_profile(theta, design, tdist).sum(), abs=1e-12)

    def test_design_must_match_pmf(self):
        with pytest.raises(ValueError, match="G="):
            cell_probabilities(0.1, StudyDesign(s=2, G=5), TruncationDist.uniform(4))


class TestTypes:
    def test_design_defaults_horizon(self):
        assert StudyDesign(s=2, G=5).horizon == 6
        assert StudyDesign(s=1, G=1).horizon == 1

    def test_design_validation(self):
        with pytest.raises(ValueError):
            StudyDesign(s=0, G=5)
        with pytest.raises(ValueError):
            StudyDesign(s=2, G=0)

    def test_truncation_dist_validation(self):
        with pytest.raises(ValueError):
            TruncationDist(np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            TruncationDist(np.array([-0.1, 1.1]))
        assert TruncationDist.uniform(5).G == 5

    @pytest.mark.parametrize(
        "constructor,args,message",
        [
            ("uniform", (True,), "cohort count G must be an integer, got True"),
            ("uniform", (2.5,), "cohort count G must be an integer, got 2.5"),
            ("uniform", (0,), "cohort count G must be >= 1, got 0"),
            ("point_mass", (True, 3), "truncation age t must be an integer, got True"),
            ("point_mass", (1.0, 3), "truncation age t must be an integer, got 1.0"),
            ("point_mass", (-1, 3), "truncation age t must be >= 0, got -1"),
            ("point_mass", (0, 2.0), "cohort count G must be an integer, got 2.0"),
            ("point_mass", (3, 3), "point mass at 3 outside support 0..2"),
        ],
    )
    def test_truncation_dist_constructors_check_integers(self, constructor, args, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            getattr(TruncationDist, constructor)(*args)

    def test_truncation_dist_constructors_take_numpy_integers(self):
        assert TruncationDist.uniform(np.int64(3)) == TruncationDist.uniform(3)
        assert TruncationDist.point_mass(np.int64(1), np.int64(3)).pmf == (0.0, 1.0, 0.0)

    def test_truncation_dist_message_names_the_sum(self):
        with pytest.raises(ValueError, match=r"must sum to 1, got 1\.35$"):
            TruncationDist([0.5, 0.6, 0.25])

    def test_truncation_dist_equality_and_hash(self):
        assert TruncationDist.uniform(5) == TruncationDist.uniform(5)
        assert hash(TruncationDist.uniform(5)) == hash(TruncationDist.uniform(5))
        assert TruncationDist(np.array([0.5, 0.5])) == TruncationDist([0.5, 0.5])
        assert TruncationDist.uniform(2) != TruncationDist([0.25, 0.75])
        assert TruncationDist([0.5, 0.5]).pmf == (0.5, 0.5)

    @pytest.mark.parametrize("pmf", [[math.nan, 0.5, 0.5], [0.5, math.nan], [math.inf, 0.5], [math.nan]])
    def test_truncation_dist_rejects_non_finite(self, pmf):
        # NaN compares False both to 0 and in |sum - 1| > tol, so it needs its own check
        with pytest.raises(ValueError, match="finite"):
            TruncationDist(np.array(pmf))

    def test_latent_unit_validation(self):
        with pytest.raises(ValueError):
            LatentUnit(x=0, t=0)
        with pytest.raises(ValueError):
            LatentUnit(x=1, t=-1)
