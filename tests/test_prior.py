'''Prior simulation: truncation rules, inverse-tail accuracy,
normalisation, and Monte Carlo agreement with closed-form moments.'''

import csv
import math

import numpy as np
import pytest
from scipy import special, stats

from corm.core import (
    CoRMSpec,
    LevyIntensity,
    MarginalFamily,
    ScoreDistribution,
    covariance_normalized,
    mixed_moment,
)
from corm.prior import (
    STABLE_DEFAULT_JUMPS,
    CoRMRealization,
    _break_ties,
    _coverage_norm,
    _solve_residual_level,
    normalize,
    realization_to_csv,
    sample_corm,
    score_ratio_sample,
)


@pytest.fixture(scope='module')
def gamma_spec():
    return CoRMSpec.from_marginal(2, 1.0, MarginalFamily.gamma())


@pytest.fixture(scope='module')
def gamma2_spec():
    return CoRMSpec.from_marginal(2, 2.0, MarginalFamily.gamma())


class TestTruncation:
    def test_residual_level_matches_threshold(self, gamma_spec):
        # unit shape: the truncated small-jump mass below z equals z and
        # the min(1, z) norm is 1, so the level solves to tail_mass itself
        rng = np.random.default_rng(0)
        r = sample_corm(gamma_spec, rng, tail_mass=1e-6)
        assert r.truncation_level == pytest.approx(1e-6, rel=1e-6)

    def test_jumps_strictly_decreasing(self, gamma2_spec):
        rng = np.random.default_rng(1)
        r = sample_corm(gamma2_spec, rng, tail_mass=1e-8)
        assert r.jump_count > 5
        assert np.all(np.diff(r.jumps) < 0.0)
        assert np.all(r.jumps > 0.0)

    @pytest.mark.parametrize('jumps', [
        [], [0.5], [3.0, 2.0, 1.0, 0.5], [1.0, 1.0, 1.0, 0.5, 0.2],
        [1.0, 1.0, 1.0 - 1e-13], [0.5, 0.7, 0.3, 0.3],
        [0.9, 0.4, 0.4, 0.4 * (1.0 - 5e-13), 0.1]],
        ids=['empty', 'single', 'no-ties', 'leading-run', 'cascade',
             'rise-and-tail-tie', 'inner-cascade'])
    def test_break_ties_matches_the_sequential_pass(self, jumps):
        def sequential(x):
            x = x.copy()
            for i in range(1, x.size):
                if x[i] >= x[i - 1]:
                    x[i] = x[i - 1] * (1.0 - 1e-12)
            return x

        x = np.array(jumps, dtype=float)
        want = sequential(x)
        got = _break_ties(x)
        assert got is x
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.all(np.diff(got) < 0.0)

    def test_count_mode_draws_exactly_n(self, gamma_spec):
        rng = np.random.default_rng(2)
        r = sample_corm(gamma_spec, rng, n_jumps=25)
        assert r.jump_count == 25
        assert r.locations.shape == (25,)
        assert r.scores.shape == (2, 25)

    def test_zero_jumps_gives_empty_realization(self, gamma_spec):
        rng = np.random.default_rng(3)
        r = sample_corm(gamma_spec, rng, n_jumps=0)
        assert r.jump_count == 0
        assert r.scores.shape == (2, 0)
        with pytest.raises(ValueError):
            normalize(r)

    def test_both_truncation_rules_rejected(self, gamma_spec):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError, match='not both'):
            sample_corm(gamma_spec, rng, n_jumps=10, tail_mass=1e-4)

    def test_count_budget_enforced(self, gamma_spec):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError, match='budget'):
            sample_corm(gamma_spec, rng, n_jumps=200_000)

    def test_tail_mass_budget_enforced(self):
        spec = CoRMSpec.from_marginal(
            2, 1.0, MarginalFamily.generalized_gamma(0.4, 0.5))
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError, match='budget'):
            sample_corm(spec, rng, tail_mass=1e-9, max_jumps=10_000)

    def test_truncation_follows_the_directing_intensity(self, gamma2_spec):
        # a hand-built spec with the same family and shape but a directing
        # intensity 50 times larger must not reuse the truncation of the
        # unscaled one: the level stays, the expected count scales by 50
        base = gamma2_spec.directing
        scaled = LevyIntensity(
            lambda z: 50.0 * base.density(z), base.support,
            base.singularity_exponents,
            tail_fn=lambda x: 50.0 * base.tail_integral(x),
            inverse_fn=np.vectorize(lambda y: base.inverse_tail(y / 50.0)))
        spec = CoRMSpec(2, ScoreDistribution(2.0), MarginalFamily.gamma(),
                        scaled)
        rng = np.random.default_rng(17)
        sample_corm(gamma2_spec, rng)
        r = sample_corm(spec, rng)
        want = scaled.tail_integral(r.truncation_level)
        assert want > 500.0
        assert abs(r.jump_count - want) < 5.0 * math.sqrt(want)

    def test_stable_warns_and_truncates_by_count(self):
        spec = CoRMSpec.from_marginal(
            2, 1.0, MarginalFamily.sigma_stable(0.5))
        rng = np.random.default_rng(7)
        with pytest.warns(UserWarning, match='truncating'):
            r = sample_corm(spec, rng)
        assert r.jump_count == STABLE_DEFAULT_JUMPS
        assert np.all(np.diff(r.jumps) < 0.0)


class TestResidualLevel:
    '''The truncation level solves W(z) = int_0^z s nu*(s) ds = target,
    checked against closed forms: (1 - (1 - z)^shape) / shape for the
    gamma directing intensity z^-1 (1 - z)^(shape-1), and c a^(sigma-1)
    B(a z; 1 - sigma, beta) for c z^(-1-sigma) (1 - a z)^(beta-1).'''

    @pytest.mark.parametrize('marginal, shape', [
        (MarginalFamily.gamma(), 2.0), (MarginalFamily.gamma(), 0.5),
        (MarginalFamily.generalized_gamma(0.3, 1.0), 2.0),
        (MarginalFamily.generalized_gamma(0.5, 2.5), 0.7)])
    def test_level_solves_weighted_mass(self, monkeypatch, marginal, shape):
        import corm.prior as prior_mod
        spec = CoRMSpec.from_marginal(2, shape, marginal, verify=False)
        target = 1e-6 * _coverage_norm(spec)
        calls = []
        weighted_mass = prior_mod._weighted_mass

        def counted(*args, **kwargs):
            calls.append(1)
            return weighted_mass(*args, **kwargs)

        monkeypatch.setattr(prior_mod, '_weighted_mass', counted)
        z = _solve_residual_level(spec, target)
        monkeypatch.undo()
        assert len(calls) <= 20
        if marginal.kind == 'gamma':
            want = -math.expm1(shape * math.log1p(-z)) / shape
        else:
            sigma, a = marginal.sigma, marginal.a
            c = sigma * math.exp(math.lgamma(shape) - math.lgamma(
                shape + sigma) - math.lgamma(1.0 - sigma))
            b = 1.0 - sigma, sigma + shape
            want = c * a ** (sigma - 1.0) * special.betainc(*b, a * z) \
                * special.beta(*b)
        assert want == pytest.approx(target, rel=1e-9)


class TestInverseTail:
    def test_unit_shape_inverse_is_exponential(self, gamma_spec):
        # shape 1: the directing tail is -log z, inverted in closed form
        ys = np.array([0.5, 2.0, 10.0, 30.0])
        np.testing.assert_allclose(gamma_spec.directing.inverse_tail(ys),
                                   np.exp(-ys), rtol=1e-12)

    def test_inverse_round_trip(self, gamma2_spec):
        directing = gamma2_spec.directing
        ys = np.array([0.01, 0.1, 1.0, 3.0, 10.0, 40.0, 100.0])
        zs = directing.inverse_tail(ys)
        assert zs.shape == ys.shape
        np.testing.assert_allclose(
            [directing.tail_integral(z) for z in zs], ys, rtol=1e-10)

    def test_mean_count_above_threshold(self, gamma_spec):
        # jumps above x arrive at Poisson rate equal to the directing
        # tail integral -log x
        rng = np.random.default_rng(8)
        draws = 4000
        for x in (math.exp(-1.0), math.exp(-3.0)):
            want = -math.log(x)
            counts = np.array([
                int(np.sum(sample_corm(gamma_spec, rng,
                                       tail_mass=1e-6).jumps > x))
                for _ in range(draws)])
            se = counts.std() / math.sqrt(draws)
            assert abs(counts.mean() - want) < 4.0 * se + 1e-3


class TestNormalize:
    def test_rows_sum_to_one(self, gamma2_spec):
        rng = np.random.default_rng(9)
        w = normalize(sample_corm(gamma2_spec, rng, tail_mass=1e-7))
        np.testing.assert_allclose(w.pi.sum(axis=1), 1.0, rtol=1e-12)
        assert np.all(w.pi >= 0.0)

    def test_single_jump_gets_full_weight(self, gamma_spec):
        rng = np.random.default_rng(10)
        r = sample_corm(gamma_spec, rng, n_jumps=1)
        np.testing.assert_allclose(normalize(r).pi, 1.0)

    def test_equal_jumps_and_scores_uniform(self):
        r = CoRMRealization(np.full(4, 0.3), np.linspace(0, 1, 4),
                            np.ones((2, 4)), 0.0)
        np.testing.assert_allclose(normalize(r).pi, 0.25)

    def test_zero_mass_coordinate_rejected(self):
        scores = np.ones((2, 3))
        scores[1] = 0.0
        r = CoRMRealization(np.array([3.0, 2.0, 1.0]),
                            np.linspace(0, 1, 3), scores, 0.0)
        with pytest.raises(ValueError, match='zero total mass'):
            normalize(r)


class TestScoreRatios:
    def test_unit_shape_symmetry(self):
        rng = np.random.default_rng(11)
        ratios = score_ratio_sample(1.0, 40_000, rng)
        assert abs(np.mean(ratios <= 1.0) - 0.5) < 0.01
        assert np.median(ratios) == pytest.approx(1.0, abs=0.03)

    def test_distribution_is_f(self):
        # a ratio of two unit-rate gammas with shape b is F(2b, 2b)
        rng = np.random.default_rng(12)
        for shape in (1.0, 2.5):
            ratios = score_ratio_sample(shape, 5000, rng)
            p = stats.kstest(ratios, stats.f(2 * shape, 2 * shape).cdf).pvalue
            assert p > 0.01

    def test_validation(self):
        rng = np.random.default_rng(13)
        with pytest.raises(ValueError):
            score_ratio_sample(0.0, 10, rng)
        with pytest.raises(ValueError):
            score_ratio_sample(1.0, 0, rng)


@pytest.fixture(scope='module')
def masses(gamma_spec):
    rng = np.random.default_rng(14)
    return np.array([
        sample_corm(gamma_spec, rng, tail_mass=1e-6).total_masses()
        for _ in range(20_000)])


class TestMonteCarloMoments:
    def _close(self, sample, want):
        se = sample.std() / math.sqrt(sample.size)
        assert abs(sample.mean() - want) < 4.0 * se

    def test_mean_total_mass(self, gamma_spec, masses):
        want = mixed_moment(gamma_spec, (1, 0), 1.0)
        assert want == pytest.approx(1.0, rel=1e-12)
        self._close(masses[:, 0], want)
        self._close(masses[:, 1], want)

    def test_second_moment(self, gamma_spec, masses):
        want = mixed_moment(gamma_spec, (2, 0), 1.0)
        assert want == pytest.approx(2.0, rel=1e-12)
        self._close(masses[:, 0] ** 2, want)

    def test_cross_moment(self, gamma_spec, masses):
        want = mixed_moment(gamma_spec, (1, 1), 1.0)
        assert want == pytest.approx(1.5, rel=1e-12)
        self._close(masses[:, 0] * masses[:, 1], want)

    def test_third_cross_moment(self, gamma_spec, masses):
        want = mixed_moment(gamma_spec, (2, 1), 1.0)
        assert want == pytest.approx(11.0 / 3.0, rel=1e-12)
        self._close(masses[:, 0] ** 2 * masses[:, 1], want)


class TestEmpiricalCorrelation:
    def test_normalized_region_masses(self, gamma_spec):
        # correlation across coordinates of the normalised mass of a
        # half-unit region, against the covariance identity
        want = covariance_normalized(gamma_spec, 0.5, 0.5, 0.5, 1.0,
                                     rel_tol=1e-4)
        rng = np.random.default_rng(15)
        draws = 6000
        shares = np.empty((draws, 2))
        for k in range(draws):
            r = sample_corm(gamma_spec, rng, tail_mass=1e-6)
            pi = normalize(r).pi
            inside = r.locations < 0.5
            shares[k] = pi[:, inside].sum(axis=1)
        got = np.corrcoef(shares[:, 0], shares[:, 1])[0, 1]
        assert got == pytest.approx(want, abs=0.02)


class TestCsvDump:
    def test_round_trip(self, gamma_spec, tmp_path):
        rng = np.random.default_rng(16)
        r = sample_corm(gamma_spec, rng, n_jumps=7)
        path = tmp_path / 'draw.csv'
        realization_to_csv(r, path)
        with open(path, newline='') as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ['jump_index', 'J', 'location', 'm_1', 'm_2']
        assert len(rows) == 8
        jumps = np.array([float(row[1]) for row in rows[1:]])
        scores = np.array([[float(row[3 + j]) for row in rows[1:]]
                           for j in range(2)])
        np.testing.assert_array_equal(jumps, r.jumps)
        np.testing.assert_array_equal(scores, r.scores)
