'''Prior simulation: truncation rules, inverse-tail accuracy,
normalisation, and Monte Carlo agreement with closed-form moments.'''

import math
import warnings

import numpy as np
import pytest
from scipy import special, stats

from corm.core import (
    CoRMSpec,
    MarginalFamily,
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
    sample_corm,
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

    def test_count_must_be_a_nonnegative_integer(self, gamma_spec):
        # int() truncated n_jumps = 2.7 to 2 jumps, silently
        for n in (2.7, -1, math.nan, math.inf):
            with pytest.raises(ValueError, match='nonnegative integer'):
                sample_corm(gamma_spec, np.random.default_rng(2), n_jumps=n)
        # an integral float and a numpy integer are integers
        for n in (3.0, np.int64(3)):
            r = sample_corm(gamma_spec, np.random.default_rng(2), n_jumps=n)
            assert r.jump_count == 3

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

    def test_count_scales_with_centring_mass(self, gamma2_spec):
        # nu* with centring mass 50: the level is the unit-mass spec's,
        # as it depends on nu* alone, and the count is Poisson(50 U(level))
        spec = CoRMSpec.from_marginal(2, 2.0, MarginalFamily.gamma(),
                                      centring_mass=50.0)
        rng = np.random.default_rng(17)
        level = sample_corm(gamma2_spec, rng).truncation_level
        r = sample_corm(spec, rng)
        assert r.truncation_level == level
        want = 50.0 * spec.directing.tail_integral(level)
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

    def test_stable_honours_an_explicit_tail_mass(self):
        # sigma 0.5, shape 1: nu*(z) = z^(-3/2) / pi and W(z) / int min(1,
        # z) nu* = sigma z^(1-sigma), so tail_mass 1e-3 puts the level at
        # (1e-3 / sigma)^2 = 4e-6, with U(4e-6) = 1000 / pi expected jumps
        # above it; no warning, no count default
        spec = CoRMSpec.from_marginal(
            2, 1.0, MarginalFamily.sigma_stable(0.5))
        rng = np.random.default_rng(8)
        with warnings.catch_warnings():
            warnings.simplefilter('error')
            draws = [sample_corm(spec, rng, tail_mass=1e-3)
                     for _ in range(20)]
        level = draws[0].truncation_level
        assert level == pytest.approx(4e-6, rel=1e-9)
        want = spec.directing.tail_integral(level)
        assert want == pytest.approx(1000.0 / math.pi, rel=1e-9)
        for r in draws:
            assert r.truncation_level == level
            assert np.all(np.diff(r.jumps) < 0.0) and r.jumps[-1] > level
        counts = np.array([r.jump_count for r in draws])
        assert abs(counts.mean() - want) < 4.0 * math.sqrt(want / 20)


# beta = sigma + shape below, at and above 1, at sigma 0 and 0.3
LAW_CASES = [(MarginalFamily.gamma(), 0.3), (MarginalFamily.gamma(), 1.0),
             (MarginalFamily.gamma(), 2.0),
             (MarginalFamily.generalized_gamma(0.3, 1.0), 0.4),
             (MarginalFamily.generalized_gamma(0.3, 1.0), 2.0)]
LAW_IDS = ['gamma-0.3', 'gamma-1', 'gamma-2', 'gg-0.4', 'gg-2']


class TestThinnedLaw:
    '''The jumps drawn by thinning the power envelope follow the
    directing Poisson process: above a tail_mass level they are i.i.d.
    with tail U(z) / U(level), the k-th largest of a count draw has
    alpha U(J_k) ~ Gamma(k).'''

    @pytest.mark.parametrize('marginal, shape', LAW_CASES, ids=LAW_IDS)
    def test_tail_mass_jumps_are_uniform_in_the_tail(self, marginal,
                                                     shape):
        spec = CoRMSpec(2, shape, marginal, centring_mass=50.0)
        directing = spec.directing
        rng = np.random.default_rng(31)
        draws = [sample_corm(spec, rng) for _ in range(8)]
        level = draws[0].truncation_level
        top = directing.support[1]
        for r in draws:
            assert r.truncation_level == level
            assert np.all(np.diff(r.jumps) < 0.0)
            assert level < r.jumps[-1] and r.jumps[0] < top
        ratios = directing.tail_integral(
            np.concatenate([r.jumps for r in draws])) \
            / directing.tail_integral(level)
        assert ratios.size > 3000
        assert stats.kstest(ratios, 'uniform').pvalue > 0.01

    @pytest.mark.parametrize('marginal, shape', LAW_CASES, ids=LAW_IDS)
    def test_count_jumps_have_gamma_arrival_times(self, marginal, shape):
        n, draws = 12, 800
        spec = CoRMSpec(2, shape, marginal, centring_mass=3.0)
        directing = spec.directing
        rng = np.random.default_rng(32)
        first, last = np.empty(draws), np.empty(draws)
        for i in range(draws):
            r = sample_corm(spec, rng, n_jumps=n)
            assert r.jump_count == n
            assert np.all(np.diff(r.jumps) < 0.0)
            assert r.truncation_level == r.jumps[-1]
            assert r.jumps[0] < directing.support[1]
            first[i], last[i] = r.jumps[0], r.jumps[-1]
        alpha = spec.centring_mass
        for jumps, k in ((first, 1), (last, n)):
            times = alpha * directing.tail_integral(jumps)
            assert stats.kstest(times, stats.gamma(k).cdf).pvalue > 0.01

    def test_proposal_budget_counts_thinned_points(self):
        # gamma at shape 0.05: beta = 0.05, and the envelope proposes
        # about 56 points above the default level to keep about 31 jumps.
        # A budget between the two is too small: it bounds proposals
        spec = CoRMSpec(2, 0.05, MarginalFamily.gamma())
        rng = np.random.default_rng(34)
        r = sample_corm(spec, rng)
        want = spec.directing.tail_integral(r.truncation_level)
        assert 25.0 < want < 40.0
        with pytest.raises(ValueError, match='proposals before thinning'):
            sample_corm(spec, rng, max_jumps=45)
        with pytest.raises(ValueError, match='proposals'):
            sample_corm(spec, rng, n_jumps=40, max_jumps=45)
        assert sample_corm(spec, rng, n_jumps=40, max_jumps=1000) \
            .jump_count == 40

    def test_beta_piece_underflow_stays_in_the_band(self):
        # at beta = 0.05 the beta piece's gap (y a beta / coef)^(1/beta)
        # underflows to 0 for the smallest levels: the point, below 1/a
        # exactly, becomes the largest double below it and is kept
        spec = CoRMSpec(2, 0.05, MarginalFamily.gamma())
        band = spec.directing.envelope.band(1e-3)
        z = band.points(np.array([1e-300, 1e-30, 0.5 * band.beta_mass]))
        top = np.nextafter(1.0, 0.0)
        assert z[0] == top and z[1] == top and band.split < z[2] < top
        assert np.all(band.keep(z) > 0.0)

    def test_mass_near_the_top_is_kept(self):
        # gamma at shape 0.05: nu*(z) = z^-1 (1 - z)^-0.95 puts 3.1 of
        # its 30.7 expected jumps above the default level within half an
        # ulp of 1, each of height about 1.  The mean count is U(level)
        # and the mean total mass int_level^1 z nu*(z) dz = (1 - level)^phi
        # / phi, both within 4 standard errors over 2,000 draws
        phi = 0.05
        spec = CoRMSpec(2, phi, MarginalFamily.gamma())
        rng = np.random.default_rng(35)
        rs = [sample_corm(spec, rng) for _ in range(2000)]
        level = rs[0].truncation_level
        x = np.array([[r.jump_count, r.jumps.sum()] for r in rs])
        want = np.array([float(spec.directing.tail_integral(level)),
                         (1.0 - level) ** phi / phi])
        z = (x.mean(axis=0) - want) \
            / (x.std(axis=0, ddof=1) / math.sqrt(x.shape[0]))
        assert np.all(np.abs(z) < 4.0)
        assert max(r.jumps[0] for r in rs) == np.nextafter(1.0, 0.0)


def weighted_mass(marginal, shape, z):
    '''W(z) in closed form, as in TestResidualLevel.'''
    if marginal.kind == 'gamma':
        return -math.expm1(shape * math.log1p(-z)) / shape
    sigma, a = marginal.sigma, marginal.a
    c = sigma * math.exp(math.lgamma(shape) - math.lgamma(shape + sigma)
                         - math.lgamma(1.0 - sigma))
    b = 1.0 - sigma, sigma + shape
    return c * a ** (sigma - 1.0) * special.betainc(*b, a * z) \
        * special.beta(*b)


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
        spec = CoRMSpec(2, shape, marginal)
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

    @pytest.mark.parametrize('marginal', [
        MarginalFamily.gamma(), MarginalFamily.generalized_gamma(0.3, 1.0),
        MarginalFamily.generalized_gamma(0.5, 2.0)])
    @pytest.mark.parametrize('tail_mass', [1e-6, 1e-10])
    def test_every_shape(self, monkeypatch, marginal, tail_mass):
        # the start is the root of the envelope's power law c z^(1-sigma)
        # / (1-sigma); from z = 1/2, 24 of these 78 solves raise
        # QuadratureError, at shapes from 10
        import corm.prior as prior_mod
        calls = []
        counted = prior_mod._weighted_mass
        monkeypatch.setattr(prior_mod, '_weighted_mass',
                            lambda *args: calls.append(1) or counted(*args))
        for shape in np.geomspace(0.01, 100.0, 13).tolist():
            spec = CoRMSpec(2, shape, marginal)
            target = tail_mass * _coverage_norm(spec)
            calls.clear()
            z = _solve_residual_level(spec, target)
            assert len(calls) <= 3
            assert weighted_mass(marginal, shape, z) == pytest.approx(
                target, rel=1e-9)

    def test_start_past_half_the_support_raises(self):
        # at shape 1 the gamma's W(z) = z to first order
        spec = CoRMSpec(2, 1.0, MarginalFamily.gamma())
        with pytest.raises(ValueError, match='half the support'):
            _solve_residual_level(spec, 0.6)


class TestInverseTail:
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
        want = covariance_normalized(gamma_spec, 0.5, 0.5, 0.5, 1.0)
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
