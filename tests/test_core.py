'''Tests for the measure-level machinery: intensities, exponents,
multivariate densities, copulas, and moments.

Reference values are either exact closed forms, independent scipy
quadratures (QUADPACK) or mpmath, never the package's own integrator.
'''

import itertools
import json
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import integrate as sci
from oracles import (
    CORRELATION_FAMILIES,
    correlation_quadpack,
    correlation_spec,
    gamma_directed_marginal,
    gg_directed_marginal,
    laplace_exponent_exponential_closed,
    quadpack_tail,
    stable_rho,
)
from scipy.special import exp1, gammaln

from corm import core
from corm.core import (
    CoRMSpec,
    LevyIntensity,
    MarginalFamily,
    RuleNodes,
    TiltRule,
    beta_directed_marginal,
    clayton_copula,
    covariance_normalized,
    directing_from_marginal,
    kappa,
    laplace_exponent,
    levy_copula,
    marginal_exponent,
    marginal_intensity,
    mixed_moment,
    rho_density,
)
from corm.numerics import QuadratureError


def spec_gamma(dimension=2, shape=1.0, mass=1.0):
    return CoRMSpec.from_marginal(dimension, shape, MarginalFamily.gamma(),
                                  centring_mass=mass)


def spec_stable(dimension=2, shape=1.0, sigma=0.5, mass=1.0):
    return CoRMSpec.from_marginal(dimension, shape,
                                  MarginalFamily.sigma_stable(sigma),
                                  centring_mass=mass)


def spec_gg(dimension=2, shape=2.0, sigma=0.3, a=1.0, mass=1.0):
    return CoRMSpec.from_marginal(dimension, shape,
                                  MarginalFamily.generalized_gamma(sigma, a),
                                  centring_mass=mass)


class TestScores:

    def test_score_shape_positive(self):
        # the spec and with_shape raise the ValueError the samplers'
        # shape moves catch
        for shape in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match='score shape'):
                CoRMSpec(2, shape, MarginalFamily.gamma())
            with pytest.raises(ValueError, match='score shape'):
                spec_gamma().with_shape(shape)


class TestDirectingIntensities:

    def test_gamma_directing_density(self):
        nu = directing_from_marginal(MarginalFamily.gamma(), 2.0)
        assert nu.density(0.5) == pytest.approx(1.0, rel=1e-13)
        assert nu.support == (0.0, 1.0)

    def test_stable_directing_coefficient(self):
        # normalised so the induced marginal exponent is exactly lambda^sigma;
        # for shape 1, sigma 1/2 the constant collapses to 1/pi
        nu = directing_from_marginal(MarginalFamily.sigma_stable(0.5), 1.0)
        assert nu.density(1.0) == pytest.approx(1.0 / math.pi, rel=1e-12)

    def test_stable_directing_general_coefficient(self):
        shape, sigma = 2.0, 0.3
        nu = directing_from_marginal(MarginalFamily.sigma_stable(sigma), shape)
        c = math.exp(math.log(sigma) + gammaln(shape)
                     - gammaln(shape + sigma) - gammaln(1.0 - sigma))
        assert nu.density(2.0) == pytest.approx(c * 2.0 ** (-1.0 - sigma), rel=1e-12)

    def test_stable_tail_and_inverse(self):
        nu = directing_from_marginal(MarginalFamily.sigma_stable(0.5), 1.0)
        got = nu.tail_integral(1.0)
        ref = sci.quad(lambda z: nu.density(z), 1.0, np.inf)[0]
        assert got == pytest.approx(ref, rel=1e-9)
        assert nu.inverse_tail(got) == pytest.approx(1.0, rel=1e-9)

    def test_gg_directing_reduces_to_stable(self):
        shape, sigma = 1.0, 0.5
        gg = directing_from_marginal(
            MarginalFamily.generalized_gamma(sigma, 1e-8), shape)
        st = directing_from_marginal(MarginalFamily.sigma_stable(sigma), shape)
        assert gg.density(0.25) == pytest.approx(st.density(0.25), rel=1e-6)

    def test_gg_directing_support(self):
        nu = directing_from_marginal(
            MarginalFamily.generalized_gamma(0.3, 2.0), 1.0)
        assert nu.support == (0.0, 0.5)
        assert nu.density(0.49999) > 0.0

    def test_compound_reproduces_stable_marginal(self):
        # int f(s/z | shape) z^-1 nu*(dz) must return the marginal intensity
        shape, sigma, s = 1.5, 0.4, 0.7
        nu = directing_from_marginal(MarginalFamily.sigma_stable(sigma), shape)

        def integrand(z):
            x = s / z
            dens = math.exp((shape - 1.0) * math.log(x) - x - gammaln(shape))
            return dens / z * nu.density(z)

        mix = sci.quad(integrand, 0.0, np.inf, limit=200)[0]
        # the score shape cancels: the compound coordinate is always the
        # stable process with exponent lambda^sigma
        closed = sigma / math.gamma(1.0 - sigma) * s ** (-1.0 - sigma)
        assert mix == pytest.approx(closed, rel=1e-8)
        ref = marginal_intensity(MarginalFamily.sigma_stable(sigma))
        assert ref.density(s) == pytest.approx(closed, rel=1e-12)

    def test_compound_reproduces_gamma_marginal(self):
        shape, s = 2.0, 0.9
        nu = directing_from_marginal(MarginalFamily.gamma(), shape)

        def integrand(z):
            x = s / z
            dens = math.exp((shape - 1.0) * math.log(x) - x - gammaln(shape))
            return dens / z * nu.density(z)

        mix = sci.quad(integrand, 0.0, 1.0, limit=200)[0]
        assert mix == pytest.approx(math.exp(-s) / s, rel=1e-8)

    def test_shape_must_be_positive(self):
        with pytest.raises(ValueError):
            directing_from_marginal(MarginalFamily.gamma(), 0.0)


# (sigma, a) of the beta-type directing intensities c z^(-1-sigma)
# (1 - a z)^(beta-1): gamma (sigma 0) and generalized gamma, a != 1 included
BETA_TYPE_FAMILIES = ((0.0, 1.0), (1e-3, 0.5), (0.3, 2.5), (0.9, 1.0))
BETA_TYPE_SHAPES = (1e-4, 0.5, 2.0, 19.7, 100.0)


def beta_type_directing(sigma, a, shape):
    fam = MarginalFamily.gamma() if sigma == 0.0 else \
        MarginalFamily.generalized_gamma(sigma, a)
    nu = directing_from_marginal(fam, shape)
    # scale c a^sigma of T(z) = scale G(a z), c from its definition
    c = 1.0 if sigma == 0.0 else mpmath.mpf(sigma) * mpmath.gamma(shape) \
        / (mpmath.gamma(shape + sigma) * mpmath.gamma(1.0 - sigma))
    return nu, c * mpmath.mpf(a) ** sigma, sigma + shape


class TestBetaTypeTail:
    '''The unit tail G(x) = int_x^1 t^(-1-sigma) (1-t)^(beta-1) dt of the
    gamma and generalized-gamma directing intensities against mpmath's
    w^beta/beta 2F1(beta, 1+sigma; beta+1; w), w = 1 - x, at 40 digits.'''

    @staticmethod
    def unit_tail(sigma, beta, x):
        w = 1 - mpmath.mpf(x)
        return w ** beta / beta * mpmath.hyp2f1(beta, 1 + sigma, beta + 1, w)

    @pytest.mark.parametrize('sigma,a', BETA_TYPE_FAMILIES)
    def test_tail_vs_hypergeometric(self, sigma, a):
        with mpmath.workdps(40):
            for shape in BETA_TYPE_SHAPES:
                nu, scale, beta = beta_type_directing(sigma, a, shape)
                x_switch = min(0.3, 1.0 / beta)
                # both sides of the series/hypergeometric switch; at x =
                # 0.08 and beta near 100 the series cancels and scipy's
                # hyp2f1 loses digits at sigma 0
                for x in (1e-10, 0.5 * x_switch, x_switch, 1.05 * x_switch,
                          0.08, 0.5, 0.99):
                    want = scale * self.unit_tail(sigma, beta, x)
                    got = nu.tail_integral(x / a)
                    assert abs(got - want) <= 1e-12 * want, (shape, x)

    @pytest.mark.parametrize('sigma,a', BETA_TYPE_FAMILIES)
    def test_series_branch_on_a_log_grid(self, sigma, a):
        # the whole series branch, x from 1e-12 to x_switch; the cut
        # series must be as accurate as the 60-term one, whose worst
        # error over these cases is 5.64e-14 (sigma 0.9)
        worst = 0.0
        with mpmath.workdps(40):
            for shape in BETA_TYPE_SHAPES:
                nu, scale, beta = beta_type_directing(sigma, a, shape)
                z = np.geomspace(1e-12, min(0.3, 1.0 / beta), 30) / a
                for zi, got in zip(z, nu.tail_integral(z)):
                    want = scale * self.unit_tail(sigma, beta, a * zi)
                    worst = max(worst, abs(got - want) / want)
        assert worst <= 5.7e-14

    @pytest.mark.parametrize('sigma,a', BETA_TYPE_FAMILIES)
    def test_series_cut_drops_only_terms_below_an_ulp(self, sigma, a):
        # every term past the cut, at x_switch where it is largest, is
        # below half an ulp of the tail there
        with mpmath.workdps(40):
            for shape in BETA_TYPE_SHAPES:
                _, _, beta = beta_type_directing(sigma, a, shape)
                x_switch = min(0.3, 1.0 / beta)
                exponents, _ = core._beta_series(sigma, beta, x_switch)
                n = exponents.size
                assert n <= 40, shape
                s, b, x = (mpmath.mpf(t) for t in (sigma, beta, x_switch))
                dropped = max(abs(mpmath.binomial(b - 1, k) * x ** (k - s)
                                  / (k - s)) for k in range(n + 1, 121))
                tail = self.unit_tail(sigma, beta, x_switch)
                assert dropped < 2.0 ** -53 * tail, shape

    @pytest.mark.parametrize('sigma,a', BETA_TYPE_FAMILIES)
    def test_tail_constant(self, sigma, a):
        # k0 = lim_{x->0} G(x) - L(x), L(x) = (x^-sigma - 1)/sigma, which
        # is B(-sigma, beta) + 1/sigma (-digamma(beta) - euler at sigma 0);
        # the package's k0 is read off its series branch as
        # G(x) - L(x) + sum_k (-1)^k C(beta-1, k) x^(k-sigma) / (k-sigma)
        with mpmath.workdps(40):
            for shape in BETA_TYPE_SHAPES:
                nu, scale, beta = beta_type_directing(sigma, a, shape)
                s, b = mpmath.mpf(sigma), mpmath.mpf(beta)
                x = mpmath.mpf(0.5 * min(0.3, 1.0 / beta))
                lead = -mpmath.log(x) if sigma == 0.0 \
                    else (x ** -s - 1) / s
                series = mpmath.fsum(
                    (-1) ** k * mpmath.binomial(b - 1, k) * x ** (k - s)
                    / (k - s) for k in range(1, 120))
                got = nu.tail_integral(float(x) / a) / scale - lead + series
                if sigma == 0.0:
                    want = -mpmath.digamma(b) - mpmath.euler
                else:
                    want = mpmath.beta(-s, b) + 1 / s
                assert abs(got - want) <= 1e-12 * max(1, abs(want)), shape

    def test_with_shape_runs_no_quadrature(self, monkeypatch):
        import corm.core as core_mod
        spec = spec_gg(shape=1.0)

        def no_quadrature(*args, **kwargs):
            raise AssertionError('adaptive quadrature called')

        monkeypatch.setattr(core_mod, 'integrate', no_quadrature)
        spec2 = spec.with_shape(1.7)
        assert spec2.shape == 1.7
        assert spec2.directing.tail_integral(0.2) > 0.0


class TestDeferredTail:
    '''The beta-type tail's series and k0 are built on the first tail
    call that needs them, not with the intensity, and the call that
    builds them does not change the doubles.'''

    def test_spec_builds_do_not_build_the_tail_terms(self, monkeypatch):
        def refuse(*args):
            raise AssertionError('tail terms built')

        monkeypatch.setattr(core, '_beta_series', refuse)
        monkeypatch.setattr(core, '_beta_tail_constant', refuse)
        for marginal in (MarginalFamily.gamma(),
                         MarginalFamily.generalized_gamma(0.3, 1.0)):
            spec = CoRMSpec.from_marginal(2, 1.0, marginal)
            spec.with_shape(2.5)
            nu = directing_from_marginal(marginal, 0.7)
            # the first tail call on the series branch does build them
            with pytest.raises(AssertionError, match='tail terms built'):
                nu.tail_integral(0.01)

    @pytest.mark.parametrize('marginal', [
        MarginalFamily.gamma(), MarginalFamily.generalized_gamma(0.3, 1.0),
        MarginalFamily.generalized_gamma(0.9, 2.5)])
    def test_call_order_does_not_change_the_doubles(self, marginal):
        def build():
            return directing_from_marginal(marginal, 1.3)

        z = np.geomspace(1e-9, 0.99, 25) / build().support[1]
        tails = [build().tail_integral(z)]
        # a first call at one point, on the series branch or above it
        for first in (z[0], z[-1]):
            nu = build()
            nu.tail_integral(first)
            tails.append(nu.tail_integral(z))
        for got in tails[1:]:
            np.testing.assert_array_equal(got, tails[0])


class TestScalarTail:
    '''tail_integral at one float takes a path of its own, without the
    array path's masks and copies; it returns a float, the very double
    the array path gives at that point.'''

    @pytest.mark.parametrize('marginal', [
        MarginalFamily.gamma(), MarginalFamily.generalized_gamma(0.3, 1.0)])
    @pytest.mark.parametrize('z', [1e-4, 1e-2, 0.5])
    def test_float_matches_array(self, marginal, z):
        nu = directing_from_marginal(marginal, 1.3)
        got = nu.tail_integral(z)
        assert type(got) is float
        assert got == nu.tail_integral(np.array([z]))[0]
        assert got == nu.tail_integral(np.asarray(z))

    @pytest.mark.parametrize('marginal,shape', [
        (MarginalFamily.gamma(), 0.3), (MarginalFamily.gamma(), 2.3),
        (MarginalFamily.generalized_gamma(0.3, 1.0), 1.0),
        (MarginalFamily.generalized_gamma(0.3, 1.0), 0.02)])
    def test_a_batch_matches_the_float_path(self, marginal, shape):
        # 4,000 points, half of them packed near the series switch: each
        # point of the batch is the very double of the point alone (one
        # matrix-vector product over the batch rounded differently at
        # 9-103 of them)
        nu = directing_from_marginal(marginal, shape)
        upper = nu.support[1]
        rng = np.random.default_rng(0)
        x_switch = min(0.3, 1.0 / ((marginal.sigma or 0.0) + shape))
        z = np.concatenate([rng.uniform(0.0, upper, 1000),
                            np.geomspace(1e-8, 0.999 * upper, 1000),
                            upper * x_switch * rng.uniform(0.9, 1.1, 2000)])
        got = nu.tail_integral(z)
        assert got.tolist() == [nu.tail_integral(x) for x in z.tolist()]

    def test_outside_the_support(self):
        nu = directing_from_marginal(MarginalFamily.gamma(), 1.3)
        assert nu.tail_integral(0.0) == math.inf
        assert nu.tail_integral(1.5) == 0.0


class TestTailConstant:
    '''k0 = B(-sigma, beta) + 1/sigma (-digamma(beta) - euler_gamma at
    sigma 0) of the beta-type unit tail, against 40-digit mpmath at the
    doubles sigma and beta.  G(x) is k0 less terms of about its size near
    the series switch, so the tail's series branch is only as good as k0:
    within an ulp of max(1, |k0|) here, where the scipy-based constant it
    replaced was off by up to 5 (sigma 0.9, shape 0.2) and relative to a
    tiny k0 by 5e-11 (sigma 1e-6, shape 1).'''

    @pytest.mark.parametrize('sigma', [0.0, 1e-6, 0.01, 0.3, 0.5, 0.9])
    def test_against_mpmath(self, sigma):
        with mpmath.workdps(40):
            for shape in (0.01, 0.05, 0.2, 0.5, 1.0, 2.0, 5.0, 19.7, 100.0):
                beta = sigma + shape
                s, b = mpmath.mpf(sigma), mpmath.mpf(beta)
                want = -mpmath.digamma(b) - mpmath.euler if sigma == 0.0 \
                    else mpmath.beta(-s, b) + 1 / s
                got = core._beta_tail_constant(sigma, beta)
                assert abs(got - want) <= 2.0 ** -52 * max(1, abs(want)), \
                    shape

    def test_gamma_case_against_digamma(self):
        # at sigma 0 k0 = -digamma(beta) - euler_gamma: on (0.01, 200) and
        # next to beta = 1, where it vanishes, within an ulp of its value,
        # and no further off than scipy's digamma gives it
        from scipy.special import digamma
        beta = np.concatenate([np.geomspace(0.01, 200.0, 401),
                               1.0 + np.arange(-20, 21) * 2.0 ** -40])
        got = np.array([core._beta_tail_constant(0.0, b) for b in beta])
        with mpmath.workdps(40):
            want = [-mpmath.digamma(mpmath.mpf(b)) - mpmath.euler
                    for b in beta]

            def ulps(values):
                return np.array([
                    float(abs(v - w) / np.spacing(abs(float(w)))) if w
                    else abs(v) for v, w in zip(values, want)])

            ours = ulps(got)
            scipy_way = ulps(-digamma(beta) - np.euler_gamma)
        assert ours.max() <= min(1.0, scipy_way.max())


# every sigma with shapes up to 150; shape + sigma < 170 throughout, the
# math.gamma branch of core._gamma_ratio
STABLE_SIGMAS = (0.001, 0.05, 0.3, 0.5, 0.9, 0.99)
STABLE_SHAPES = (1e-4, 0.01, 0.5, 1.0, 2.5, 19.7, 100.0, 150.0)


class TestStableConstants:
    '''The directing constant sigma Gamma(shape) / (Gamma(shape + sigma)
    Gamma(1 - sigma)) of a sigma-stable marginal against 40-digit mpmath
    at the exact sum shape + sigma.'''

    @staticmethod
    def errors(sigma, shape):
        with mpmath.workdps(40):
            s, p = mpmath.mpf(sigma), mpmath.mpf(shape)
            ratio = mpmath.gamma(p) / mpmath.gamma(p + s)
            g1 = mpmath.gamma(1 - s)
            # the density is c z^(-1-sigma): c at z = 1
            directing = directing_from_marginal(
                MarginalFamily.sigma_stable(sigma), shape).density(1.0)
            return abs(directing / (s * ratio / g1) - 1)

    @pytest.mark.parametrize('sigma', STABLE_SIGMAS)
    def test_gamma_ratio_to_a_few_ulp(self, sigma):
        # the log-gamma difference this replaced was off by up to 1.8e-13
        # (sigma 0.5, shape 150); the worst case here is 5.8e-16
        worst = max(self.errors(sigma, shape) for shape in STABLE_SHAPES)
        assert worst <= 1e-15

    @pytest.mark.parametrize('shape', [169.9, 175.0, 300.0])
    def test_log_gamma_branch_past_170(self, shape):
        # past 170 Gamma(shape + sigma) overflows near 171.6, and the
        # ratio is a difference of log-gammas of 700 to 1,700, each
        # rounded to about 1e-13: the worst case here is 3.9e-13
        for sigma in (0.05, 0.5, 0.99):
            assert self.errors(sigma, shape) <= 1e-12, sigma


class TestBoxCox:
    '''core._boxcox and core._inv_boxcox against scipy.special's boxcox
    and inv_boxcox, which use the same formulas, and against mpmath.
    Both are computed through log x: a relative error e of log x moves
    the transform by |lam log x| e and the inverse by |log x| e, so the
    bounds are in ulps times 1 + that factor (2 ulp where it is small).'''

    X = np.concatenate([np.geomspace(1e-300, 1.0, 301),
                        [0.5, 1.0 - 2.0 ** -53]])
    LAMBDAS = (0.0, -1e-8, -0.3, -0.999)

    @staticmethod
    def ulps(got, want):
        return np.abs(got - want) / np.spacing(np.abs(want))

    @pytest.mark.parametrize('lam', LAMBDAS)
    def test_matches_scipy(self, lam):
        from scipy.special import boxcox, inv_boxcox
        log_x = np.abs(np.log(self.X))
        y = core._boxcox(self.X, lam)
        assert np.all(self.ulps(y, boxcox(self.X, lam))
                      <= 2.0 * (1.0 + abs(lam) * log_x))
        assert np.all(self.ulps(core._inv_boxcox(y, lam), inv_boxcox(y, lam))
                      <= 2.0 * (1.0 + log_x))

    @pytest.mark.parametrize('lam', LAMBDAS)
    def test_matches_mpmath(self, lam):
        eps = 2.0 ** -52
        y = core._boxcox(self.X, lam)
        x_back = core._inv_boxcox(y, lam)
        with mpmath.workdps(40):
            lm = mpmath.mpf(lam)
            for x, yi, xi in zip(self.X, y, x_back):
                xm, ym = mpmath.mpf(x), mpmath.mpf(yi)
                log_x = abs(math.log(x))
                want = mpmath.log(xm) if lam == 0.0 else (xm ** lm - 1) / lm
                if want:
                    assert abs(yi / want - 1) \
                        <= 4.0 * eps * (1.0 + abs(lam) * log_x), x
                else:
                    assert yi == 0.0
                # the inverse at the double yi
                want = mpmath.exp(ym) if lam == 0.0 \
                    else (1 + lm * ym) ** (1 / lm)
                assert abs(xi / want - 1) <= 4.0 * eps * (1.0 + log_x), x

    @pytest.mark.parametrize('lam', LAMBDAS)
    def test_single_points_match_the_array(self, lam):
        # a single positive point skips np.errstate but gives the same
        # doubles as the array it came from
        y = core._boxcox(self.X, lam)
        for i in range(0, self.X.size, 7):
            assert core._boxcox(self.X[i], lam) == y[i]
            assert core._boxcox(self.X[i:i + 1], lam)[0] == y[i]

    @pytest.mark.parametrize('lam', LAMBDAS)
    def test_limits_at_zero_without_a_warning(self, lam):
        # the test session turns RuntimeWarnings into errors
        y = core._boxcox(np.array([0.0, 0.5]), lam)
        assert y[0] == -np.inf and np.isfinite(y[1])
        assert core._boxcox(0.0, lam) == -np.inf
        np.testing.assert_array_equal(
            core._inv_boxcox(np.array([-np.inf]), lam), [0.0])


class TestInverseWithoutClosedForm:
    '''inverse_tail: Newton steps on the tail integral and the density,
    on a support (0, inf) only.'''

    LEVELS = np.geomspace(1e-8, 600.0, 50)

    @pytest.mark.parametrize('marginal', [
        MarginalFamily.gamma(), MarginalFamily.generalized_gamma(0.3, 1.0),
        MarginalFamily.sigma_stable(0.7)])
    def test_marginal_round_trip(self, marginal):
        nu = marginal_intensity(marginal)
        x = nu.inverse_tail(self.LEVELS)
        assert x.shape == self.LEVELS.shape and np.all(np.diff(x) < 0.0)
        np.testing.assert_allclose(nu.tail_integral(x), self.LEVELS,
                                   rtol=1e-10, atol=0.0)

    def test_quadrature_tail_level(self):
        # a tail known only by quadrature: the generalized-gamma directed
        # marginal's Bessel-K density, with its QUADPACK tail
        def density(s):
            return gg_directed_marginal(s, 2.0, 0.3, 1.0)

        nu = LevyIntensity(density, (0.0, np.inf), -1.0 - 0.3,
                           tail_fn=quadpack_tail(density))
        x = nu.inverse_tail(1.0)
        assert nu.tail_integral(x) == pytest.approx(1.0, rel=1e-10)
        ref = sci.quad(lambda s: float(nu.density(s)), x, 1.0)[0] \
            + sci.quad(lambda s: float(nu.density(s)), 1.0, np.inf)[0]
        assert ref == pytest.approx(1.0, rel=1e-8)

    def test_root_above_the_ceiling_raises(self):
        # the sigma-stable tail z^(-1/2) / Gamma(1/2) without its closed
        # inverse: level 1e-200 has its root near 3e399
        nu = LevyIntensity(lambda s: 0.5 / math.sqrt(math.pi) * s ** -1.5,
                           (0.0, np.inf), -1.5, upper_rate=-0.5,
                           tail_fn=lambda x: x ** -0.5 / math.sqrt(math.pi))
        assert nu.inverse_tail(1e-100) == pytest.approx(1e200 / math.pi,
                                                        rel=1e-10)
        with pytest.raises(ValueError, match='root outside'):
            nu.inverse_tail(1e-200)

    def test_finite_support_raises(self):
        # the directing intensities on (0, 1/a) have no inverse tail:
        # their points are drawn by thinning the envelope
        for marginal in (MarginalFamily.gamma(),
                         MarginalFamily.generalized_gamma(0.3, 2.0)):
            nu = directing_from_marginal(marginal, 0.5)
            with pytest.raises(ValueError, match='support'):
                nu.inverse_tail(0.01)

    def test_tail_fn_is_required(self):
        with pytest.raises(TypeError, match='tail_fn'):
            LevyIntensity(lambda s: np.exp(-s) / s, (0.0, np.inf), -1.0)

    def test_unconverged_level_raises(self):
        # a density 1e6 times the tail's derivative shrinks every Newton
        # step by 1e6, so the level is still unsolved when the steps run out
        nu = LevyIntensity(lambda s: 1e6 * np.exp(-s) / s, (0.0, np.inf),
                           -1.0, tail_fn=exp1)
        with pytest.raises(RuntimeError, match='unconverged'):
            nu.inverse_tail(5.0)


class TestMarginalIntensities:

    def test_gamma_intensity(self):
        nu = marginal_intensity(MarginalFamily.gamma())
        assert nu.density(1.0) == pytest.approx(math.exp(-1.0), rel=1e-13)
        ref = sci.quad(lambda s: math.exp(-s) / s, 2.0, np.inf)[0]
        assert nu.tail_integral(2.0) == pytest.approx(ref, rel=1e-10)

    def test_stable_intensity_coefficient(self):
        # sigma / Gamma(1-sigma), the constant that makes the exponent
        # exactly lambda^sigma
        nu = marginal_intensity(MarginalFamily.sigma_stable(0.5))
        assert nu.density(1.0) == pytest.approx(0.5 / math.gamma(0.5), rel=1e-12)

    def test_inverse_tail_round_trip(self):
        for fam in (MarginalFamily.gamma(), MarginalFamily.sigma_stable(0.7)):
            nu = marginal_intensity(fam)
            for x in (0.05, 0.5, 3.0):
                assert nu.inverse_tail(nu.tail_integral(x)) == pytest.approx(
                    x, rel=1e-7)

    def test_gg_tail_integral_vs_incomplete_gamma(self):
        # the closed tail_fn against
        # sigma a^sigma Gamma(-sigma, a x) / Gamma(1 - sigma)
        for sigma, a in ((0.3, 1.0), (0.6, 2.5)):
            nu = marginal_intensity(
                MarginalFamily.generalized_gamma(sigma, a))
            for x in (1e-4, 0.05, 0.7, 3.0, 20.0):
                want = float(sigma * a ** sigma
                             * mpmath.gammainc(-sigma, a * x)
                             / mpmath.gamma(1.0 - sigma))
                assert nu.tail_integral(x) == pytest.approx(want, rel=1e-11)

    def test_gg_inverse_tail_round_trip(self):
        nu = marginal_intensity(MarginalFamily.generalized_gamma(0.3, 1.0))
        levels = np.array([1e-6, 0.01, 0.5, 3.0, 40.0])
        assert nu.tail_integral(float(nu.inverse_tail(1e-6))) == \
            pytest.approx(1e-6, rel=1e-10)
        x = nu.inverse_tail(levels)
        got = [nu.tail_integral(xi) for xi in x]
        assert np.allclose(got, levels, rtol=1e-10, atol=0.0)

    def test_gg_intensity_small_jump_asymptote(self):
        shape, sigma, a = 2.0, 0.3, 1.0
        lead = math.exp(math.log(sigma) + gammaln(sigma + shape)
                        - gammaln(shape) - gammaln(1.0 - sigma))
        s = 1e-6
        nu2 = gg_directed_marginal(s, shape, sigma, a)
        assert nu2 * s ** (1.0 + sigma) == pytest.approx(lead, rel=0.02)

    def test_gg_marginal_of_compound_is_tempered_stable(self):
        sigma, a = 0.3, 1.0
        nu = marginal_intensity(MarginalFamily.generalized_gamma(sigma, a))
        c = sigma / math.gamma(1.0 - sigma)
        for s in (0.2, 1.0, 4.0):
            assert nu.density(s) == pytest.approx(
                c * s ** (-1.0 - sigma) * math.exp(-a * s), rel=1e-12)

    def test_gg_intensity_vs_mixture(self):
        # tempered-stable directing z^(-1-sigma) e^(-a z), Ga(shape) scores
        shape, sigma, a, s = 2.0, 0.3, 1.0, 0.8
        c = sigma / math.gamma(1.0 - sigma)

        def integrand(z):
            x = s / z
            dens = math.exp((shape - 1.0) * math.log(x) - x - gammaln(shape))
            return dens / z * c * z ** (-1.0 - sigma) * math.exp(-a * z)

        mix = sci.quad(integrand, 0.0, np.inf, limit=200)[0]
        nu2 = gg_directed_marginal(s, shape, sigma, a)
        assert nu2 == pytest.approx(mix, rel=1e-7)


class TestMarginalFromDirecting:
    '''The marginal intensities that directing intensities induce: the
    beta-directed one of the library, and the gamma-directed Bessel-K
    oracle, against QUADPACK mixtures.'''

    def test_beta_theta_equal_shape_is_gamma(self):
        # theta = shape collapses the confluent factor and leaves s^-1 e^-s
        nu = beta_directed_marginal(1.5, 1.5)
        for s in (0.2, 1.0, 4.0):
            assert nu.density(s) == pytest.approx(math.exp(-s) / s, rel=1e-9)

    def test_beta_general_vs_mixture(self):
        shape, theta = 1.3, 2.2

        def integrand(z, s):
            x = s / z
            dens = math.exp((shape - 1.0) * math.log(x) - x - gammaln(shape))
            return dens / z * (1.0 - z) ** (theta - 1.0) / z

        nu = beta_directed_marginal(shape, theta)
        for s in (0.3, 0.8, 2.5):
            ref = sci.quad(integrand, 0.0, 1.0, args=(s,), limit=200)[0]
            assert nu.density(s) == pytest.approx(ref, rel=1e-7)

    def test_gamma_directing_bessel_form(self):
        shape = 1.7

        def integrand(z, s):
            x = s / z
            dens = math.exp((shape - 1.0) * math.log(x) - x - gammaln(shape))
            return dens / z * math.exp(-z) / z

        for s in (0.4, 1.0, 3.0):
            ref = sci.quad(integrand, 0.0, np.inf, args=(s,), limit=200)[0]
            assert gamma_directed_marginal(s, shape) == pytest.approx(
                ref, rel=1e-7)

    def test_parameter_validation(self):
        for shape, theta in ((1.0, 0.0), (1.0, math.nan), (0.0, 1.0),
                             (-1.0, 1.0)):
            with pytest.raises(ValueError):
                beta_directed_marginal(shape, theta)


class TestSpecConstruction:

    def test_from_marginal_all_families(self):
        for sp in (spec_gamma(), spec_stable(), spec_gg()):
            assert sp.dimension == 2
            assert sp.directing is not None

    def test_consistency_check_catches_mismatch(self, monkeypatch):
        # force the closed marginal exponent off by 1%; the check in
        # from_marginal must notice
        real = core.marginal_exponent
        monkeypatch.setattr(core, 'marginal_exponent',
                            lambda marginal, lam: 1.01 * real(marginal, lam))
        with pytest.raises(ValueError, match='inconsistent'):
            core.CoRMSpec.from_marginal(2, 1.0, MarginalFamily.gamma())

    @pytest.mark.parametrize('marginal', [
        MarginalFamily.gamma(), MarginalFamily.generalized_gamma(0.3, 1.0),
        MarginalFamily.sigma_stable(0.5)], ids=['gamma', 'gg', 'stable'])
    @pytest.mark.parametrize('shape', [1e-5, 1e-3, 0.5, 2.0, 100.0])
    def test_consistency_check_accepts_valid_specs(self, marginal, shape):
        # small shapes made the former mixture-density check's integrand
        # non-finite, and shape 100 failed its 1e-4 comparison.  The check
        # runs the d-dimensional rule, whose step shrinks with d
        for dimension in (1, 2, 3):
            sp = CoRMSpec.from_marginal(dimension, shape, marginal)
            assert sp.shape == shape

    def test_with_shape(self):
        # a new score shape keeps the dimension and centring mass,
        # and the directing envelope's (c, sigma, a, beta) become those
        # of the new shape: c z^(-1-sigma) (1 - a z)^(beta-1) with beta =
        # sigma + shape, and c z^(-1-sigma) (a = 0, beta = 1) for stable

        def stable_c(shape, sigma):
            return sigma * math.gamma(shape) / (
                math.gamma(shape + sigma) * math.gamma(1.0 - sigma))

        cases = [
            (MarginalFamily.gamma(), lambda phi: (1.0, 0.0, 1.0, phi)),
            (MarginalFamily.generalized_gamma(0.3, 2.0),
             lambda phi: (stable_c(phi, 0.3), 0.3, 2.0, 0.3 + phi)),
            (MarginalFamily.sigma_stable(0.5),
             lambda phi: (stable_c(phi, 0.5), 0.5, 0.0, 1.0))]
        for marginal, params in cases:
            sp = CoRMSpec.from_marginal(3, 1.0, marginal, centring_mass=4.0)
            sp2 = sp.with_shape(2.0)
            assert (sp.shape, sp2.shape) == (1.0, 2.0)
            assert sp2.dimension == 3 and sp2.centring_mass == 4.0
            assert sp2.marginal == marginal
            assert sp2 != sp
            for spec, phi in ((sp, 1.0), (sp2, 2.0)):
                e = spec.directing.envelope
                assert (e.c, e.sigma, e.a, e.beta) == pytest.approx(
                    params(phi), rel=1e-13)

    def test_spec_takes_no_directing_intensity(self):
        # nu* is derived from the marginal and the shape; each derivation
        # is a new intensity, so equal inputs give distinct specs
        nu = directing_from_marginal(MarginalFamily.gamma(), 1.0)
        with pytest.raises(TypeError):
            CoRMSpec(2, 1.0, MarginalFamily.gamma(), nu)
        with pytest.raises(TypeError):
            CoRMSpec(2, 1.0, MarginalFamily.gamma(), directing=nu)
        sp = CoRMSpec(2, 1.0, MarginalFamily.gamma())
        assert sp == sp
        assert sp != CoRMSpec(2, 1.0, MarginalFamily.gamma())

    def test_spec_equals_and_hashes_by_identity(self):
        # samplers key caches by spec: equality and the hash are the
        # object's identity, never a walk over the nested fields
        sp = CoRMSpec.from_marginal(2, 1.0, MarginalFamily.gamma())
        twin = CoRMSpec.from_marginal(2, 1.0, MarginalFamily.gamma())
        assert sp == sp and hash(sp) == object.__hash__(sp)
        assert sp != twin and not sp == twin
        assert sp.with_shape(1.0) != sp
        cache = {sp: 'sp', twin: 'twin'}
        assert len(cache) == 2 and cache[sp] == 'sp'
        assert sp.with_shape(2.0) not in cache

    def test_marginal_family_rejects_stray_parameters(self):
        for stray in ({'sigma': 0.5}, {'a': 3.0}, {'sigma': 0.5, 'a': 3.0}):
            with pytest.raises(ValueError, match='takes no parameter'):
                MarginalFamily('gamma', **stray)
        with pytest.raises(ValueError, match='takes no parameter a'):
            MarginalFamily('sigma-stable', sigma=0.5, a=3.0)
        assert MarginalFamily('gamma') == MarginalFamily.gamma()
        assert MarginalFamily('sigma-stable', sigma=0.5) \
            == MarginalFamily.sigma_stable(0.5)
        assert MarginalFamily('generalized-gamma', sigma=0.5, a=3.0) \
            == MarginalFamily.generalized_gamma(0.5, 3.0)

    def test_validates_masses_and_dimension(self):
        with pytest.raises(ValueError):
            spec_gamma(dimension=0)
        with pytest.raises(ValueError):
            spec_gamma(mass=-1.0)


class TestLaplaceExponent:

    def test_gamma_univariate_any_shape(self):
        # the gamma marginal pins psi(lam) = log(1 + lam) for every shape
        for shape in (0.5, 1.0, 2.7):
            sp = spec_gamma(dimension=1, shape=shape)
            assert laplace_exponent(sp, [1.0]) == pytest.approx(
                math.log(2.0), rel=1e-9)
            assert laplace_exponent(sp, [3.5]) == pytest.approx(
                math.log(4.5), rel=1e-9)

    def test_stable_univariate(self):
        sp = spec_stable(dimension=1, sigma=0.7)
        assert laplace_exponent(sp, [2.0]) == pytest.approx(
            2.0 ** 0.7, rel=1e-9)

    def test_gg_univariate(self):
        sp = spec_gg(dimension=1, shape=2.0, sigma=0.3, a=1.0)
        assert laplace_exponent(sp, [1.0]) == pytest.approx(
            2.0 ** 0.3 - 1.0, rel=1e-8)

    def test_zero_is_zero(self):
        sp = spec_gamma()
        assert laplace_exponent(sp, [0.0, 0.0]) == 0.0

    def test_monotone_and_concave_in_each_coordinate(self):
        sp = spec_gamma(shape=2.0)
        grid = [0.5, 1.0, 1.5, 2.0, 2.5]
        vals = [laplace_exponent(sp, [g, 1.0]) for g in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        incr = [b - a for a, b in zip(vals, vals[1:])]
        assert all(b < a for a, b in zip(incr, incr[1:]))

    def test_bivariate_exponential_partial_fractions(self):
        # distinct rates, shape 1: Upsilon_2 = (l1 log(1+l1) - l2 log(1+l2))
        #                                      / (l1 - l2)
        sp = spec_gamma(shape=1.0)
        got = laplace_exponent(sp, [1.0, 2.0])
        assert got == pytest.approx(math.log(4.5), rel=1e-9)

    def test_repeated_rates_derivative_branch(self):
        sp = spec_gamma(shape=1.0)
        got = laplace_exponent(sp, [1.0, 1.0])
        assert got == pytest.approx(math.log(2.0) + 0.5, rel=1e-9)

    def test_upsilon_stable_exact(self):
        # Upsilon_2 is psi at distinct rates; sqrt exponent:
        # a1 sqrt(1) + a2 sqrt(4) with a1 = -1/3, a2 = 4/3
        sp = spec_stable(sigma=0.5)
        assert laplace_exponent(sp, [1.0, 4.0]) == pytest.approx(
            7.0 / 3.0, rel=1e-8)

    def test_closed_form_matches_quadrature(self):
        import sympy
        sp = spec_gamma(dimension=3, shape=1.0)
        closed = laplace_exponent_exponential_closed(
            lambda x: sympy.log(1 + x), [1.0, 2.0], [1, 2])
        quadr = laplace_exponent(sp, [1.0, 2.0, 2.0])
        assert closed == pytest.approx(quadr, rel=1e-8)

    def test_closed_form_univariate_repeat(self):
        import sympy
        closed = laplace_exponent_exponential_closed(
            lambda x: sympy.log(1 + x), [1.0], [2])
        assert closed == pytest.approx(math.log(2.0) + 0.5, rel=1e-12)

    def test_rejects_bad_arguments(self):
        sp = spec_gamma()
        with pytest.raises(ValueError):
            laplace_exponent(sp, [1.0])
        with pytest.raises(ValueError):
            laplace_exponent(sp, [-1.0, 1.0])

    def test_marginal_exponent_closed(self):
        assert marginal_exponent(MarginalFamily.gamma(), 1.0) == pytest.approx(
            math.log(2.0), rel=1e-13)
        assert marginal_exponent(
            MarginalFamily.sigma_stable(0.4), 3.0) == pytest.approx(
            3.0 ** 0.4, rel=1e-13)
        assert marginal_exponent(
            MarginalFamily.generalized_gamma(0.4, 2.0), 3.0) == pytest.approx(
            5.0 ** 0.4 - 2.0 ** 0.4, rel=1e-13)

    @pytest.mark.parametrize('sigma, a, lam', [
        (1e-3, 0.5, 1e-3), (1e-6, 1.0, 1e-8), (1e-3, 2.0, 10.0),
        (0.3, 1.0, 1e-9), (0.9, 1e3, 1e-2)])
    def test_generalized_gamma_exponent_vs_mpmath(self, sigma, a, lam):
        # (a + lam)^sigma - a^sigma cancels at small sigma or lam / a;
        # the difference as written lost digits to 7e-12 at the first
        # point
        with mpmath.workdps(40):
            s, am, x = (mpmath.mpf(t) for t in (sigma, a, lam))
            want = float((am + x) ** s - am ** s)
        got = marginal_exponent(MarginalFamily.generalized_gamma(sigma, a),
                                lam)
        assert got == pytest.approx(want, rel=1e-14)


class TestRhoDensity:

    def test_exponential_bivariate_exact(self):
        # shape 1, d = 2: (|s|^-1 + |s|^-2) e^-|s|
        sp = spec_gamma(shape=1.0)
        got = rho_density(sp, [0.5, 0.5])
        assert got == pytest.approx(2.0 * math.exp(-1.0), rel=1e-10)

    def test_exponential_trivariate_exact(self):
        sp = spec_gamma(dimension=3, shape=1.0)
        t = 3.0
        ref = (1.0 / t + 2.0 / t ** 2 + 2.0 / t ** 3) * math.exp(-t)
        assert rho_density(sp, [1.0, 1.0, 1.0]) == pytest.approx(ref, rel=1e-10)

    def test_univariate_reduces_to_marginal_intensity(self):
        sp = spec_gamma(dimension=1, shape=1.0)
        assert rho_density(sp, [1.0]) == pytest.approx(
            math.exp(-1.0), rel=1e-10)

    def test_closed_matches_mixture_gamma(self):
        # the mixture int z^-2 f(s_1/z) f(s_2/z) z^-1 (1 - z)^(shape-1) dz
        # by QUADPACK
        for shape in (1.0, 2.0):
            sp = spec_gamma(shape=shape)
            for s in ([0.3, 0.9], [1.0, 2.0]):
                def integrand(z):
                    return math.exp(
                        sum((shape - 1.0) * math.log(x / z) - x / z
                            for x in s) - 2.0 * gammaln(shape)
                        - 3.0 * math.log(z)
                        + (shape - 1.0) * math.log1p(-z))

                mix = sci.quad(integrand, 0.0, 1.0, epsabs=0.0,
                               epsrel=1e-11, limit=200)[0]
                assert rho_density(sp, s) == pytest.approx(mix, rel=1e-7)

    def test_closed_matches_mixture_stable(self):
        # the mixture on TiltRule nodes against the power-law closed form,
        # over eight decades of |s| either way and unequal components
        for sigma, shape, d in itertools.product(
                (0.1, 0.5, 0.9), (1e-3, 1.0, 50.0), (1, 3)):
            sp = CoRMSpec(d, shape, MarginalFamily.sigma_stable(sigma))
            for x, ratio in itertools.product((1e-8, 1.0, 1e8), (1.0, 1e-3)):
                s = np.full(d, x)
                s[0] *= ratio
                assert rho_density(sp, s) == pytest.approx(
                    stable_rho(s, shape, sigma), rel=1e-12, abs=0.0), (
                        sigma, shape, s)

    def test_stable_closed_coefficient(self):
        shape, sigma, d = 1.0, 0.5, 2
        sp = spec_stable(shape=shape, sigma=sigma)
        s = np.array([1.0, 1.0])
        t = s.sum()
        ref = math.exp(math.log(sigma) + gammaln(sigma + d * shape)
                       - gammaln(shape + sigma) - gammaln(1.0 - sigma)
                       - (d - 1) * gammaln(shape)
                       - (sigma + d * shape) * math.log(t))
        assert rho_density(sp, s) == pytest.approx(ref, rel=1e-10)

    def test_rejects_nonpositive_and_wrong_length(self):
        sp = spec_gamma()
        with pytest.raises(ValueError):
            rho_density(sp, [1.0, -1.0])
        with pytest.raises(ValueError):
            rho_density(sp, [1.0])
        # a non-finite component is named as such, not as a bad tilt or
        # a failed quadrature
        for s in ([1.0, math.nan], [math.inf, 1.0]):
            with pytest.raises(ValueError, match='components of s'):
                rho_density(sp, s)


class TestKappaAndG:

    def test_kappa_moment_at_zero(self):
        sp = spec_gamma(dimension=1, shape=1.0)
        assert kappa(sp, [1], [0.0]) == pytest.approx(1.0, rel=1e-9)

    def test_kappa_ratio_at_zero_rate_counts(self):
        # successive-count ratio at v = 0 must equal the current count:
        # this is what collapses the urn to Dirichlet weights in d = 1
        sp = spec_gamma(dimension=1, shape=1.7)
        for n in (1, 3, 6):
            ratio = (kappa(sp, [n + 1], [0.0])
                     / kappa(sp, [n], [0.0]))
            assert ratio == pytest.approx(float(n), rel=1e-8)

    def test_g_rho_simple(self):
        # the moment kernel int s^q e^(-lam s) rho(s) ds is kappa_q(lam)
        sp = spec_gamma(dimension=1, shape=1.0)
        assert kappa(sp, [1], [1.0]) == pytest.approx(0.5, rel=1e-9)

    def test_g_rho_matches_cross_derivative(self):
        # g(1,1; lam) = -d^2 psi / d lam1 d lam2
        sp = spec_gamma(shape=2.0)
        l1, l2, h = 1.0, 1.3, 1e-4
        fd = (laplace_exponent(sp, [l1 + h, l2 + h])
              - laplace_exponent(sp, [l1 + h, l2 - h])
              - laplace_exponent(sp, [l1 - h, l2 + h])
              + laplace_exponent(sp, [l1 - h, l2 - h])) / (4.0 * h * h)
        assert kappa(sp, [1, 1], [l1, l2]) == pytest.approx(-fd, rel=1e-5)

    def test_kappa_quadrature_vs_scipy(self):
        sp = spec_gamma(shape=2.0)

        def integrand(z):
            return (z ** 3 * (1.0 + 0.8 * z) ** (-3.0)
                    * (1.0 + 1.4 * z) ** (-4.0) * (1.0 - z) / z)

        coeff = math.exp(gammaln(3.0) - gammaln(2.0)
                         + gammaln(4.0) - gammaln(2.0))
        ref = coeff * sci.quad(integrand, 0.0, 1.0)[0]
        assert kappa(sp, [1, 2], [0.8, 1.4]) == pytest.approx(ref, rel=1e-8)

    def test_kappa_divergence_guards(self):
        sp = spec_stable(dimension=1, sigma=0.5)
        with pytest.raises(ValueError):
            kappa(sp, [0], [0.0])
        with pytest.raises(ValueError):
            # stable directing has no moments without a tempering rate
            kappa(sp, [1], [0.0])


class TestLevyCopula:

    def test_margins(self):
        sp = spec_gamma(shape=1.0)
        for y in (0.3, 1.0, 2.5):
            assert levy_copula(sp, y, np.inf) == pytest.approx(y, rel=1e-6)
            assert levy_copula(sp, np.inf, y) == pytest.approx(y, rel=1e-6)

    def test_value_against_direct_tail_mass(self):
        # C(y1, y2) = bivariate tail mass above the two inverse-tail levels
        sp = spec_gamma(shape=1.0)
        x1 = marginal_intensity(sp.marginal).inverse_tail(1.0)
        x2 = x1

        def integrand(z):
            from scipy.special import gammaincc
            return gammaincc(1.0, x1 / z) * gammaincc(1.0, x2 / z) / z

        ref = sci.quad(integrand, 0.0, 1.0, limit=200)[0]
        assert levy_copula(sp, 1.0, 1.0) == pytest.approx(ref, rel=1e-8)

    def test_gg_closed_tail_keeps_values(self, monkeypatch):
        # the closed marginal tail against the quadrature tail it replaced
        from corm import core as core_mod
        sp = spec_gg(shape=2.0)
        pairs = ((0.5, 1.0), (2.0, 0.2))
        closed = [levy_copula(sp, y1, y2) for y1, y2 in pairs]
        marginal = core_mod.marginal_intensity(sp.marginal)
        monkeypatch.setattr(
            core_mod, 'marginal_intensity',
            lambda m: core_mod.LevyIntensity(
                marginal.density, marginal.support, marginal.lower_exponent,
                tail_fn=quadpack_tail(marginal.density),
                upper_rate=marginal.upper_rate))
        for (y1, y2), want in zip(pairs, closed):
            assert levy_copula(sp, y1, y2) == pytest.approx(want, rel=1e-8)

    def test_two_increasing_and_bounded(self):
        sp = spec_gamma(shape=1.0)
        pts = [0.4, 0.9, 1.6]
        vals = {(a, b): levy_copula(sp, a, b) for a in pts for b in pts}
        for a, b in vals:
            assert vals[(a, b)] <= min(a, b) + 1e-9
        inc = (vals[(1.6, 1.6)] - vals[(0.4, 1.6)]
               - vals[(1.6, 0.4)] + vals[(0.4, 0.4)])
        assert inc >= 0.0

    def test_clayton_exact_and_limits(self):
        assert clayton_copula(1.0, 0.3, 0.7) == pytest.approx(0.21, rel=1e-12)
        assert clayton_copula(200.0, 0.3, 0.7) == pytest.approx(0.3, rel=1e-3)
        assert clayton_copula(1e-3, 0.3, 0.7) < 1e-6

    @pytest.mark.parametrize('gamma_par', [1.0, 1.5])
    @pytest.mark.parametrize('y', [-0.3, math.nan, -math.inf])
    def test_clayton_rejects_bad_tail_masses(self, gamma_par, y):
        # a negative tail mass gave a negative value or a complex power,
        # a NaN passed through, and -inf returned the other mass
        for y1, y2 in ((y, 0.7), (0.7, y)):
            with pytest.raises(ValueError, match='nonnegative'):
                clayton_copula(gamma_par, y1, y2)

    def test_copula_needs_dimension_two(self):
        sp = spec_gamma(dimension=3)
        with pytest.raises(ValueError):
            levy_copula(sp, 1.0, 1.0)


class TestMixedMoments:

    def test_exponential_first_and_second(self):
        sp1 = spec_gamma(dimension=1, shape=1.0)
        assert mixed_moment(sp1, [1], 1.0) == pytest.approx(1.0, rel=1e-8)
        assert mixed_moment(sp1, [2], 1.0) == pytest.approx(2.0, rel=1e-8)

    def test_exponential_cross(self):
        sp = spec_gamma(dimension=2, shape=1.0)
        assert mixed_moment(sp, [1, 1], 1.0) == pytest.approx(1.5, rel=1e-8)

    def test_exponential_q21(self):
        # alpha = 1: 2! 1! [M3 + (M2 M1 + M1 M2) + M1^2 M2 / 2 ... ] = 11/3
        sp = spec_gamma(dimension=2, shape=1.0)
        assert mixed_moment(sp, [2, 1], 1.0) == pytest.approx(
            11.0 / 3.0, rel=1e-8)

    def test_shape_invariance_of_marginal_moments(self):
        # Table normalisation: the compound's coordinate moments depend only
        # on the marginal family, not on the score shape
        for q in ([1], [2]):
            a = mixed_moment(spec_gamma(dimension=1, shape=1.0), q, 1.0)
            b = mixed_moment(spec_gamma(dimension=1, shape=2.0), q, 1.0)
            assert a == pytest.approx(b, rel=1e-7)

    def test_mass_scaling(self):
        sp = spec_gamma(dimension=1, shape=1.0)
        assert mixed_moment(sp, [1], 2.0) == pytest.approx(2.0, rel=1e-8)

    def test_stable_moments_diverge(self):
        sp = spec_stable(dimension=1)
        with pytest.raises(ValueError):
            mixed_moment(sp, [1], 1.0)

    @pytest.mark.parametrize('mass', [0.5, 2.0])
    @pytest.mark.parametrize('n', [7, 8, 12])
    def test_gamma_rising_factorial_at_high_order(self, n, mass):
        # mu(A) is Ga(mass, 1) at d = 1, whose n-th moment is the rising
        # factorial (mass)_n = Gamma(mass + n) / Gamma(mass); orders past 6
        # need the moment-cumulant recursion, which has no order cap
        sp = spec_gamma(dimension=1, shape=1.0)
        want = math.exp(math.lgamma(mass + n) - math.lgamma(mass))
        assert mixed_moment(sp, [n], mass) == pytest.approx(
            want, rel=1e-13, abs=0.0)

    def test_exponents_must_be_integers(self):
        # int() would truncate q = (1.5, 0.5) to (1, 0) in the recursion
        # while the factorials took Gamma(2.5): a wrong value, silently
        sp = spec_gg(shape=2.0)
        for q in ([1.5, 0.5], [1.0, math.nan], [math.inf, 1.0], [-1, 2]):
            with pytest.raises(ValueError, match='nonnegative integers'):
                mixed_moment(sp, q, 0.5)
        # an integral float is an integer
        assert mixed_moment(sp, [2.0, 1.0], 0.5) == mixed_moment(
            sp, [2, 1], 0.5)


CORRELATION_TABLE = json.loads(
    Path(__file__).with_name('correlation_oracle.json').read_text())


def correlation_row(family, shape, masses=(0.5, 0.5, 0.5, 1.0)):
    (row,) = [r for r in CORRELATION_TABLE if r['family'] == family
              and r['shape'] == shape and tuple(r['masses']) == masses]
    return row


class TestCovariance:

    def test_full_overlap_is_uncorrelated_bracket(self):
        sp = spec_gamma(shape=1.0)
        assert covariance_normalized(sp, 1.0, 1.0, 1.0, 1.0) == 0.0

    def test_disjoint_is_negative(self):
        sp = spec_gamma(shape=1.0)
        got = covariance_normalized(sp, 0.4, 0.4, 0.0, 1.0)
        assert got < 0.0

    def test_exponential_half_overlap_value(self):
        sp = spec_gamma(shape=1.0)
        got = covariance_normalized(sp, 0.5, 0.5, 0.5, 1.0)
        assert got == pytest.approx(
            correlation_row('gamma', 1.0)['correlation'], abs=1e-8)

    @pytest.mark.parametrize('family, shape, masses', [
        (family, shape, (0.5, 0.5, 0.5, 1.0))
        for family in CORRELATION_FAMILIES for shape in (0.05, 100.0)] + [
        (family, 1.0, (0.05, 0.1, 0.05, 0.2))
        for family in CORRELATION_FAMILIES])
    def test_matches_quadpack_table(self, family, shape, masses):
        # the table holds nested QUADPACK at rel_tol 1e-9
        # (oracles.correlation_quadpack); the product rule matches all 30
        # of its points to 1.5e-9, and these are the ends of its range
        got = covariance_normalized(correlation_spec(family, shape), *masses)
        want = correlation_row(family, shape, masses)['correlation']
        assert got == pytest.approx(want, abs=1e-8)

    def test_table_is_the_quadpack_oracle(self):
        spec = correlation_spec('gamma', 3.0)
        assert correlation_quadpack(spec, 0.5, 0.5, 0.5, 1.0) \
            == pytest.approx(correlation_row('gamma', 3.0)['correlation'],
                             abs=1e-10)

    def test_estimate_outside_unit_interval_raises(self, monkeypatch):
        # an inaccurate variance kernel pushes the estimate past 1; it
        # must be reported, not clamped
        log_kappa = TiltRule.log_kappa

        def low_variance(rule, a):
            shift = math.log(0.1) if tuple(a) == (2, 0) else 0.0
            return log_kappa(rule, a) + shift

        monkeypatch.setattr(TiltRule, 'log_kappa', low_variance)
        sp = spec_gamma(shape=1.0)
        with pytest.raises(ValueError, match='outside'):
            covariance_normalized(sp, 0.5, 0.5, 0.5, 1.0)

    def test_coarse_step_raises(self, monkeypatch):
        # the product rule fails its sub-rule check, carrying its value
        from corm import core
        monkeypatch.setattr(core, '_CORR_STEP', 0.5)
        with pytest.raises(QuadratureError, match='disagree') as err:
            covariance_normalized(spec_gamma(shape=1.0), 0.5, 0.5, 0.5, 1.0)
        assert err.value.best.value > 0.0

    def test_mass_validation(self):
        sp = spec_gamma()
        with pytest.raises(ValueError):
            covariance_normalized(sp, 0.5, 0.5, 0.6, 1.0)
        with pytest.raises(ValueError):
            covariance_normalized(sp, 1.5, 0.5, 0.5, 1.0)


class TestIntegrate:
    '''TiltRule.log_integral, the rule behind every integral against a
    directing intensity, on the generalized-gamma one (sigma 0.3, a 1),
    against mpmath.quad.'''

    SHAPE, SIGMA = 2.0, 0.3

    @pytest.fixture(scope='class')
    def spec(self):
        return spec_gg(shape=self.SHAPE, sigma=self.SIGMA)

    @staticmethod
    def _integral(spec, log_weight, lower_power, tail_power=0.0,
                  nodes=None):
        rule = TiltRule(spec, np.zeros(spec.dimension), nodes)
        return math.exp(rule.log_integral(log_weight, lower_power,
                                          tail_power))

    def _reference(self, weight, lower=0.0, upper=1.0):
        # c z^(-1-sigma) (1 - z)^(sigma + shape - 1) on (0, 1)
        shape, sigma = self.SHAPE, self.SIGMA
        c = mpmath.exp(mpmath.log(sigma) + mpmath.loggamma(shape)
                       - mpmath.loggamma(shape + sigma)
                       - mpmath.loggamma(1 - sigma))
        with mpmath.workdps(30):
            val = mpmath.quad(
                lambda z: weight(z) * c * z ** (-1 - sigma)
                * (1 - z) ** (sigma + shape - 1), [lower, upper])
        return float(val)

    @pytest.mark.parametrize('m', [1, 2, 3])
    def test_power_weights(self, spec, m):
        got = self._integral(spec, lambda log_z: 0.0, m, m)
        assert got == pytest.approx(self._reference(lambda z: z ** m),
                                    rel=1e-9)

    def test_interior_limits(self, spec):
        # the rule truncated at an upper limit inside the support
        got = self._integral(spec, lambda log_z: 0.0, 1, 0,
                             RuleNodes(spec, 0.5))
        want = self._reference(lambda z: z, 0.0, 0.5)
        assert got == pytest.approx(want, rel=1e-9)

    def test_psi_weight(self, spec):
        lam, phi = (0.7, 2.5), self.SHAPE

        def weight(z, power=np.power):
            return 1 - power(1 + lam[0] * z, -phi) * power(1 + lam[1] * z, -phi)

        def log_weight(log_z):
            # the weight over z, which tends to lam_1 + lam_2 at 0
            z = np.exp(log_z)
            return np.log(-np.expm1(-phi * (np.log1p(lam[0] * z)
                                            + np.log1p(lam[1] * z))) / z)

        want = self._reference(lambda z: weight(z, power=mpmath.power))
        assert self._integral(spec, log_weight, 1) == pytest.approx(
            want, rel=1e-9)
        assert laplace_exponent(spec, list(lam)) == pytest.approx(want,
                                                                  rel=1e-9)

    def test_kappa_weight(self, spec):
        a, v, phi = (2, 3), (0.8, 1.4), self.SHAPE

        def weight(z, power=np.power):
            return (z ** 5 * power(1 + v[0] * z, -a[0] - phi)
                    * power(1 + v[1] * z, -a[1] - phi))

        def log_weight(log_z):
            z = np.exp(log_z)
            return (-(a[0] + phi) * np.log1p(v[0] * z)
                    - (a[1] + phi) * np.log1p(v[1] * z))

        want = self._reference(lambda z: weight(z, power=mpmath.power))
        assert self._integral(spec, log_weight, 5) == pytest.approx(
            want, rel=1e-9)
        coeff = math.exp(gammaln(a[0] + phi) + gammaln(a[1] + phi)
                         - 2.0 * gammaln(phi))
        assert kappa(spec, list(a), list(v)) == pytest.approx(coeff * want,
                                                               rel=1e-8)

    def test_divergence_and_range_errors(self, spec):
        stable = spec_stable(dimension=1, sigma=0.5)
        with pytest.raises(ValueError, match='lower endpoint'):
            self._integral(stable, lambda log_z: 0.0, 0)
        with pytest.raises(ValueError, match='tail'):
            self._integral(stable, lambda log_z: 0.0, 1, 1)
        with pytest.raises(ValueError, match='support'):
            RuleNodes(spec, 2.0)
        with pytest.raises(ValueError, match='support'):
            RuleNodes(spec, 0.0)
