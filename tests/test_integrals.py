'''Integrals against the directing intensity on TiltRule nodes, and the
QUADPACK integrals of numerics.integrate, at points where an adaptive
rule with an absolute tolerance floor returned wrong values or failed.

The oracles are closed forms, scipy's QAWS rule (quad with
weight='alg') for an algebraic end factor, and mpmath.  The paper's
closed forms of rho_d for gamma marginals (a Whittaker W) and of the
beta-directed marginal (a Kummer U), which the package computes as
mixtures on TiltRule nodes, are mpmath oracles here.  Where the
beta-type factor (1 - z)^(beta-1) is singular (beta < 1), the mpmath
oracle takes it up by the substitution 1 - z = t^(1/beta); a plain
mpmath.quad over it is itself off by 3e-5 to 4e-4.
'''

import math

import mpmath
import numpy as np
import pytest
from oracles import stable_rho
from scipy import integrate as sci
from scipy import special
from scipy.special import gammaincc

from corm.core import (
    CoRMSpec,
    MarginalFamily,
    _directing_moment,
    _rho_by_mixture,
    beta_directed_marginal,
    levy_copula,
    marginal_intensity,
    rho_density,
)
from corm.prior import _weighted_mass
from corm.slice_sampler import SliceState, update_jump_heights


def make_spec(marginal, shape, dimension=2):
    return CoRMSpec(dimension, shape, marginal)


def _gamma_rho_closed(shape, s):
    '''rho_d(s) of a gamma marginal in closed form, by 30-digit mpmath:
    at shape 1 the sum over j < d of (d-1)! / (d-1-j)! |s|^-(j+1) e^-|s|,
    and otherwise prod_j s_j^(shape-1) / Gamma(shape)^(d-1) |s|^-((d
    shape + 1) / 2) e^(-|s|/2) W_{k, mu}(|s|), k = ((d - 2) shape + 1) / 2
    and mu = d shape / 2.'''
    d = len(s)
    with mpmath.workdps(30):
        s = [mpmath.mpf(x) for x in s]
        total = mpmath.fsum(s)
        if shape == 1.0:
            return float(mpmath.fsum(
                mpmath.factorial(d - 1) / mpmath.factorial(d - 1 - j)
                * total ** -(j + 1) for j in range(d)) * mpmath.exp(-total))
        phi = mpmath.mpf(shape)
        log_pref = ((phi - 1) * mpmath.fsum(mpmath.log(x) for x in s)
                    - (d - 1) * mpmath.loggamma(phi))
        return float(mpmath.exp(log_pref - (d * phi + 1) / 2
                                * mpmath.log(total) - total / 2)
                     * mpmath.whitw(((d - 2) * phi + 1) / 2, d * phi / 2,
                                    total))


class TestRhoMixture:
    '''rho_d by the mixture integral, whose weight peaks at z = |s| / (d
    shape), near or beyond the end of a finite support, against the closed
    forms in mpmath: the gamma marginal's Whittaker form and the
    sigma-stable power law.'''

    @pytest.mark.parametrize('marginal', [MarginalFamily.gamma(),
                                          MarginalFamily.sigma_stable(0.5)])
    @pytest.mark.parametrize('shape', [0.1, 2.0, 20.0])
    @pytest.mark.parametrize('s', [(10.0, 10.0), (20.0, 30.0)])
    def test_mixture_matches_closed(self, marginal, shape, s):
        spec = make_spec(marginal, shape)
        closed = (_gamma_rho_closed(shape, s) if marginal.kind == 'gamma'
                  else stable_rho(s, shape, marginal.sigma))
        # abs=0: pytest.approx's default 1e-12 floor would pass anything
        assert _rho_by_mixture(spec, np.asarray(s)) == pytest.approx(
            closed, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize('shape', [0.5, 1.0, 2.5])
    @pytest.mark.parametrize('s', [(0.3, 0.9), (1.0, 2.0), (10.0, 20.0),
                                   (0.3, 0.9, 1.4), (1.0, 2.0, 0.5),
                                   (10.0, 20.0, 30.0)])
    def test_gamma_matches_whittaker(self, shape, s):
        spec = make_spec(MarginalFamily.gamma(), shape, dimension=len(s))
        assert rho_density(spec, s) == pytest.approx(
            _gamma_rho_closed(shape, s), rel=1e-12, abs=0.0)

    def test_generalized_gamma_default_path(self):
        # mpmath.quad at 30 digits on 800 panels of (0.01, 1), where the
        # weight e^(-50/z) is below 1e-2000 at 0.01
        spec = make_spec(MarginalFamily.generalized_gamma(0.3, 1.0), 2.0)
        assert rho_density(spec, [20.0, 30.0]) == pytest.approx(
            3.6228686731891e-24, rel=1e-12, abs=0.0)


def _beta_marginal_closed(shape, theta, s):
    '''The beta-directed marginal density Gamma(theta) / Gamma(shape)
    s^(shape-1) e^-s U(theta, shape + 1, s), by 30-digit mpmath.'''
    with mpmath.workdps(30):
        s = mpmath.mpf(s)
        return float(mpmath.exp(mpmath.loggamma(theta)
                                - mpmath.loggamma(shape)
                                + (shape - 1) * mpmath.log(s) - s)
                     * mpmath.hyperu(theta, shape + 1, s))


class TestBetaDirected:
    '''beta_directed_marginal, the mixture int z^-1 f(s / z)
    z^-1 (1 - z)^(theta-1) dz on TiltRule nodes, against the Kummer U
    closed form.  At theta 0.001 and shape 50 the closed form's U(a, b, x)
    has a t^(a-1) pole at 0 and a peak near t = 500 in its integral
    representation.'''

    @pytest.mark.parametrize('shape, theta', [
        (0.05, 0.001), (0.05, 20.0), (0.3, 0.4), (1.3, 2.2), (2.0, 0.001),
        (2.0, 5.0), (5.0, 20.0), (20.0, 0.4), (50.0, 0.001), (50.0, 20.0)])
    def test_density_vs_hyperu(self, shape, theta):
        nu = beta_directed_marginal(shape, theta)
        s = np.array([1e-3, 0.1, 2.0, 20.0])
        want = [_beta_marginal_closed(shape, theta, x) for x in s]
        assert np.allclose(nu.density(s), want, rtol=1e-12, atol=0.0)
        assert [nu.density(x) for x in s.tolist()] == nu.density(s).tolist()

    @pytest.mark.parametrize('shape, theta, x', [
        (0.05, 0.4, 1e-3), (1.3, 2.2, 0.5), (2.0, 0.001, 0.1),
        (20.0, 5.0, 15.0)])
    def test_tail_vs_quadpack(self, shape, theta, x):
        # QUADPACK in log s of the closed density, to s = x + 50, past
        # which e^-s leaves below e^-50 of the tail
        def f(u):
            return _beta_marginal_closed(shape, theta, math.exp(u)) \
                * math.exp(u)

        edges = np.linspace(math.log(x), math.log(x + 50.0), 5)
        want = sum(sci.quad(f, a, b, epsabs=0.0, epsrel=1e-12)[0]
                   for a, b in zip(edges[:-1], edges[1:]))
        nu = beta_directed_marginal(shape, theta)
        assert nu.tail_integral(x) == pytest.approx(want, rel=1e-9, abs=0.0)


def _gamma_copula_oracle(shape, xs):
    '''int z^-1 (1 - z)^(shape-1) prod_j Q(shape, x_j / z) dz by QUADPACK
    on panels: in log z on (0, 1/2), and in t = (1 - z)^shape on (1/2, 1).
    It agrees with 20-digit mpmath.quad on the same panels within 4.5e-16
    at the six test_gamma_singular_end cases, in under a hundredth of
    the time.'''
    def survival(z):
        return math.prod(gammaincc(shape, x / z) for x in xs)

    def quad(f, edges):
        return sum(sci.quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                   for a, b in zip(edges[:-1], edges[1:]))

    lx = [math.log(x) for x in xs]
    top = math.log(0.5)
    low = quad(lambda u: (-math.expm1(u)) ** (shape - 1.0)
               * survival(math.exp(u)),
               [p for p in np.linspace(min(lx) - 12, max(lx) + 4, 33)
                if p < top] + [top])
    t_mid = 0.5 ** shape

    def high(t):
        # (1 - z)^(shape-1) dz = -dt / shape with 1 - z = t^(1/shape)
        z = 1.0 - t ** (1.0 / shape)
        return survival(z) / z / shape

    return low + quad(high, [0.0, t_mid / 4, t_mid / 2, t_mid])


class TestLevyCopula:

    @pytest.mark.parametrize('shape, want', [(2.0, 29.99999999677101),
                                             (20.0, 29.99999999986249)])
    def test_gamma_far_tail(self, shape, want):
        # y = 40 puts the smaller level at x = 2.4e-18; the references are
        # mpmath in log z
        spec = make_spec(MarginalFamily.gamma(), shape)
        assert levy_copula(spec, 30.0, 40.0) == pytest.approx(want,
                                                              rel=1e-12)

    @pytest.mark.parametrize('shape', [0.05, 0.1, 0.4])
    @pytest.mark.parametrize('ys', [(0.5, 2.0), (5.0, 5.0)])
    def test_gamma_singular_end(self, shape, ys):
        # beta = shape < 1: (1 - z)^(shape-1) is unbounded at 1
        spec = make_spec(MarginalFamily.gamma(), shape)
        marginal = marginal_intensity(spec.marginal)
        xs = [float(marginal.inverse_tail(y)) for y in ys]
        assert levy_copula(spec, *ys) == pytest.approx(
            _gamma_copula_oracle(shape, xs), rel=1e-10)


    @pytest.mark.parametrize('shape', [0.05, 0.1, 2.0])
    @pytest.mark.parametrize('ys', [(0.5, 2.0), (0.01, 0.02), (1.0, np.inf)])
    def test_stable_slow_tail(self, shape, ys):
        # on (0, inf) the survival factors approach 1 as 1 - (x/z)^shape
        # / Gamma(shape + 1): at shape 0.05 not within 1e-17 below
        # z = 1e340 x.  The oracle is QUADPACK in log z.
        spec = make_spec(MarginalFamily.sigma_stable(0.5), shape)
        marginal = marginal_intensity(spec.marginal)
        xs = [float(marginal.inverse_tail(y)) for y in ys if np.isfinite(y)]
        c = spec.directing.density(1.0)

        def f(u):
            return c * math.exp(-0.5 * u) * math.prod(
                gammaincc(shape, x * math.exp(-u)) for x in xs)

        edges = np.linspace(math.log(min(xs)) - 8, math.log(max(xs)) + 8, 17)
        want = sum(sci.quad(f, a, b, epsabs=0.0, epsrel=1e-13)[0]
                   for a, b in zip(edges[:-1], edges[1:]))
        want += sci.quad(f, edges[-1], np.inf, epsabs=0.0, epsrel=1e-13)[0]
        assert levy_copula(spec, *ys) == pytest.approx(want, rel=1e-12,
                                                       abs=0.0)


class TestDirectingMoments:
    '''int z^m nu*(z) dz = c a^(sigma-m) B(m - sigma, beta) and W(x) =
    int_0^x z nu*(z) dz = c a^(sigma-1) B(a x; 1 - sigma, beta) for the
    beta-type intensities c z^(-1-sigma) (1 - a z)^(beta-1).'''

    FAMILIES = [MarginalFamily.gamma(),
                MarginalFamily.generalized_gamma(0.3, 1.0),
                MarginalFamily.generalized_gamma(0.5, 2.5)]

    @staticmethod
    def _beta_type(marginal, shape):
        if marginal.kind == 'gamma':
            return 1.0, 0.0, 1.0, shape
        sigma = marginal.sigma
        c = sigma * math.exp(math.lgamma(shape) - math.lgamma(shape + sigma)
                             - math.lgamma(1.0 - sigma))
        return c, sigma, marginal.a, sigma + shape

    @pytest.mark.parametrize('marginal', FAMILIES)
    @pytest.mark.parametrize('shape', [0.05, 0.1, 0.4, 2.0, 20.0])
    def test_moments_and_weighted_mass(self, marginal, shape):
        spec = make_spec(marginal, shape)
        c, sigma, a, beta = self._beta_type(marginal, shape)
        for m in range(1, 7):
            want = c * a ** (sigma - m) * special.beta(m - sigma, beta)
            assert _directing_moment(spec, m) == pytest.approx(
                want, rel=1e-12, abs=0.0)
        for x in (1e-8, 1e-3, 0.3 / a, 0.5 / a):
            want = (c * a ** (sigma - 1.0) * special.beta(1.0 - sigma, beta)
                    * special.betainc(1.0 - sigma, beta, a * x))
            assert _weighted_mass(spec, x) == pytest.approx(
                want, rel=1e-12, abs=0.0)


class TestSteepTilt:
    '''The slice sampler's jump-height conditional nu*(z) e^(-w (z -
    low)) on (low, 1) for gamma at shape 0.1 and w = 1000, where most of
    the mass lies within 1e-3 of low: its normaliser by QAWS against a
    known value, and the mean and variance of 4,000 update_jump_heights
    draws against the QAWS moments.'''

    SHAPE, W, N = 0.1, 1000.0, 4000

    def _qaws(self, low, power):
        # z^power z^-1 e^(-w (z - low)) against the QAWS weight
        # (1 - z)^(shape-1)
        return sci.quad(lambda z: z ** (power - 1.0)
                        * math.exp(-self.W * (z - low)), low, 1.0,
                        weight='alg', wvar=(0.0, self.SHAPE - 1.0),
                        epsabs=0.0, epsrel=1e-13, limit=200)[0]

    @pytest.mark.parametrize('low, approx', [(1e-3, 0.597249),
                                             (0.05, 0.020561),
                                             (0.3, 0.00458572)])
    def test_against_qaws(self, low, approx):
        spec = make_spec(MarginalFamily.gamma(), self.SHAPE, dimension=1)
        mass = self._qaws(low, 0)
        assert mass == pytest.approx(approx, rel=1e-5, abs=0.0)
        mean = self._qaws(low, 1) / mass
        var = self._qaws(low, 2) / mass - mean ** 2
        # one member with slice low on jump 0, the rest a pool, unit
        # scores and v = w: every jump is redrawn at tilt w above low
        state = SliceState(
            allocations=[np.array([0])],
            counts=np.vstack([[1], np.zeros((self.N - 1, 1), dtype=int)]),
            jumps=np.full(self.N, 0.5 * (1.0 + low)),
            scores=np.ones((self.N, 1)), atoms=[None] * self.N,
            u=[np.array([low])], v=np.array([self.W]), shape=self.SHAPE)
        update_jump_heights(state, spec, np.random.default_rng(4200))
        z = state.jumps
        assert np.all((low < z) & (z < 1.0))
        assert abs(z.mean() - mean) < 4.0 * math.sqrt(var / self.N)
        # the sample variance's standard error, from the fourth moment
        # about the mean
        fourth = np.mean((z - mean) ** 4)
        assert abs(z.var(ddof=1) - var) \
            < 4.0 * math.sqrt((fourth - var ** 2) / self.N)
