'''Integrals against the directing intensity on TiltRule nodes, and the
QUADPACK integrals of numerics.integrate, at points where an adaptive
rule with an absolute tolerance floor returned wrong values or failed.

The oracles are closed forms, scipy's QAWS rule (quad with
weight='alg') for an algebraic end factor, and mpmath.  Where the
beta-type factor (1 - z)^(beta-1) is singular (beta < 1), the mpmath
oracle takes it up by the substitution 1 - z = t^(1/beta); a plain
mpmath.quad over it is itself off by 3e-5 to 4e-4.
'''

import math

import mpmath
import numpy as np
import pytest
from scipy import integrate as sci
from scipy import special
from scipy.special import gammaincc

from corm.core import (
    CoRMSpec,
    MarginalFamily,
    RuleNodes,
    TiltRule,
    _directing_moment,
    levy_copula,
    marginal_intensity,
    rho_density,
)
from corm.numerics import kummer_u
from corm.prior import _weighted_mass


def make_spec(marginal, shape, dimension=2):
    return CoRMSpec.from_marginal(dimension, shape, marginal, verify=False)


class TestRhoMixture:
    '''rho_d by the mixture integral, whose weight peaks at z = |s| / (d
    shape), near or beyond the end of a finite support.'''

    @pytest.mark.parametrize('marginal', [MarginalFamily.gamma(),
                                          MarginalFamily.sigma_stable(0.5)])
    @pytest.mark.parametrize('shape', [0.1, 2.0, 20.0])
    @pytest.mark.parametrize('s', [(10.0, 10.0), (20.0, 30.0)])
    def test_mixture_matches_closed(self, marginal, shape, s):
        spec = make_spec(marginal, shape)
        closed = rho_density(spec, s, method='closed')
        # abs=0: pytest.approx's default 1e-12 floor would pass anything
        assert rho_density(spec, s, method='mixture') == pytest.approx(
            closed, rel=1e-12, abs=0.0)

    def test_generalized_gamma_default_path(self):
        # mpmath.quad at 30 digits on 800 panels of (0.01, 1), where the
        # weight e^(-50/z) is below 1e-2000 at 0.01
        spec = make_spec(MarginalFamily.generalized_gamma(0.3, 1.0), 2.0)
        assert rho_density(spec, [20.0, 30.0]) == pytest.approx(
            3.6228686731891e-24, rel=1e-12, abs=0.0)


def _gamma_copula_oracle(shape, xs):
    '''int z^-1 (1 - z)^(shape-1) prod_j Q(shape, x_j / z) dz by mpmath:
    in log z on (0, 1/2), and in t = (1 - z)^shape on (1/2, 1).'''
    with mpmath.workdps(20):
        phi = mpmath.mpf(shape)

        def survival(z):
            return mpmath.fprod(mpmath.gammainc(phi, x / z, mpmath.inf,
                                                regularized=True)
                                for x in xs)

        lx = [mpmath.log(x) for x in xs]
        top = mpmath.log(0.5)
        points = [p for p in mpmath.linspace(min(lx) - 12, max(lx) + 4, 33)
                  if p < top] + [top]
        low = mpmath.quad(lambda u: (1 - mpmath.exp(u)) ** (phi - 1)
                          * survival(mpmath.exp(u)), points)
        t_mid = mpmath.mpf(0.5) ** phi
        # (1 - z)^(shape-1) dz = -dt / shape with 1 - z = t^(1/shape)
        high = mpmath.quad(
            lambda t: survival(1 - t ** (1 / phi)) / (1 - t ** (1 / phi))
            / phi, [0, t_mid / 4, t_mid / 2, t_mid])
        return float(low + high)


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
        xs = [mpmath.mpf(float(marginal.inverse_tail(y))) for y in ys]
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
    '''int_low^1 nu*(z) e^(-w (z - low)) dz on the interval rule, the
    slice sampler's jump-height normaliser, for gamma at shape 0.1 and
    w = 1000: most of the mass lies within 1e-3 of low.'''

    SHAPE, W = 0.1, 1000.0

    @pytest.mark.parametrize('low, approx', [(1e-3, 0.597249),
                                             (0.05, 0.020561),
                                             (0.3, 0.00458572)])
    def test_against_qaws(self, low, approx):
        spec = make_spec(MarginalFamily.gamma(), self.SHAPE, dimension=1)
        rule = TiltRule(spec, [0.0], RuleNodes(spec, 1.0, lower=low))
        got = math.exp(rule.log_integral(
            lambda log_z: -self.W * (np.exp(log_z) - low), 0))
        # z^-1 e^(-w (z - low)) against the QAWS weight (1 - z)^(shape-1)
        want = sci.quad(lambda z: math.exp(-self.W * (z - low)) / z, low,
                        1.0, weight='alg', wvar=(0.0, self.SHAPE - 1.0),
                        epsabs=0.0, epsrel=1e-13, limit=200)[0]
        assert want == pytest.approx(approx, rel=1e-5, abs=0.0)
        assert got == pytest.approx(want, rel=1e-10, abs=0.0)


def test_kummer_u_small_a_large_b():
    # reached by marginal_from_directing('beta', 50, theta=0.001):
    # t^(a-1) with a = 0.001 on (0, 1), then a peak near t = 500
    want = float(mpmath.hyperu(0.001, 51, 0.1))
    assert kummer_u(0.001, 51.0, 0.1) == pytest.approx(want, rel=1e-10)
