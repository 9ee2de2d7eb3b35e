"""Quadrature and special-function checks against independent references.

Reference values were computed with mpmath at 30 significant digits or come
from closed forms (half-integer Bessel, U(a, a+1, x) = x**-a, exponential
integrals).  Nothing here calls back into the quadrature under test to
produce its own expected value.
"""

import numpy as np
import pytest
from scipy.special import exp1, gamma, kv

from corm.numerics import (
    IntegralResult,
    QuadratureError,
    bessel_k,
    integrate,
    kummer_u,
    whittaker_w,
)


class TestIntegrate:
    '''The QUADPACK wrapper used for the integrals that are not against a
    directing intensity.'''

    def test_polynomial_exact(self):
        r = integrate(lambda z: 3.0 * z**2, 0.0, 1.0)
        assert isinstance(r, IntegralResult)
        assert r.value == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("case", ["lower", "upper", "both"])
    def test_endpoint_singularity(self, case):
        # int_0^1 z^(-1/2) dz = int_0^1 (1-z)^(-1/2) dz = 2, and the
        # Beta(1/2, 1/2) integral int_0^1 z^(-1/2) (1-z)^(-1/2) dz = pi
        f, want = {
            "lower": (lambda z: z**-0.5, 2.0),
            "upper": (lambda z: (1.0 - z) ** -0.5, 2.0),
            "both": (lambda z: z**-0.5 * (1.0 - z) ** -0.5, np.pi),
        }[case]
        assert integrate(f, 0.0, 1.0).value == pytest.approx(want, rel=1e-10)

    def test_inverse_sqrt_without_hint_still_converges(self):
        r = integrate(lambda z: z**-0.5, 0.0, 1.0, rel_tol=1e-6)
        assert r.value == pytest.approx(2.0, rel=1e-5)

    def test_exponential_tail(self):
        r = integrate(lambda z: np.exp(-z), 0.0, np.inf)
        assert r.value == pytest.approx(1.0, rel=1e-10)

    @pytest.mark.parametrize("sigma", [0.3, 0.5, 0.8])
    def test_stable_exponent_shape(self, sigma):
        # int_0^inf (1 - (1+z)^-2) z^(-1-sigma) dz
        #   = Gamma(1-sigma) Gamma(2+sigma) / sigma
        # (mix of exponentials with Ga(2,1) weights; the single-exponential
        # case integrates to Gamma(1-sigma)/sigma * t**sigma).
        expected = gamma(1.0 - sigma) * gamma(2.0 + sigma) / sigma

        def f(z):
            return -np.expm1(-2.0 * np.log1p(z)) * z ** (-1.0 - sigma)

        r = integrate(f, 0.0, np.inf, rel_tol=1e-9)
        assert r.value == pytest.approx(expected, rel=1e-9)

    def test_tolerance_is_honoured(self):
        # Reference: int_0^inf exp(-z) cos(4 z) dz = 1/17.
        f = lambda z: np.exp(-z) * np.cos(4.0 * z)
        loose = integrate(f, 0.0, np.inf, rel_tol=1e-5)
        tight = integrate(f, 0.0, np.inf, rel_tol=1e-11)
        assert loose.value == pytest.approx(1.0 / 17.0, rel=1e-5)
        assert tight.value == pytest.approx(1.0 / 17.0, rel=1e-11)
        assert tight.error_estimate <= 1e-11 * tight.value
        assert tight.evaluations >= loose.evaluations

    def test_small_integral_is_resolved_relative_to_itself(self):
        # no absolute floor: int_0^1 1e-30 z^2 dz = 1e-30 / 3
        r = integrate(lambda z: 1e-30 * z**2, 0.0, 1.0, rel_tol=1e-12)
        assert r.value == pytest.approx(1e-30 / 3.0, rel=1e-12)

    def test_nan_raises(self):
        def f(z):
            return np.where(z > 0.5, np.nan, 1.0)

        with pytest.raises(QuadratureError):
            integrate(f, 0.0, 1.0)

    def test_budget_exhaustion(self):
        # QUADPACK's subdivision limit: the warning becomes an error that
        # carries the estimate reached
        def f(z):
            return np.cos(2000.0 / (z + 1e-3)) / (z + 1e-3)

        with pytest.raises(QuadratureError) as err:
            integrate(f, 0.0, 1.0)
        assert isinstance(err.value.best, IntegralResult)

    def test_divergent_integral_raises(self):
        with pytest.raises(QuadratureError):
            integrate(lambda z: 1.0 / z, 0.0, 1.0)

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            integrate(lambda z: z, 1.0, 0.0)


class TestBesselK:
    def test_half_order_closed_form(self):
        # K_{1/2}(x) = sqrt(pi / (2x)) exp(-x)
        for x in [0.1, 0.5, 1.0, 2.0, 7.5]:
            expected = np.sqrt(np.pi / (2.0 * x)) * np.exp(-x)
            assert bessel_k(0.5, x) == pytest.approx(expected, rel=1e-12)

    def test_order_symmetry(self):
        assert bessel_k(-1.3, 0.8) == pytest.approx(bessel_k(1.3, 0.8), rel=1e-13)

    def test_positive_argument_required(self):
        with pytest.raises(ValueError):
            bessel_k(1.0, 0.0)


class TestKummerU:
    # (a, b, x) -> U(a, b, x), mpmath hyperu at 30 digits
    REFERENCE = [
        (0.3, 1.7, 0.5, 1.4365547793458837),
        (1.0, 1.0, 1.0, 0.59634736232319407),
        (2.5, 1.2, 0.7, 0.17427498868788163),
        (0.3, 4.0, 2.0, 1.3675469716242222),
        (5.0, 2.0, 3.0, 0.00016417605437473276),
        (-0.5, 1.3, 0.8, 0.46575572575712205),
        (-1.5, -0.5, 1.2, 1.3145341380123986),
        (-2.3, 1.5, 1.8, -1.3676937833366374),
        (-4.7, 0.4, 2.5, 6.8570964329214316),
        (0.0, 2.0, 1.0, 1.0),
    ]

    @pytest.mark.parametrize("a,b,x,expected", REFERENCE)
    def test_reference_grid(self, a, b, x, expected):
        assert kummer_u(a, b, x) == pytest.approx(expected, rel=1e-9)

    def test_exponential_integral_identity(self):
        # U(1, 1, x) = exp(x) E_1(x)
        for x in [0.2, 1.0, 3.0, 8.0]:
            assert kummer_u(1.0, 1.0, x) == pytest.approx(
                np.exp(x) * exp1(x), rel=1e-10
            )

    def test_power_identity(self):
        # U(a, a+1, x) = x^-a, any a
        for a in [0.7, 2.3, -1.5]:
            for x in [0.4, 1.0, 5.0]:
                assert kummer_u(a, a + 1.0, x) == pytest.approx(
                    x**-a, rel=1e-9
                )

    def test_positive_argument_required(self):
        with pytest.raises(ValueError):
            kummer_u(1.0, 1.0, -1.0)


class TestWhittakerW:
    # (k, mu, x) -> W_{k,mu}(x), mpmath whitw at 30 digits
    REFERENCE = [
        (0.0, 0.5, 2.0, 0.36787944117144232),
        (0.5, 1.0, 1.5, 0.96421418814413721),
        (-1.0, 0.3, 0.7, 0.30315032747671687),
        (1.5, -0.8, 2.5, 0.94933960929430997),
        (2.0, 0.0, 4.0, 0.98470454041043019),
    ]

    @pytest.mark.parametrize("k,mu,x,expected", REFERENCE)
    def test_reference_grid(self, k, mu, x, expected):
        assert whittaker_w(k, mu, x) == pytest.approx(expected, rel=1e-9)

    def test_bessel_identity(self):
        # W_{0,nu}(2z) = sqrt(2z/pi) K_nu(z)
        for nu, z in [(0.3, 0.5), (1.2, 2.0), (2.5, 1.0)]:
            lhs = whittaker_w(0.0, nu, 2.0 * z)
            rhs = np.sqrt(2.0 * z / np.pi) * kv(nu, z)
            assert lhs == pytest.approx(rhs, rel=1e-9)
