"""Quadrature checks against independent references.

Reference values come from closed forms (polynomials, Beta and Gamma
functions).  Nothing here calls back into the quadrature under test to
produce its own expected value.
"""

import numpy as np
import pytest
from scipy.special import gamma

from corm.numerics import (
    IntegralResult,
    QuadratureError,
    integrate,
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
