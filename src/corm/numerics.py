'''
One-dimensional quadrature that is not against a directing intensity, and
the special functions needed by the intensity formulas.

Integrals against a directing intensity nu* run on the trapezoid nodes of
core.TiltRule.  Everything else (the lambda integrals of
core.covariance_normalized, the exponential integral behind kummer_u, and
the tail of an intensity given without a closed tail) goes through
integrate, a thin wrapper of QUADPACK's adaptive rules (scipy.integrate.quad)
that turns its warnings into QuadratureError.
'''

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp
from scipy.integrate import quad

__all__ = [
    'IntegralResult', 'QuadratureError',
    'integrate', 'bessel_k', 'kummer_u', 'whittaker_w',
]


@dataclass(frozen=True)
class IntegralResult:
    value: float
    error_estimate: float
    evaluations: int


class QuadratureError(RuntimeError):
    '''Raised when a quadrature cannot meet its accuracy check.  Carries
    the best estimate reached in .best (an IntegralResult).'''

    def __init__(self, message, best):
        super().__init__(message)
        self.best = best


def integrate(f, lower, upper, rel_tol=1e-10):
    '''
    int_lower^upper f(z) dz for a scalar integrand f, upper possibly
    numpy.inf, by scipy.integrate.quad at relative tolerance rel_tol (its
    epsrel) and no absolute floor (epsabs = 0), so a small integral is
    resolved relative to its own size.

    Returns an IntegralResult.  Raises ValueError on an empty interval and
    QuadratureError, carrying the result, when QUADPACK reports trouble
    (subdivision limit, roundoff, divergence) or the value is not finite.
    '''
    if not upper > lower:
        raise ValueError('empty or inverted interval (%r, %r)' % (lower, upper))
    out = quad(f, lower, upper, epsabs=0.0, epsrel=rel_tol, full_output=1)
    result = IntegralResult(out[0], out[1], out[2]['neval'])
    # with full_output quad returns its warning as a fourth item
    if len(out) > 3 or not math.isfinite(result.value):
        raise QuadratureError(
            'quadrature on (%r, %r) failed (estimate %r, error %r): %s'
            % (lower, upper, result.value, result.error_estimate,
               out[3] if len(out) > 3 else 'non-finite value'), result)
    return result


# ---------------------------------------------------------------------------
# Special functions
# ---------------------------------------------------------------------------

def bessel_k(order, x):
    '''Modified Bessel function of the second kind, K_order(x), x > 0.'''
    if np.any(np.asarray(x) <= 0.0):
        raise ValueError('bessel_k requires x > 0')
    return _sp.kv(abs(order), x)


def _kummer_u_integral(a, b, x, rel_tol=1e-11):
    '''U(a,b,x) for a > 0 from its exponential integral representation
    int_0^inf t^(a-1) (1+t)^(b-a-1) e^(-x t) dt / Gamma(a).'''
    la = _sp.gammaln(a)

    def rest(t):
        return math.exp(-x * t + (b - a - 1.0) * math.log1p(t) - la)

    if a < 1.0:
        # t = s^(1/a) takes up the t^(a-1) pole on (0, 1)
        head = integrate(lambda s: rest(s ** (1.0 / a)), 0.0, 1.0,
                         rel_tol).value / a
    else:
        head = integrate(lambda t: rest(t) * t ** (a - 1.0), 0.0, 1.0,
                         rel_tol).value

    def tail(s):
        # t = s / x, which puts the peak of the integrand near s = b - 2
        t = s / x
        return math.exp((a - 1.0) * math.log(t) + (b - a - 1.0) * math.log1p(t)
                        - s - la) / x

    return head + integrate(tail, x, math.inf, rel_tol).value


def kummer_u(a, b, x):
    '''
    Confluent hypergeometric function of the second kind U(a, b, x), x > 0.

    For a > 0 this is the exponential integral representation; for a <= 0 it
    is continued with the three-term recurrence in a, seeded from two
    integral evaluations.
    '''
    a, b, x = float(a), float(b), float(x)
    if x <= 0.0:
        raise ValueError('kummer_u requires x > 0')
    if a > 0.0:
        return _kummer_u_integral(a, b, x)
    if a == 0.0:
        return 1.0
    steps = int(math.ceil(-a))
    a0 = a + steps  # in (0, 1], or 0 when a is a nonpositive integer
    if steps > 400:
        raise ValueError('kummer_u: a = %r too negative for stable recurrence' % a)
    if a0 == 0.0:
        u_mid, u_hi = 1.0, _kummer_u_integral(1.0, b, x)
        a_cur = 0.0
    else:
        u_mid = _kummer_u_integral(a0, b, x)
        u_hi = _kummer_u_integral(a0 + 1.0, b, x)
        a_cur = a0
    # downward in a: U(a-1) = (2a - b + x) U(a) - a (1 + a - b) U(a+1)
    while a_cur > a:
        u_lo = (2.0 * a_cur - b + x) * u_mid - a_cur * (1.0 + a_cur - b) * u_hi
        u_hi, u_mid = u_mid, u_lo
        a_cur -= 1.0
    return u_mid


def whittaker_w(k, mu, x):
    '''
    Whittaker function W_{k, mu}(x), x > 0.  Symmetric in the sign of mu;
    evaluated through U with the positive choice so the first argument of U
    stays as large as possible.
    '''
    x = float(x)
    if x <= 0.0:
        raise ValueError('whittaker_w requires x > 0')
    am = abs(float(mu))
    u = kummer_u(am - k + 0.5, 1.0 + 2.0 * am, x)
    return math.exp(-0.5 * x + (am + 0.5) * math.log(x)) * u
