'''
One-dimensional quadrature that is not against a directing intensity.

Every integral in the package runs on the trapezoid nodes of
core.TiltRule, the correlation of the normalised measures included (one
TiltRule a node of its product rule).  integrate, a thin wrapper of
QUADPACK's adaptive rules (scipy.integrate.quad) that turns its warnings
into QuadratureError, has no library caller: the benchmark's tracer
wraps it as a probe.

Importing corm loads numpy only.  scipy is imported inside the functions
that call it, on their first call: scipy.integrate (which loads
scipy.optimize, scipy.linalg and scipy.sparse) by integrate, scipy.stats
by the inverse-Wishart draw of kernels, and scipy.special (about 0.25 s
on a 2-vCPU host, against numpy's 0.1 s) by the beta-type tail above its
series switch, the marginals' own intensities, the beta-directed
marginal's tail and levy_copula.  A spec build, the samplers and prior
draws call none of them.
'''

import math
from dataclasses import dataclass

__all__ = ['IntegralResult', 'QuadratureError', 'integrate']


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
    from scipy.integrate import quad  # on first use: see the module notes
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
