'''
One-dimensional quadrature that is not against a directing intensity.

Integrals against a directing intensity nu* run on the trapezoid nodes of
core.TiltRule, and so do the mixtures over nu* that give rho_d and the
beta-directed marginal intensity; the paper's closed forms of those (the
Whittaker, Kummer and Bessel functions) are oracles in the tests, not
library code.  integrate, a thin wrapper of QUADPACK's adaptive rules
(scipy.integrate.quad) that turns its warnings into QuadratureError,
stays for the integrals that have no nu* to run on: the lambda integrals
of core.covariance_normalized.  Its other user is the benchmark's
tracer, which wraps it as a probe.

Importing corm loads numpy only.  scipy is imported inside the functions
that call it, on their first call: scipy.integrate by integrate,
scipy.stats by the inverse-Wishart draw of kernels, and scipy.special by
the beta-type tail's hypergeometric branch (above its series switch),
the marginals' own intensities, the beta-directed marginal's tail and
levy_copula in core.  On a 2-vCPU host (python -X importtime) numpy
takes about 0.1 s to import, scipy.special about 0.25 s more, and
scipy.integrate, which loads scipy.optimize, scipy.linalg and
scipy.sparse, more again.  A spec build, the marginal (urn) sampler,
prior draws and the slice sampler (its start state and its sweeps, whose
tail calls stay on the series branch) call none of them, so a process
that only runs them pays for numpy alone.
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
