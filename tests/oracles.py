'''Closed forms from the paper that the library does not compute, kept as
references for the tests.

The marginals that gamma and generalized-gamma directing intensities
induce under Ga(shape) scores are Bessel-K densities, and their tails
have no closed form: quadpack_tail gives one by QUADPACK.  The
multivariate intensity rho_d of a sigma-stable marginal is a power law of
|s|.  Under exponential scores the Laplace exponent has a
partial-fraction form in the univariate exponent, differentiated here by
sympy.  The correlation of the normalised measures has a second rule,
nested QUADPACK over the tilts (correlation_quadpack): `PYTHONPATH=src
python tests/oracles.py` writes its values at rel_tol 1e-9 to
tests/correlation_oracle.json.
'''

import json
import math
import sys
from pathlib import Path

import mpmath
import numpy as np
from scipy import integrate
from scipy.special import kv

from corm.core import CoRMSpec, MarginalFamily, TiltRule, marginal_exponent


def gamma_directed_marginal(s, shape):
    '''rho(s) = 2 / Gamma(shape) s^(shape/2 - 1) K_shape(2 sqrt(s)), the
    marginal intensity that the gamma directing intensity z^-1 e^-z
    induces under Ga(shape) scores.'''
    s = np.asarray(s, dtype=float)
    return 2.0 / math.gamma(shape) * s ** (0.5 * shape - 1.0) \
        * kv(shape, 2.0 * np.sqrt(s))


def gg_directed_marginal(s, shape, sigma, a):
    '''The marginal intensity that the generalized-gamma directing
    intensity sigma / Gamma(1 - sigma) z^(-1-sigma) e^(-a z) induces under
    Ga(shape) scores:
    2 sigma a^((sigma+shape)/2) / (Gamma(1 - sigma) Gamma(shape))
    s^((shape-sigma)/2 - 1) K_(sigma+shape)(2 sqrt(a s)).'''
    s = np.asarray(s, dtype=float)
    lc = (math.log(2.0 * sigma) - math.lgamma(1.0 - sigma)
          - math.lgamma(shape) + 0.5 * (sigma + shape) * math.log(a))
    return np.exp(lc + (0.5 * (shape - sigma) - 1.0) * np.log(s)) \
        * kv(sigma + shape, 2.0 * np.sqrt(a * s))


def stable_rho(s, shape, sigma):
    '''rho_d(s) of a sigma-stable marginal under Ga(shape) scores, by
    30-digit mpmath: prod_j s_j^(shape-1) / Gamma(shape)^(d-1) sigma
    Gamma(sigma + d shape) / (Gamma(shape + sigma) Gamma(1 - sigma))
    |s|^-(sigma + d shape).'''
    d = len(s)
    with mpmath.workdps(30):
        s = [mpmath.mpf(float(x)) for x in s]
        phi, sig = mpmath.mpf(shape), mpmath.mpf(sigma)
        return float(mpmath.exp(
            (phi - 1) * mpmath.fsum(mpmath.log(x) for x in s)
            - (d - 1) * mpmath.loggamma(phi) + mpmath.log(sig)
            + mpmath.loggamma(sig + d * phi) - mpmath.loggamma(phi + sig)
            - mpmath.loggamma(1 - sig)
            - (sig + d * phi) * mpmath.log(mpmath.fsum(s))))


def quadpack_tail(density):
    '''U(x) = int_x^inf density, elementwise over an array of x, by
    QUADPACK in log z, where a power-law density is tame over the many
    decades above a small x; relative tolerance 1e-10 and no absolute
    floor.  A QUADPACK warning fails the test session.'''
    def g(t):
        return float(density(math.exp(t))) * math.exp(t) if t < 700.0 \
            else 0.0

    def one(x):
        return integrate.quad(g, math.log(x), np.inf, epsabs=0.0,
                              epsrel=1e-10)[0]

    return np.vectorize(one, otypes=[float])


def laplace_exponent_exponential_closed(psi1, lam_tilde, counts):
    '''
    Closed form of the multivariate exponent for exponential scores
    (shape 1), from the univariate exponent psi1 by partial fractions:

        psi(lam) = prod_i [1/(n_i - 1)!] d^(n_i-1)/d lam_i^(n_i-1)
                   [ Upsilon_l(lam) prod_i lam_i^(n_i-1) ],
        Upsilon_l(lam) = sum_i a_i psi1(lam_i),
        a_i = lam_i^(l-1) / prod_{j != i} (lam_i - lam_j).

    lam_tilde holds the l distinct rates and counts their multiplicities
    n_i.  psi1 must be built from arithmetic and sympy functions to be
    differentiated analytically, e.g. lambda x: sympy.log(1 + x).
    '''
    import sympy as sp

    lam = [float(v) for v in lam_tilde]
    counts = [int(n) for n in counts]
    if len(lam) != len(counts) or any(n < 1 for n in counts):
        raise ValueError('counts must be positive and match lam_tilde')
    if all(v == 0.0 for v in lam):
        return 0.0
    if len(set(lam)) != len(lam):
        raise ValueError('lam_tilde values must be distinct; '
                         'merge repeats into counts')
    l = len(lam)
    xs = sp.symbols('x0:%d' % l, positive=True)
    ups = sp.Integer(0)
    for i in range(l):
        a_i = xs[i] ** (l - 1)
        for j in range(l):
            if j != i:
                a_i = a_i / (xs[i] - xs[j])
        ups = ups + a_i * psi1(xs[i])
    expr = ups
    for i in range(l):
        expr = expr * xs[i] ** (counts[i] - 1)
    for i in range(l):
        if counts[i] > 1:
            expr = sp.diff(expr, xs[i], counts[i] - 1) / math.factorial(counts[i] - 1)
    value = expr.subs({xs[i]: sp.Rational(str(lam[i])) for i in range(l)})
    return float(sp.N(value, 30))


def tilted_second_moment(marginal, lam):
    '''m2(lam) = int s^2 e^(-lam s) rho(s) ds over the marginal intensity
    rho.'''
    lam = np.asarray(lam, dtype=float)
    if marginal.kind == 'gamma':
        return (1.0 + lam) ** -2.0
    s = marginal.sigma
    if marginal.kind == 'sigma-stable':
        return s * (1.0 - s) * lam ** (s - 2.0)
    return s * (1.0 - s) * (marginal.a + lam) ** (s - 2.0)


def _quad(f, lower, upper, rel_tol):
    out = integrate.quad(f, lower, upper, epsabs=0.0, epsrel=rel_tol,
                         full_output=1)
    # with full_output quad returns its warning as a fourth item
    if len(out) > 3 or not math.isfinite(out[0]):
        raise RuntimeError('quadrature on (%r, %r) failed: %s'
                           % (lower, upper, out[3:]))
    return out[0]


def correlation_quadpack(spec, mass_a, mass_b, mass_ab, total_mass,
                         rel_tol=1e-9):
    '''Corr(P_1(A), P_2(B)) of a two-dimensional spec by nested QUADPACK
    rules at relative tolerance rel_tol: the cross term 2 int_0^inf
    int_0^l1 kappa_(1,1)(l) e^(-total_mass psi(l)) dl2 dl1 over the
    wedge l2 < l1, each point on the spec's TiltRule, and the variance
    kernel int lam m2(lam) e^(-total_mass psi_1(lam)) dlam in closed
    form.  A QUADPACK warning raises RuntimeError.'''
    marginal = spec.marginal
    bracket = mass_ab - mass_a * mass_b / total_mass

    def outer(l1):
        # psi(l1, l2) >= psi_1(l1): past e^-745 the inner integral is 0
        if total_mass * marginal_exponent(marginal, l1) > 745.0:
            return 0.0

        def inner(l2):
            rule = TiltRule(spec, [l1, l2])
            return math.exp(rule.log_kappa((1, 1))
                            - total_mass * rule.psi())

        return _quad(inner, 0.0, l1, rel_tol)

    cross = 2.0 * _quad(outer, 0.0, np.inf, rel_tol)

    def variance(lam):
        return (lam * tilted_second_moment(marginal, lam) * math.exp(
            -total_mass * marginal_exponent(marginal, lam)))

    kernel = _quad(variance, 0.0, np.inf, rel_tol)
    var_a = (mass_a - mass_a ** 2 / total_mass) * kernel
    var_b = (mass_b - mass_b ** 2 / total_mass) * kernel
    return bracket * cross / math.sqrt(var_a * var_b)


# the points of tests/correlation_oracle.json: each family at masses
# (A, B, A and B, total) = (0.5, 0.5, 0.5, 1) over the score shapes, and
# at shape 1 on three more sets of masses
CORRELATION_FAMILIES = {
    'gamma': MarginalFamily.gamma(),
    'gg': MarginalFamily.generalized_gamma(0.3, 1.0),
    'stable': MarginalFamily.sigma_stable(0.5),
}
CORRELATION_POINTS = (
    [(family, shape, (0.5, 0.5, 0.5, 1.0)) for family in CORRELATION_FAMILIES
     for shape in (0.05, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0)]
    + [(family, 1.0, masses) for family in CORRELATION_FAMILIES
       for masses in ((0.4, 0.4, 0.0, 1.0), (0.3, 0.6, 0.2, 2.0),
                      (0.05, 0.1, 0.05, 0.2))])


def correlation_spec(family, shape):
    return CoRMSpec(2, shape, CORRELATION_FAMILIES[family])


def write_correlation_table(path):
    rows = []
    for family, shape, masses in CORRELATION_POINTS:
        value = correlation_quadpack(correlation_spec(family, shape), *masses)
        rows.append({'family': family, 'shape': shape, 'masses': masses,
                     'correlation': value})
        print(family, shape, masses, repr(value), flush=True)
    Path(path).write_text('[\n%s\n]\n' % ',\n'.join(map(json.dumps, rows)))


if __name__ == '__main__':
    write_correlation_table(Path(__file__).with_name(
        'correlation_oracle.json') if len(sys.argv) < 2 else sys.argv[1])
