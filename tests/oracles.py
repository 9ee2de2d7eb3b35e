'''Closed forms from the paper that the library does not compute, kept as
references for the tests.

The marginals that gamma and generalized-gamma directing intensities
induce under Ga(shape) scores are Bessel-K densities, and their tails
have no closed form: quadpack_tail gives one by QUADPACK.  The
multivariate intensity rho_d of a sigma-stable marginal is a power law of
|s|.  Under exponential scores the Laplace exponent has a
partial-fraction form in the univariate exponent, differentiated here by
sympy.
'''

import math

import mpmath
import numpy as np
from scipy import integrate
from scipy.special import kv


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
