'''
Measure-level machinery for compound random measures.

A compound random measure (CoRM) is built from a directing Levy intensity
nu* on jump scales z and i.i.d. gamma scores: dimension j of the vector
measure puts mass m_{j,i} * J_i on atom i, with the J_i driven by nu* and
the scores Ga(shape).  Everything downstream (prior simulation, posterior
samplers) consumes the objects defined here: the directing intensity paired
with a requested marginal family, Laplace exponents, the multivariate
intensity rho_d, Levy copulas, mixed moments, and the tau/kappa integrals
of the marginal sampler.
'''

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import (boxcox, digamma, exp1, exprel, gammainc,
                           gammaincc, gammaln, hyp2f1, inv_boxcox)

from .numerics import (
    IntegralResult,
    QuadratureError,
    bessel_k,
    integrate,
    kummer_u,
    whittaker_w,
)

__all__ = [
    'ScoreDistribution',
    'MarginalFamily',
    'LevyIntensity',
    'CoRMSpec',
    'MomentPartition',
    'mgf_score',
    'directing_from_marginal',
    'marginal_from_directing',
    'marginal_intensity',
    'laplace_exponent',
    'laplace_exponent_exponential_closed',
    'marginal_exponent',
    'rho_density',
    'tau',
    'TiltRule',
    'RuleNodes',
    'log_kappa',
    'kappa',
    'levy_copula',
    'clayton_copula',
    'enumerate_moment_partitions',
    'mixed_moment',
    'covariance_normalized',
]


@dataclass(frozen=True)
class ScoreDistribution:
    '''Gamma score law Ga(shape, 1); scores rescale the shared jumps.'''
    shape: float

    def __post_init__(self):
        if not self.shape > 0.0:
            raise ValueError('score shape must be positive')

    def log_density(self, m):
        m = np.asarray(m, dtype=float)
        return (self.shape - 1.0) * np.log(m) - m - gammaln(self.shape)

    def density(self, m):
        return np.exp(self.log_density(m))


@dataclass(frozen=True)
class MarginalFamily:
    '''Marginal process family of each coordinate: gamma, sigma-stable
    with index sigma, or generalized gamma with index sigma and rate a.'''
    kind: str
    sigma: float = None
    a: float = None

    _KINDS = ('gamma', 'sigma-stable', 'generalized-gamma')

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError('unknown marginal family %r' % (self.kind,))
        if self.kind != 'gamma':
            if self.sigma is None or not 0.0 < self.sigma < 1.0:
                raise ValueError('sigma must lie in (0, 1)')
        if self.kind == 'generalized-gamma':
            if self.a is None or not self.a > 0.0:
                raise ValueError('rate a must be positive')

    @classmethod
    def gamma(cls):
        return cls('gamma')

    @classmethod
    def sigma_stable(cls, sigma):
        return cls('sigma-stable', sigma=float(sigma))

    @classmethod
    def generalized_gamma(cls, sigma, a):
        return cls('generalized-gamma', sigma=float(sigma), a=float(a))


class LevyIntensity:
    '''
    A Levy intensity: a density on an interval with infinite total mass
    but finite integral of min(1, s).

    density                 : vectorised callable
    support                 : (lower, upper); upper may be numpy.inf
    singularity_exponents   : endpoint power behaviour (p_lower, p_upper),
                              None where regular (at an infinite upper
                              end: decaying faster than any power).  They
                              give the TiltRule's end-series rates, p + 1
                              at each end; p_lower <= -1 encodes the
                              infinite activity at the lower endpoint, and
                              an infinite upper end needs p_upper.
    upper_rate              : p_upper + 1, the TiltRule's end-series rate
                              at the upper end; defaults to that sum.
                              Given where p_upper is a rounded double and
                              the rate is exact (the beta-type
                              intensities give beta).
    tail_fn / inverse_fn    : optional vectorised tail integral
                              U(x) = int_x^upper density and its inverse.
    log_density             : optional vectorised callable (z, gap) ->
                              log density(z), where gap = upper - z is
                              passed exactly, so a factor vanishing at a
                              finite upper end keeps full precision there.

    Integrals against the intensity run on TiltRule nodes.  tail_integral
    and inverse_tail work on arrays.  Without a tail_fn, tail_integral is
    a QUADPACK integral in log z (numerics.integrate); without an
    inverse_fn, inverse_tail inverts U by _invert_monotone, and a level
    whose root lies below z = 1e-300 raises ValueError.  log_density(z,
    gap) feeds the TiltRule nodes; it falls back to log(density(z)).
    '''

    def __init__(self, density, support, singularity_exponents=(None, None),
                 tail_fn=None, inverse_fn=None, log_density=None,
                 upper_rate=None):
        lo, hi = support
        if math.isinf(lo) or not hi > lo:
            raise ValueError('support must be a nonempty interval with finite lower end')
        self.density = density
        self.support = (float(lo), float(hi))
        self.singularity_exponents = tuple(singularity_exponents)
        p_hi = self.singularity_exponents[1]
        if upper_rate is None and p_hi is not None:
            upper_rate = p_hi + 1.0
        self.upper_rate = upper_rate
        self._tail_fn = tail_fn
        self._inverse_fn = inverse_fn
        self._log_density = log_density
        # prior truncation (level, tail mass at the level) by tail_mass,
        # filled by prior.sample_corm
        self._truncations = {}

    def __call__(self, s):
        return self.density(s)

    def log_density(self, z, gap):
        '''log density(z) at points z with gap = upper - z.'''
        if self._log_density is None:
            # a density rounding to 0 near an end is a zero weight there
            with np.errstate(divide='ignore'):
                return np.log(self.density(z))
        return self._log_density(z, gap)

    def tail_integral(self, x):
        '''U(x) = integral of the density over (x, upper), elementwise
        over an array of points.'''
        lo, hi = self.support
        x = np.asarray(x, dtype=float)
        out = np.where(x <= lo, np.inf, 0.0)
        inside = (x > lo) & (x < hi)
        if self._tail_fn is not None:
            out[inside] = self._tail_fn(x[inside])
        else:
            # in log z, where a power-law density is tame over the many
            # decades above a small x
            def g(t):
                return float(self.density(math.exp(t))) * math.exp(t) \
                    if t < 700.0 else 0.0

            top = hi if math.isinf(hi) else math.log(hi)
            out[inside] = [integrate(g, math.log(xi), top).value
                           for xi in x[inside]]
        return float(out) if out.ndim == 0 else out

    def inverse_tail(self, level):
        '''Solve U(x) = level for x, elementwise over an array of
        levels; U is strictly decreasing.'''
        levels = np.asarray(level, dtype=float)
        if not np.all(levels > 0.0):
            raise ValueError('tail level must be positive')
        if self._inverse_fn is not None:
            x = np.asarray(self._inverse_fn(levels), dtype=float)
        else:
            lo, hi = self.support
            mid = 1.0 if math.isinf(hi) else 0.5 * (lo + hi)
            x = _invert_monotone(self.tail_integral, self.density, levels,
                                 lambda y: np.full_like(y, mid), hi)
        return float(x) if x.ndim == 0 else x


_Z_FLOOR, _Z_CEIL = 1e-300, 1e300
_SOLVER_STEPS = 100


def _invert_monotone(fn, slope, level, start, upper, increasing=False):
    '''
    Solve fn(z) = level elementwise on (0, upper), upper possibly
    infinite, for a positive strictly monotone fn with |fn'| = slope.
    Newton steps on log fn against log z, exact for a power law, inside a
    bracket kept per element; a step that leaves the bracket is replaced
    by geometric bisection.  In the upper half of a finite support the
    steps (and the bisections of a bracket there) are taken on
    log(upper - z) instead, so a root close to the upper end is resolved
    relative to its gap, down to adjacent doubles; of the two bracket
    ends the one with the smaller level residual is returned.  Only
    unconverged elements are iterated.  A root beyond the largest double
    below a finite upper end returns that double.  A root below
    z = 1e-300 (or above 1e300 on an infinite support) raises ValueError,
    and an element unconverged after _SOLVER_STEPS steps raises
    RuntimeError.
    '''
    level = np.asarray(level, dtype=float)
    y = level.ravel()
    log_y = np.log(y)
    finite = not math.isinf(upper)
    top = np.nextafter(upper, 0.0) if finite else _Z_CEIL
    half = 0.5 * upper
    z = np.clip(np.asarray(start(y), dtype=float), _Z_FLOOR, top)
    todo = np.arange(z.size)
    lo, hi = np.zeros_like(z), np.full_like(z, np.inf)
    # level residuals |g| at the bracket ends
    r_lo, r_hi = np.full_like(z, np.inf), np.full_like(z, np.inf)
    out = np.empty_like(z)
    with np.errstate(divide='ignore', invalid='ignore', over='ignore'):
        for _ in range(_SOLVER_STEPS):
            f = np.asarray(fn(z), dtype=float)
            g = np.log(f) - log_y[todo]
            above = (g > 0.0) != increasing
            # Newton correction of log z; f = 0 or slope = 0 give nan/inf
            dt = (-g if increasing else g) * f / (z * slope(z))
            # the same correction of log(upper - z), whose gap is exact
            # (Sterbenz) above upper/2; taken where it stays there
            gap = upper - z
            dt_gap = -dt * z / gap
            step_gap = upper - gap * np.exp(dt_gap)
            on_gap = (z > half) & (step_gap > half)
            dt = np.where(on_gap, dt_gap, dt)
            # a step past the representable range stops at its edge
            step = np.minimum(np.maximum(
                np.where(on_gap, step_gap, z * np.exp(dt)), _Z_FLOOR), top)
            lo = np.where(above, z, lo)
            hi = np.where(above, hi, z)
            r_lo = np.where(above, np.abs(g), r_lo)
            r_hi = np.where(above, r_hi, np.abs(g))
            # a steep fn (near a finite upper end) may never bring the
            # level residual to 1e-11, but its steps shrink below 1e-13,
            # or its bracket closes on two adjacent doubles
            upper_half = lo > half
            closed = np.where(upper_half,
                              upper - lo <= (upper - hi) * (1.0 + 1e-13),
                              hi <= lo * (1.0 + 1e-13)) \
                | (hi <= np.nextafter(lo, np.inf))
            done = (np.abs(g) <= 1e-11) | (np.abs(dt) <= 1e-13) | closed \
                | (above & (z >= top) & finite)
            lost = ~done & ((~above & (z <= _Z_FLOOR)) | (above & (z >= top)))
            if lost.any():
                raise ValueError('level %r has its root outside (%g, %g)'
                                 % (y[todo][lost][0], _Z_FLOOR, top))
            if done.any():
                # z is one end of the bracket; keep the closer end
                out[todo[done]] = np.where(r_lo < r_hi, lo, hi)[done]
                if done.all():
                    return out.reshape(level.shape)
                keep = ~done
                todo, step, lo, hi, r_lo, r_hi, upper_half = (
                    x[keep] for x in (todo, step, lo, hi, r_lo, r_hi,
                                      upper_half))
            bad = np.isnan(step) | (step <= lo) | (step >= hi)
            lo_c, hi_c = np.maximum(lo, _Z_FLOOR), np.minimum(hi, top)
            gap_mid = np.sqrt(upper - lo_c) * np.sqrt(upper - hi_c)
            mid = np.where(upper_half, upper - gap_mid,
                           np.sqrt(lo_c) * np.sqrt(hi_c))
            z = np.where(bad, mid, step)
    raise RuntimeError('%d of %d levels unconverged after %d steps'
                       % (todo.size, out.size, _SOLVER_STEPS))


def mgf_score(z, lam, shape):
    '''Moment generating function of a Ga(shape) score at -lam * z,
    i.e. (1 + z lam)^(-shape).'''
    lam = np.asarray(lam, dtype=float)
    if np.any(lam < 0.0):
        raise ValueError('lam must be nonnegative')
    return np.exp(-shape * np.log1p(np.asarray(z, dtype=float) * lam))


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _stable_coefficient(shape, sigma):
    # normalised so the induced marginal exponent is exactly lambda^sigma
    return math.exp(math.log(sigma) + gammaln(shape)
                    - gammaln(shape + sigma) - gammaln(1.0 - sigma))


def _beta_type(marginal, shape):
    '''(c, sigma, a, beta) of the directing intensity c z^(-1-sigma)
    (1 - a z)^(beta-1) of a gamma or generalized-gamma marginal.'''
    if marginal.kind == 'gamma':
        return 1.0, 0.0, 1.0, shape
    sigma = marginal.sigma
    return _stable_coefficient(shape, sigma), sigma, marginal.a, sigma + shape


def _beta_series(sigma, beta, x_switch):
    '''Exponents k - sigma and coefficients c_k / (k - sigma), c_k =
    (-1)^k C(beta-1, k), of the series sum_k c_k x^(k-sigma) / (k-sigma)
    in the beta-type unit tail, cut to the terms that count at x <=
    x_switch.'''
    # Cut once, at x_switch, the largest x the series is evaluated at,
    # where a term falls below 1e-22 of the first (32 of 60 terms at
    # sigma 0.3, beta 2.3; one at sigma 0 and beta 2, where the series is
    # a polynomial).  A term below 1e-17 of the first cannot move the
    # rounded sum, but the matrix product keeps partial sums of the later,
    # smaller terms, whose last bits terms near 1e-18 still move: cut
    # there, the tail differed from the 60-term one in the last bit at
    # about 2e-4 of the points near x_switch; cut at 1e-22, at none tried.
    ks = np.arange(1.0, 61.0)
    exponents = ks - sigma
    coefs = np.cumprod((ks - beta) / ks) / exponents
    sizes = np.abs(coefs) * x_switch ** exponents
    n = np.flatnonzero(sizes > 1e-22 * sizes[0]).max(initial=-1) + 1
    return exponents[:n], coefs[:n]


def directing_from_marginal(marginal, shape):
    '''Directing intensity nu* whose compound with Ga(shape) scores has
    the requested marginal process in every coordinate.  Generalized gamma
    gives c z^(-1-sigma) (1 - a z)^(beta-1) on (0, 1/a), beta = sigma +
    shape, and gamma is its member sigma = 0, a = 1, c = 1.'''
    if not shape > 0.0:
        raise ValueError('score shape must be positive')
    if marginal.kind == 'sigma-stable':
        sigma = marginal.sigma
        c = _stable_coefficient(shape, sigma)

        def density(z):
            return c * np.asarray(z, dtype=float) ** (-1.0 - sigma)

        return LevyIntensity(
            density, (0.0, np.inf),
            singularity_exponents=(-1.0 - sigma, -1.0 - sigma),
            tail_fn=lambda x: c / sigma * x ** -sigma,
            inverse_fn=lambda y: (sigma * y / c) ** (-1.0 / sigma),
            log_density=lambda z, gap: (math.log(c)
                                        - (1.0 + sigma) * np.log(z)))
    c, sigma, a, beta = _beta_type(marginal, shape)
    scale = c * a ** sigma

    def density(z):
        z = np.asarray(z, dtype=float)
        w = np.maximum(1.0 - a * z, 0.0)
        return c * z ** (-1.0 - sigma) * w ** (beta - 1.0)

    def log_density(z, gap):
        # 1 - a z = a gap
        return (math.log(c) - (1.0 + sigma) * np.log(z)
                + (beta - 1.0) * np.log(a * gap))

    # T(z) = scale G(a z) with G(x) = int_x^1 t^(-1-sigma) (1-t)^(beta-1) dt.
    # Near zero G(x) = L(x) + k0 - sum_k c_k x^(k-sigma) / (k-sigma), with
    # L(x) = (x^-sigma - 1)/sigma (-log x at sigma 0), the Box-Cox
    # transform -boxcox(x, -sigma), and c_k = (-1)^k C(beta-1, k); away
    # from zero it is the incomplete-beta hypergeometric.  Switching at
    # x = 1/beta bounds the series terms by 1/k!, so they do not cancel.
    # The series keeps only the terms that count at x_switch (about 30,
    # not 60).  Uncut, the power matrix x^(k-sigma) underflows in its
    # last columns at the jumps near 1e-9 of a prior draw, where pow takes
    # its slow subnormal path: that was most of a draw's time.
    x_switch = min(0.3, 1.0 / beta)
    exponents, series_coefs = _beta_series(sigma, beta, x_switch)
    # k0 = lim_{x->0} G(x) - L(x) = B(-sigma, beta) + 1/sigma = -expm1(E)/sigma
    # with E = lnGamma(1-sigma) + lnGamma(beta) - lnGamma(beta-sigma) (DLMF
    # 8.17), and -digamma(beta) - euler_gamma at sigma 0.  E/sigma is a
    # difference of means of digamma over (t, t + sigma), by Gauss-Legendre
    # where the interval keeps sigma away from the pole at 0: differences of
    # lnGamma cancel at small sigma and large beta.
    mean_beta, mean_one = (
        0.5 * _GL_WEIGHTS @ digamma(t + 0.5 * sigma * (1.0 + _GL_NODES))
        if sigma <= t else (gammaln(t + sigma) - gammaln(t)) / sigma
        for t in (beta - sigma, 1.0 - sigma))
    e_rate = mean_beta - mean_one
    k0 = -exprel(sigma * e_rate) * e_rate

    def tail(z):
        z = np.asarray(z, dtype=float)
        x = np.atleast_1d(np.clip(a * z, 1e-300, 1.0))
        low = x <= x_switch
        out = np.empty_like(x)
        if low.any():
            xl = x[low]
            out[low] = k0 - boxcox(xl, -sigma) \
                - (xl[:, None] ** exponents) @ series_coefs
        if not low.all():
            # at sigma 0 (c = a + b) scipy's hyp2f1 is off by up to 7e-11
            # for w > 0.9 and beta near 100; the mean of its values at
            # sigma = +-1e-8 is off by about 1e-16 log(x)^2 instead
            w = 1.0 - x[~low]
            f = hyp2f1(beta, 1.0 + sigma, beta + 1.0, w) if sigma else 0.5 * (
                hyp2f1(beta, 1.0 + 1e-8, beta + 1.0, w)
                + hyp2f1(beta, 1.0 - 1e-8, beta + 1.0, w))
            out[~low] = w ** beta / beta * f
        return scale * out.reshape(z.shape)

    if sigma == 0.0 and beta == 1.0:
        inverse = lambda y: np.exp(-np.asarray(y, dtype=float))
    else:
        g_switch = float(tail(x_switch / a)) / scale

        def start(y):
            # high levels invert L(x) + k0 (1 + sigma (G - k0) > 0, as
            # B(-sigma, beta) < 0), low ones G(x) ~ (1 - x)^beta / beta,
            # in logs and kept above x_switch, where their roots lie
            yu = y / scale
            x_small = inv_boxcox(k0 - yu, -sigma)
            x_large = -np.expm1(np.minimum(np.log(beta * yu) / beta,
                                           math.log1p(-x_switch)))
            return np.where(yu >= g_switch, x_small, x_large) / a

        def inverse(y):
            return _invert_monotone(tail, density, y, start, 1.0 / a)
    return LevyIntensity(density, (0.0, 1.0 / a),
                         singularity_exponents=(-1.0 - sigma, beta - 1.0),
                         tail_fn=tail, inverse_fn=inverse,
                         log_density=log_density, upper_rate=beta)


def marginal_intensity(marginal):
    '''Closed-form Levy intensity of the marginal process itself.'''
    if marginal.kind == 'gamma':
        def density(s):
            s = np.asarray(s, dtype=float)
            return np.exp(-s) / s

        return LevyIntensity(density, (0.0, np.inf),
                             singularity_exponents=(-1.0, None),
                             tail_fn=lambda x: exp1(x))
    if marginal.kind == 'sigma-stable':
        sigma = marginal.sigma
        c = sigma / math.gamma(1.0 - sigma)

        def density(s):
            return c * np.asarray(s, dtype=float) ** (-1.0 - sigma)

        return LevyIntensity(
            density, (0.0, np.inf),
            singularity_exponents=(-1.0 - sigma, -1.0 - sigma),
            tail_fn=lambda x: x ** -sigma / math.gamma(1.0 - sigma),
            inverse_fn=lambda y: (math.gamma(1.0 - sigma) * y) ** (-1.0 / sigma))
    if marginal.kind == 'generalized-gamma':
        sigma, a = marginal.sigma, marginal.a
        c = sigma / math.gamma(1.0 - sigma)

        def density(s):
            s = np.asarray(s, dtype=float)
            return c * s ** (-1.0 - sigma) * np.exp(-a * s)

        g1 = math.gamma(1.0 - sigma)

        def tail(x):
            # sigma a^sigma Gamma(-sigma, y) / Gamma(1 - sigma) at y = a x,
            # by Gamma(-sigma, y) sigma = y^-sigma e^-y - Gamma(1 - sigma, y)
            y = a * np.asarray(x, dtype=float)
            return a ** sigma * (y ** -sigma * np.exp(-y)
                                 - g1 * gammaincc(1.0 - sigma, y)) / g1

        return LevyIntensity(density, (0.0, np.inf),
                             singularity_exponents=(-1.0 - sigma, None),
                             tail_fn=tail)
    raise ValueError('unknown marginal family %r' % (marginal.kind,))


def marginal_from_directing(directing, shape, theta=None, sigma=None, a=None):
    '''
    Marginal Levy intensity induced by a named directing family under
    Ga(shape) scores.

    directing: 'beta' (parameter theta; nu*(z) = z^-1 (1-z)^(theta-1)),
    'gamma' (z^-1 e^-z), 'sigma-stable' (sigma/Gamma(1-sigma) z^(-1-sigma))
    or 'generalized-gamma' (the same with an e^(-a z) factor).
    '''
    if not shape > 0.0:
        raise ValueError('score shape must be positive')
    if directing == 'beta':
        if theta is None or not theta > 0.0:
            raise ValueError('beta directing needs theta > 0')
        lc = gammaln(theta) - gammaln(shape)

        def density(s):
            s = np.asarray(s, dtype=float)
            u = np.array([kummer_u(theta, shape + 1.0, float(x))
                          for x in np.atleast_1d(s)])
            u = u.reshape(s.shape) if s.shape else float(u[0])
            return np.exp(lc + (shape - 1.0) * np.log(s) - s) * u

        return LevyIntensity(density, (0.0, np.inf),
                             singularity_exponents=(-1.0, None))
    if directing == 'gamma':
        def density(s):
            s = np.asarray(s, dtype=float)
            return 2.0 / math.gamma(shape) * s ** (0.5 * shape - 1.0) \
                * bessel_k(shape, 2.0 * np.sqrt(s))

        return LevyIntensity(density, (0.0, np.inf),
                             singularity_exponents=(-1.0, None))
    if directing == 'sigma-stable':
        if sigma is None or not 0.0 < sigma < 1.0:
            raise ValueError('sigma must lie in (0, 1)')
        c = math.exp(math.log(sigma) + gammaln(shape + sigma)
                     - gammaln(shape) - gammaln(1.0 - sigma))

        def density(s):
            return c * np.asarray(s, dtype=float) ** (-1.0 - sigma)

        return LevyIntensity(
            density, (0.0, np.inf),
            singularity_exponents=(-1.0 - sigma, -1.0 - sigma),
            tail_fn=lambda x: c / sigma * x ** -sigma,
            inverse_fn=lambda y: (sigma * y / c) ** (-1.0 / sigma))
    if directing == 'generalized-gamma':
        if sigma is None or not 0.0 < sigma < 1.0:
            raise ValueError('sigma must lie in (0, 1)')
        if a is None or not a > 0.0:
            raise ValueError('rate a must be positive')
        lc = (math.log(2.0 * sigma) - gammaln(1.0 - sigma) - gammaln(shape)
              + 0.5 * (sigma + shape) * math.log(a))

        def density(s):
            s = np.asarray(s, dtype=float)
            return np.exp(lc + (0.5 * (shape - sigma) - 1.0) * np.log(s)) \
                * bessel_k(sigma + shape, 2.0 * np.sqrt(a * s))

        return LevyIntensity(density, (0.0, np.inf),
                             singularity_exponents=(-1.0 - sigma, None))
    raise ValueError('unsupported directing family %r' % (directing,))


@dataclass(frozen=True)
class CoRMSpec:
    '''
    Full specification of a compound random measure: dimension, score law,
    marginal family, the directing intensity, and the centring measure's
    total mass.  `base` optionally carries the centring base distribution
    (an object the mixture layer understands); the measure-level operations
    below never touch it.

    Build with from_marginal(), which derives the directing intensity and
    verifies it numerically: the Laplace exponent of one coordinate must
    match the marginal's closed form.  with_shape() rebuilds for a new
    score shape without the re-verification, for use inside samplers.
    '''
    dimension: int
    score: ScoreDistribution
    marginal: MarginalFamily
    directing: LevyIntensity
    centring_mass: float = 1.0
    base: object = field(default=None, compare=False)

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError('dimension must be at least 1')
        if not self.centring_mass > 0.0:
            raise ValueError('centring mass must be positive')

    @classmethod
    def from_marginal(cls, dimension, shape, marginal, centring_mass=1.0,
                      base=None, verify=True):
        directing = directing_from_marginal(marginal, shape)
        spec = cls(dimension, ScoreDistribution(shape), marginal, directing,
                   centring_mass, base)
        if verify:
            # one coordinate's Laplace exponent, by the tilt rule on the
            # directing intensity, against the marginal's closed form
            single = cls(1, spec.score, marginal, directing)
            for lam in (0.1, 1.0, 10.0):
                got = TiltRule(single, [lam]).psi()
                want = float(marginal_exponent(marginal, lam))
                if not abs(got - want) <= 1e-9 * want:
                    raise ValueError(
                        'directing intensity is inconsistent with the '
                        'requested marginal at lam=%g (%.17g vs %.17g)'
                        % (lam, got, want))
        return spec

    def with_shape(self, shape):
        return type(self).from_marginal(
            self.dimension, shape, self.marginal, self.centring_mass,
            self.base, verify=False)

    @property
    def shape(self):
        return self.score.shape


# the rule is cut where log1p(v z), 1 - z/upper and the like differ from
# their leading power by less than this relative amount
_PURE = 1e-17
# the largest step of the rule in u
_STEP = 0.125
# the nodes a RuleNodes lattice adds at a time past its first block
_BLOCK = 256


def _rule_step(spec):
    return min(_STEP, 0.2 / math.sqrt(spec.dimension * spec.shape))


def _sigmoid_terms(nu, h, u, upper):
    '''(log z, z, log(h |dz/du| nu*(z))) at the nodes u of the map
    z = upper exp(-softplus(-u)) onto (0, upper).  The gap upper - z =
    upper exp(-softplus(u)) is exact, and nu* is given the gap to the
    end of its support as (end - upper) + (upper - z).'''
    log_upper = math.log(upper)
    log_z = log_upper - np.logaddexp(0.0, -u)
    log_gap = log_upper - np.logaddexp(0.0, u)
    z = np.exp(log_z)
    gap = (nu.support[1] - upper) + np.exp(log_gap)
    log_jac = log_z + log_gap - log_upper
    return log_z, z, math.log(h) + log_jac + nu.log_density(z, gap)


def _log_sigmoid_terms(nu, h, u, lower, upper):
    '''The same on (lower, upper), lower > 0, with the map taken in
    log z: log(z / lower) = D exp(-softplus(-u)) and log(upper / z) =
    D exp(-softplus(u)), D = log(upper / lower).  Each half of the
    nodes takes z from its nearer end, so both ends are exact.'''
    span = math.log1p((upper - lower) / lower)
    log_above = -np.logaddexp(0.0, -u)
    log_below = -np.logaddexp(0.0, u)
    above = span * np.exp(log_above)
    below = span * np.exp(log_below)
    low = u < 0.0
    z = np.where(low, lower * np.exp(above), upper * np.exp(-below))
    log_z = np.where(low, math.log(lower) + above, math.log(upper) - below)
    gap = (nu.support[1] - upper) - upper * np.expm1(-below)
    log_jac = log_z + math.log(span) + log_above + log_below
    return log_z, z, math.log(h) + log_jac + nu.log_density(z, gap)


class RuleNodes:
    '''
    The v-independent node terms of the TiltRules on one finite stretch
    of a support (0, U): (0, upper) below a truncation level upper <= U,
    or (lower, upper) with lower > 0.  Built once and shared by the rules
    at every tilt v there; see TiltRule for the layout.

    The nodes u_k = top - k h (k = 0, 1, ...) are anchored at the upper
    cut and computed in blocks, as far down as the largest v_max asked
    for so far: one block for the tilts with v_max upper <= 1, then
    _BLOCK nodes at a time.  terms(v_max) hands out exactly the nodes
    v_max calls for, and a node's terms do not depend on the blocks
    computed before it, so a rule's value does not depend on which tilts
    came first.
    '''

    def __init__(self, spec, upper, lower=0.0):
        nu = spec.directing
        start, end = nu.support
        if start != 0.0:
            raise ValueError('the tilt rule needs a support starting at 0')
        if not 0.0 <= lower < upper <= end or math.isinf(upper):
            raise ValueError('(%r, %r) is not a finite stretch of the '
                             'support' % (lower, upper))
        self.spec = spec
        self.lower, self.upper = float(lower), float(upper)
        self.h = _rule_step(spec)
        p_hi = nu.singularity_exponents[1]
        # the integrand keeps nu*'s power at its own end only
        self.upper_rate = float(nu.upper_rate) if (
            upper == end and p_hi is not None) else 1.0
        cut = -math.log(_PURE)
        if lower > 0.0:
            # log z moves from either end by D e^-|u|, D = log(upper /
            # lower): past D e^-|u| = _PURE the terms are pure
            # exponentials in u
            span = math.log1p((upper - lower) / lower)
            self.top = cut + max(0.0, math.log(span))
            self.bottom = -self.top
        else:
            # past the top the gap upper - z is below _PURE of upper and
            # of end - upper, so nu*'s factor in end - z is constant
            self.top = cut if upper == end else cut + max(
                0.0, math.log(upper) - math.log(end - upper))
            self.bottom = -cut
        self._log_z = self._z = self._log_w = np.empty(0)

    def _steps(self, depth):
        # an even number, so both ends are sub-rule nodes
        return 2 * math.ceil(0.5 * (self.top - self.bottom + depth) / self.h)

    def terms(self, v_max):
        '''(log z, z, log(h |dz/du| nu*(z))) in increasing u at the nodes
        k = n, ..., 0 for tilts up to v_max, where n is the even step
        count from top to bottom, and below (0, upper) further down by
        log(v_max upper) once v_max upper > 1.  The first block holds the
        nodes of v_max upper <= 1.'''
        depth = 0.0
        if self.lower == 0.0:
            depth = max(0.0, math.log(v_max * self.upper))
        n = self._steps(depth)
        nu = self.spec.directing
        while self._z.size <= n:
            size = _BLOCK if self._z.size else self._steps(0.0) + 1
            u = self.top - self.h * (self._z.size + np.arange(size))
            if self.lower > 0.0:
                block = _log_sigmoid_terms(nu, self.h, u, self.lower,
                                           self.upper)
            else:
                block = _sigmoid_terms(nu, self.h, u, self.upper)
            self._log_z, self._z, self._log_w = (
                np.concatenate(pair) for pair in zip(
                    (self._log_z, self._z, self._log_w), block))
        return self._log_z[n::-1], self._z[n::-1], self._log_w[n::-1]


class TiltRule:
    '''
    One trapezoid node set for the integrals against nu* at a fixed tilt
    vector v: log kappa_a(v) for any count tuple a, psi(v) and its
    gradient, and log_integral, the integral of a general weight.  Every
    integral against a directing intensity in the package runs on these
    nodes.

    The rule is uniform in u with step h = min(1/8, 0.2/sqrt(d shape)),
    a fraction of the peak width of the kappa integrand in log z at
    large counts.  On a finite support (0, U), z = U exp(-softplus(-u)):
    z ~ U e^u as u -> -inf, and the gap U - z = U exp(-softplus(u)) is
    exact near U.  On an infinite support z = e^u.  An integrand with
    power behaviour at both ends decays exponentially in u, where the
    trapezoid rule converges exponentially fast (Trefethen & Weideman
    2014).  The nodes end where the integrand is a pure exponential in u
    to double precision (v_max z <= 1e-17 and the like); the rule's terms
    past each end are summed in closed form as geometric series.

    Given nodes (a RuleNodes of the same spec), the rule runs over a
    stretch of a finite support instead:

    - a truncated end, (0, L) with L <= U: z = L exp(-softplus(-u)), and
      nu* reads its gap as (U - L) + (L - z).  The end series at 0 keeps
      its rate; at L it has rate 1 when L < U (the integrand is regular
      there) and nu*'s rate at U when L = U.
    - an interval (lo, hi), lo > 0: the same map in log z between
      log lo and log hi, with rate 1 at both ends (at hi = U, nu*'s rate
      there).  A map linear in z would need about hi / lo times the
      nodes when lo << hi.

    Per node the rule stores log(h |dz/du| nu*(z)), log z and
    log1p(v_j z); only the last depends on v.  Every value is checked
    against the every-other-node sub-rule, and a disagreement above
    1e-9 relative raises QuadratureError.  The end behaviour comes from
    the directing intensity's singularity exponents, which an infinite
    upper end must give.

    A general weight z^p exp(g(log z)) (log_integral) declares its power
    p at 0 and its power at an infinite upper end, which add to nu*'s in
    the end rates.  The tilt v sets how far the nodes reach, so a weight
    with a scale s of its own (a survival factor Q(shape, x/z), a density
    peaking at z = s) is integrated by a rule built at a tilt of 1/s.
    '''

    def __init__(self, spec, v, nodes=None):
        nu = spec.directing
        v = np.asarray(v, dtype=float)
        if v.ndim != 1 or v.size != spec.dimension:
            raise ValueError('v must be a vector of length %d'
                             % spec.dimension)
        if np.any(v < 0.0):
            raise ValueError('v must be nonnegative')
        if nodes is not None and nodes.spec is not spec:
            raise ValueError('the nodes belong to another spec')
        lo, upper = nu.support
        if lo != 0.0:
            raise ValueError('the tilt rule needs a support starting at 0')
        p_lo, p_hi = nu.singularity_exponents
        self.finite = nodes is not None or not math.isinf(upper)
        if not self.finite and p_hi is None:
            raise ValueError('the tilt rule needs the power decay of the '
                             'intensity at an infinite upper end')
        self.spec = spec
        self.v = v
        self.positive = (v > 0.0).astype(float)
        self.p_lo = 0.0 if p_lo is None else float(p_lo)
        active = v[v > 0.0]
        v_max = float(active.max()) if active.size else 1.0
        v_min = float(active.min()) if active.size else 1.0
        if nodes is not None:
            self.lower = nodes.lower
            self.upper_rate = nodes.upper_rate
            self.h = nodes.h
            self.log_z, z, self.log_w = nodes.terms(v_max)
            self.log1p_vz = np.log1p(np.multiply.outer(v, z))
            return
        self.lower = 0.0
        # p_hi + 1, exact where the intensity gives it
        self.upper_rate = 1.0 if p_hi is None else float(nu.upper_rate)
        h = _rule_step(spec)
        cut = -math.log(_PURE)
        if self.finite:
            u_lo = -cut - max(0.0, math.log(v_max * upper))
            u_hi = cut
        else:
            u_lo = -cut - math.log(v_max)
            u_hi = cut - math.log(v_min)
        # an even number of steps, so both ends are sub-rule nodes
        n = 2 * math.ceil(0.5 * (u_hi - u_lo) / h)
        u = u_lo + h * np.arange(n + 1)
        if self.finite:
            log_z, z, self.log_w = _sigmoid_terms(nu, h, u, upper)
        else:
            log_z = u
            z = np.exp(u)
            self.log_w = math.log(h) + u + nu.log_density(
                z, np.full_like(u, np.inf))
        self.h = h
        self.log_z = log_z
        self.log1p_vz = np.log1p(np.multiply.outer(v, z))

    def _end_rates(self, lower_power, tail_power):
        '''Decay rates in u of the integrand at the small-z and large-z
        ends, for a weight ~ z^lower_power at 0 (None: vanishing faster
        than any power, no end series, rate None) and ~ z^tail_power at an
        infinite upper end (at a finite one the weight is regular).'''
        if self.lower > 0.0:
            # an interval inside the support: the weight is regular at lo
            return 1.0, self.upper_rate
        rate_lo = None
        if lower_power is not None:
            rate_lo = self.p_lo + 1.0 + lower_power
            if rate_lo <= 0.0:
                raise ValueError('integral diverges at the lower endpoint')
        if self.finite:
            return rate_lo, self.upper_rate
        rate_hi = -(self.upper_rate + tail_power)
        if rate_hi <= 0.0:
            raise ValueError('integral diverges in the tail')
        return rate_lo, rate_hi

    def _rule_pair(self, f, ends):
        '''The rule and its every-other-node sub-rule on the node terms
        f, each with the series c sum_{m >= 1} e^(-m step r) past an end
        added for each (c, r) in ends.'''
        return [k * (f[::k].sum()
                     + sum(c * math.exp(-k * self.h * r)
                           / -math.expm1(-k * self.h * r) for c, r in ends))
                for k in (1, 2)]

    def log_integral(self, log_weight, lower_power, tail_power=0.0):
        '''
        log int z^lower_power exp(log_weight(log z)) nu*(z) dz over the
        rule's range.  log_weight is vectorised over the nodes' log z and
        tends to a constant as z -> 0; lower_power None instead declares a
        weight exp(log_weight) that vanishes faster than any power there,
        and the rule then ends without a series at 0.  tail_power is the
        power of the whole weight at an infinite upper end; at a finite one
        the weight must be regular.  The rule's nodes must resolve the
        weight: a weight with its own small scale s needs a rule built at
        a tilt v_max >= 1/s, which extends the nodes to z = 1e-17 s.
        '''
        rate_lo, rate_hi = self._end_rates(lower_power, tail_power)
        log_f = self.log_w
        if lower_power is not None:
            log_f = log_f + lower_power * self.log_z
        log_f = log_f + log_weight(self.log_z)
        top = log_f.max()
        f = np.exp(log_f - top)
        ends = [(f[-1], rate_hi)]
        if rate_lo is not None:
            ends.insert(0, (f[0], rate_lo))
        full, half = np.log(self._rule_pair(f, ends))
        if not abs(full - half) <= 1e-9:
            raise QuadratureError(
                'log integral at v = %s: trapezoid rules disagree by %.3g'
                % (self.v, full - half),
                IntegralResult(top + full, abs(full - half), f.size))
        return float(top + full)

    def log_kappa(self, a):
        '''log kappa_a(v) = sum_j log(Gamma(a_j + shape)/Gamma(shape))
        + log int z^(sum a) prod_j (1 + v_j z)^(-a_j - shape) nu*(z) dz.'''
        a = np.asarray(a, dtype=float)
        shape = self.spec.shape
        total = float(a.sum())
        tail_power = total - float((a + shape) @ self.positive)
        log_tilt = -((a + shape) @ self.log1p_vz)
        return (self.log_integral(lambda log_z: log_tilt, total, tail_power)
                + float(np.sum(gammaln(a + shape) - gammaln(shape))))

    def psi(self):
        '''psi(v) = int (1 - prod_j (1 + v_j z)^-shape) nu*(z) dz.'''
        positive = int(self.positive.sum())
        if positive == 0:
            return 0.0
        # the bracket 1 - p vanishes linearly at 0 and tends to 1 at
        # infinity
        rate_lo, rate_hi = self._end_rates(1.0, 0.0)
        log_p = -self.spec.shape * self.log1p_vz.sum(axis=0)
        w = np.exp(self.log_w)
        f = -w * np.expm1(log_p)
        ends = [(f[0], rate_lo)]
        if self.finite:
            ends.append((f[-1], rate_hi))
        else:
            # p ~ (v z)^-(d shape) falls off slowly at a small shape, so
            # the two terms of the bracket are summed as separate series
            ends += [(w[-1], rate_hi),
                     (-w[-1] * math.exp(log_p[-1]),
                      rate_hi + positive * self.spec.shape)]
        full, half = self._rule_pair(f, ends)
        if not abs(full - half) <= 1e-9 * full:
            raise QuadratureError(
                'psi(%s): trapezoid rules disagree by %.3g relative'
                % (self.v, (full - half) / full),
                IntegralResult(full, abs(full - half), f.size))
        return float(full)

    def psi_gradient(self):
        '''d psi / d v_j = int shape z (1 + v_j z)^-1
        prod_l (1 + v_l z)^-shape nu*(z) dz, for every j.'''
        shape = self.spec.shape
        log_g = (self.log_w + math.log(shape) + self.log_z
                 - shape * self.log1p_vz.sum(axis=0))
        decay = shape * self.positive.sum()
        out = np.empty(self.v.size)
        for j, log1p_vjz in enumerate(self.log1p_vz):
            rate_lo, rate_hi = self._end_rates(
                1.0, 1.0 - decay - self.positive[j])
            f = np.exp(log_g - log1p_vjz)
            full, half = self._rule_pair(f, [(f[0], rate_lo),
                                             (f[-1], rate_hi)])
            if not abs(full - half) <= 1e-9 * full:
                raise QuadratureError(
                    'd psi / d v_%d at %s: trapezoid rules disagree by '
                    '%.3g relative' % (j, self.v, (full - half) / full),
                    IntegralResult(full, abs(full - half), f.size))
            out[j] = full
        return out


def laplace_exponent(spec, lam):
    '''psi(lam) = int (1 - prod_j (1 + lam_j z)^-shape) nu*(z) dz, the
    exponent in the joint Laplace functional of the measure vector.  At
    distinct rates this is the paper's Upsilon_d(lam).'''
    return TiltRule(spec, lam).psi()


def laplace_exponent_exponential_closed(psi1, lam_tilde, counts):
    '''
    Closed form of the multivariate exponent for exponential scores
    (shape 1), from the univariate exponent psi1 by partial fractions:

        psi(lam) = prod_i [1/(n_i - 1)!] d^(n_i-1)/d lam_i^(n_i-1)
                   [ Upsilon_l(lam) prod_i lam_i^(n_i-1) ],
        Upsilon_l(lam) = sum_i a_i psi1(lam_i),
        a_i = lam_i^(l-1) / prod_{j != i} (lam_i - lam_j).

    psi1 must be built from arithmetic and sympy functions (the `symbolic`
    extra) to be differentiated analytically, e.g. lambda x: sympy.log(1 + x).
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


def rho_density(spec, s, method='auto'):
    '''
    Multivariate Levy intensity rho_d at the positive vector s: the density
    of putting scaled scores s_j on the d coordinates of one shared jump.

    method='closed' uses the closed forms (gamma and sigma-stable marginals),
    'mixture' integrates int z^-d prod_j f(s_j / z) nu*(z) dz directly,
    'auto' picks closed when available.
    '''
    s = np.asarray(s, dtype=float)
    if s.ndim != 1 or s.size != spec.dimension:
        raise ValueError('s must be a vector of length %d' % spec.dimension)
    if np.any(s <= 0.0):
        raise ValueError('all components of s must be positive')
    if method not in ('auto', 'closed', 'mixture'):
        raise ValueError('method must be auto, closed or mixture')
    kind = spec.marginal.kind
    if method == 'auto':
        method = 'mixture' if kind == 'generalized-gamma' else 'closed'
    if method == 'mixture':
        return _rho_by_mixture(spec, s)
    shape = spec.shape
    d = spec.dimension
    total = float(s.sum())
    log_pref = ((shape - 1.0) * np.log(s).sum()
                - (d - 1.0) * gammaln(shape))
    if kind == 'gamma':
        if shape == 1.0:
            acc = 0.0
            for j in range(d):
                acc += math.exp(
                    gammaln(d) - gammaln(d - j)
                    - (j + 1.0) * math.log(total) - total)
            return acc
        k = 0.5 * ((d - 2.0) * shape + 1.0)
        mu = 0.5 * d * shape
        w = whittaker_w(k, mu, total)
        return math.exp(log_pref - 0.5 * (d * shape + 1.0) * math.log(total)
                        - 0.5 * total) * w
    if kind == 'sigma-stable':
        sigma = spec.marginal.sigma
        return math.exp(
            log_pref + math.log(sigma) + gammaln(sigma + d * shape)
            - gammaln(shape + sigma) - gammaln(1.0 - sigma)
            - (sigma + d * shape) * math.log(total))
    raise ValueError('no closed multivariate intensity for %r' % (kind,))


def _rho_by_mixture(spec, s):
    '''int z^-d prod_j f(s_j / z) nu*(z) dz, f the Ga(shape) density.'''
    shape = spec.shape
    d = spec.dimension
    total = float(np.sum(s))
    log_s = float(np.log(s).sum())

    def log_weight(log_z):
        return ((shape - 1.0) * log_s - d * shape * log_z
                - total * np.exp(-log_z) - d * gammaln(shape))

    # the weight z^(-d shape) e^(-total/z) peaks at z = total / (d shape)
    # and vanishes faster than any power below it
    rule = TiltRule(spec, np.full(d, d * shape / total))
    return math.exp(rule.log_integral(log_weight, None, -d * shape))


def tau(a, z, v, shape):
    '''Integrated score factor Gamma(a + shape)/Gamma(shape) *
    (1 + v z)^(-a - shape) of one coordinate with a matched observations.'''
    if a < 0:
        raise ValueError('a must be nonnegative')
    lc = gammaln(a + shape) - gammaln(shape)
    z = np.asarray(z, dtype=float)
    return np.exp(lc - (a + shape) * np.log1p(v * z))


def log_kappa(spec, a, v):
    '''log kappa_a(v), with kappa_a(v) = int z^{sum a} prod_j
    tau_{a_j}(z, v_j) nu*(z) dz the marginal sampler's cluster weight
    integral; finite for counts far beyond kappa's double range.'''
    a = np.asarray(a)
    if a.shape != np.shape(v) or a.ndim != 1:
        raise ValueError('a and v must be vectors of equal length')
    if np.any(a < 0):
        raise ValueError('a must be nonnegative')
    if a.sum() < 1:
        raise ValueError('sum of a must be at least 1; '
                         'the bare integral has infinite mass')
    return TiltRule(spec, v).log_kappa(a)


def kappa(spec, a, v):
    '''kappa_a(v) = exp(log_kappa(spec, a, v)).  At positive rates v it
    is also the moment kernel int prod_j s_j^{a_j} e^{-v_j s_j} rho_d(s) ds,
    a mixed v-derivative of the Laplace exponent up to sign.  kappa grows
    like prod_j Gamma(a_j + shape) and raises OverflowError past double
    range: at v near 0, from about 100 members in each of two groups.
    Use log_kappa there.'''
    return math.exp(log_kappa(spec, a, v))


def levy_copula(spec, y1, y2):
    '''
    Levy copula of a two-dimensional CoRM evaluated at tail masses
    (y1, y2): C(y1, y2) = int nu*(z) prod_j (1 - F(U^-1(y_j) / z)) dz,
    where U is the marginal tail integral and F the Ga(shape) score cdf.
    '''
    if spec.dimension != 2:
        raise ValueError('the copula is defined for dimension 2')
    for y in (y1, y2):
        if not (y >= 0.0):
            raise ValueError('tail masses must be nonnegative')
    if y1 == 0.0 or y2 == 0.0:
        return 0.0
    marg = marginal_intensity(spec.marginal)
    # an infinite tail mass has a survival factor identically 1
    xs = [float(marg.inverse_tail(y)) for y in (y1, y2) if not math.isinf(y)]
    if not xs:
        return math.inf
    shape = spec.shape

    def log_weight(log_z):
        # a survival factor underflowing to 0 is a zero weight
        with np.errstate(divide='ignore'):
            return sum(np.log(gammaincc(shape, x * np.exp(-log_z)))
                       for x in xs)

    # the survival factors vanish faster than any power below their
    # scales x_j; the nodes reach 1e-17 of the smallest
    v = np.full(2, 1.0 / min(xs))
    nu = spec.directing
    if not math.isinf(nu.support[1]):
        return math.exp(TiltRule(spec, v).log_integral(log_weight, None))
    # Past top = 1e17 max x_j, 1 - Q(shape, x/z) = (x/z)^shape /
    # Gamma(shape + 1) to double precision, a correction that falls off
    # slowly at a small shape: the rule stops at top, and the tail
    # int_top^inf nu* prod_j (1 - q_j (top/z)^shape) dz, nu* ~ z^(-rate-1),
    # is summed term by term
    top = max(xs) / _PURE
    rule = TiltRule(spec, v, RuleNodes(spec, top))
    rate = -nu.upper_rate
    coefs = np.ones(1)
    for x in xs:
        q = math.exp(shape * math.log(x / top) - gammaln(shape + 1.0))
        coefs = np.convolve(coefs, [1.0, -q])
    tail = float(nu.density(top)) * top * float(
        coefs @ (1.0 / (rate + shape * np.arange(coefs.size))))
    return math.exp(rule.log_integral(log_weight, None)) + tail


def clayton_copula(gamma_par, y1, y2):
    '''Clayton Levy copula (y1^-g + y2^-g)^(-1/g).'''
    if not gamma_par > 0.0:
        raise ValueError('gamma must be positive')
    if y1 == 0.0 or y2 == 0.0:
        return 0.0
    if math.isinf(y1):
        return float(y2)
    if math.isinf(y2):
        return float(y1)
    return float((y1 ** -gamma_par + y2 ** -gamma_par) ** (-1.0 / gamma_par))


@dataclass(frozen=True)
class MomentPartition:
    '''One term of the mixed-moment sum: distinct score-exponent vectors
    (the blocks) with their multiplicities.'''
    vectors: tuple
    multiplicities: tuple

    @property
    def block_count(self):
        return len(self.vectors)

    @property
    def k(self):
        return int(sum(self.multiplicities))


def _vector_key(vec):
    return (sum(vec),) + tuple(vec)


def enumerate_moment_partitions(q, k):
    '''
    All ways of writing the exponent vector q as sum_i eta_i * s_i with
    k = sum_i eta_i blocks: distinct nonzero integer vectors s_i (listed in
    increasing (|s|, s_1, ..., s_d) order) and positive multiplicities.
    '''
    q = tuple(int(x) for x in q)
    if any(x < 0 for x in q):
        raise ValueError('q must be nonnegative')
    if sum(q) > 6:
        raise ValueError('moment order above 6 is not supported')
    if k < 1 or k > sum(q):
        return []
    d = len(q)
    ranges = [range(x + 1) for x in q]
    candidates = sorted(
        (vec for vec in itertools.product(*ranges) if any(vec)),
        key=_vector_key)
    results = []

    def recurse(start, remaining, blocks_left, chosen):
        if blocks_left == 0:
            if all(r == 0 for r in remaining):
                vectors = tuple(v for v, _ in chosen)
                etas = tuple(e for _, e in chosen)
                results.append(MomentPartition(vectors, etas))
            return
        for idx in range(start, len(candidates)):
            vec = candidates[idx]
            if any(v > r for v, r in zip(vec, remaining)):
                continue
            max_eta = min(blocks_left,
                          min(r // v for v, r in zip(vec, remaining) if v))
            for eta in range(1, max_eta + 1):
                rem = tuple(r - eta * v for v, r in zip(vec, remaining))
                recurse(idx + 1, rem, blocks_left - eta,
                        chosen + [(vec, eta)])

    recurse(0, q, k, [])
    return results


def _directing_moment(spec, m):
    '''int z^m nu*(z) dz for integer m >= 1, kappa at v = 0 without its
    score factor.'''
    rule = TiltRule(spec, np.zeros(spec.dimension))
    return math.exp(rule.log_integral(lambda log_z: 0.0, m, m))


def mixed_moment(spec, q, region_mass):
    '''
    E[prod_j mu_j(A)^{q_j}] for a region of centring mass region_mass,
    by the moment-partition expansion over shared jumps.
    '''
    q = np.asarray(q)
    if q.ndim != 1 or q.size != spec.dimension:
        raise ValueError('q must be a vector of length %d' % spec.dimension)
    if np.any(q < 0):
        raise ValueError('q must be nonnegative')
    if not region_mass > 0.0:
        raise ValueError('region mass must be positive')
    total_q = int(q.sum())
    if total_q == 0:
        return 1.0
    if total_q > 6:
        raise ValueError('moment order above 6 is not supported')
    if spec.marginal.kind == 'sigma-stable':
        raise ValueError('mixed moments diverge for sigma-stable marginals: '
                         'the directing intensity has no finite moments')
    shape = spec.shape
    moments = {m: _directing_moment(spec, m) for m in range(1, total_q + 1)}
    total = 0.0
    for k in range(1, total_q + 1):
        level = 0.0
        for part in enumerate_moment_partitions(q, k):
            term = 1.0
            for vec, eta in zip(part.vectors, part.multiplicities):
                log_c = float(sum(gammaln(shape + sl) - gammaln(shape)
                                  - gammaln(sl + 1.0) for sl in vec))
                block = math.exp(log_c) * moments[sum(vec)]
                term *= block ** eta / math.factorial(eta)
            level += term
        total += region_mass ** k * level
    log_qfact = float(sum(gammaln(x + 1.0) for x in q))
    return math.exp(log_qfact) * total


def marginal_exponent(marginal, lam):
    '''Closed univariate Laplace exponent of the marginal process.'''
    lam = np.asarray(lam, dtype=float)
    if marginal.kind == 'gamma':
        return np.log1p(lam)
    if marginal.kind == 'sigma-stable':
        return lam ** marginal.sigma
    if marginal.kind == 'generalized-gamma':
        s, a = marginal.sigma, marginal.a
        # (a + lam)^s - a^s, without the cancellation of the difference
        # at small s or small lam / a
        return a ** s * np.expm1(s * np.log1p(lam / a))
    raise ValueError('unknown marginal family %r' % (marginal.kind,))


def _tilted_second_moment(marginal, lam):
    '''m2(lam) = int s^2 e^{-lam s} nu(s) ds over the marginal intensity.'''
    lam = np.asarray(lam, dtype=float)
    if marginal.kind == 'gamma':
        return (1.0 + lam) ** -2.0
    if marginal.kind == 'sigma-stable':
        s = marginal.sigma
        return s * (1.0 - s) * lam ** (s - 2.0)
    if marginal.kind == 'generalized-gamma':
        s, a = marginal.sigma, marginal.a
        return s * (1.0 - s) * (a + lam) ** (s - 2.0)
    raise ValueError('unknown marginal family %r' % (marginal.kind,))


def covariance_normalized(spec, mass_a, mass_b, mass_ab, total_mass,
                          rel_tol=1e-6):
    '''
    Correlation of the two normalised coordinate measures over regions A
    and B with centring masses mass_a, mass_b, intersection mass_ab, and
    total space mass total_mass.  The cross term is a double integral over
    the tilts (l1, l2) by nested QUADPACK rules (numerics.integrate);
    rel_tol is their relative tolerance, QUADPACK's epsrel.
    '''
    if spec.dimension != 2:
        raise ValueError('defined for dimension 2')
    if not (0.0 <= mass_ab <= min(mass_a, mass_b)
            and max(mass_a, mass_b) <= total_mass and total_mass > 0.0):
        raise ValueError('inconsistent region masses')
    bracket = mass_ab - mass_a * mass_b / total_mass
    if bracket == 0.0:
        return 0.0
    shape = spec.shape
    ones = np.array([1, 1])

    # the integrand is symmetric in (l1, l2), so integrate over the
    # wedge l2 < l1 and double
    def outer(l1):
        # psi(l1, l2) >= psi1(l1), so once the tilt underflows the whole
        # inner integral is numerically zero
        if total_mass * marginal_exponent(spec.marginal, l1) > 745.0:
            return 0.0

        def inner(l2):
            rule = TiltRule(spec, [l1, l2])
            return math.exp(rule.log_kappa(ones) - total_mass * rule.psi())

        return integrate(inner, 0.0, l1, rel_tol).value

    cross = 2.0 * integrate(outer, 0.0, np.inf, rel_tol).value

    def variance_integrand(lam):
        return (lam * _tilted_second_moment(spec.marginal, lam)
                * math.exp(-total_mass * marginal_exponent(spec.marginal, lam)))

    var_kernel = integrate(variance_integrand, 0.0, np.inf).value
    var_a = (mass_a - mass_a ** 2 / total_mass) * var_kernel
    var_b = (mass_b - mass_b ** 2 / total_mass) * var_kernel
    corr = bracket * cross / math.sqrt(var_a * var_b)
    if not abs(corr) <= 1.0:
        raise ValueError('correlation estimate %r lies outside [-1, 1]; '
                         'tighten rel_tol' % corr)
    return float(corr)
