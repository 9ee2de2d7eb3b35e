'''
Measure-level machinery for compound random measures.

A compound random measure (CoRM) is built from a directing Levy intensity
nu* on jump scales z and i.i.d. gamma scores: dimension j of the vector
measure puts mass m_{j,i} * J_i on atom i, with the J_i driven by nu* and
the scores Ga(shape).  Everything downstream (prior simulation, posterior
samplers) consumes the objects defined here: the directing intensity paired
with a requested marginal family, Laplace exponents, the multivariate
intensity rho_d, Levy copulas, mixed moments, the kappa integrals of the
marginal sampler, and the paper's worked example, the marginal that a
beta directing intensity induces.  The closed forms that only check
these (the Bessel-K marginals of gamma and generalized-gamma directing
intensities, and the partial-fraction exponent under exponential scores)
are oracles in the tests.
'''

import itertools
import math
from dataclasses import dataclass, field, replace
from functools import cache, cached_property, lru_cache, wraps

import numpy as np

from .numerics import IntegralResult, QuadratureError
# not called here: kept bound so the benchmark's tracer, which wraps
# corm.core.integrate, still finds it
from .numerics import integrate  # noqa: F401

__all__ = [
    'MarginalFamily',
    'LevyIntensity',
    'PowerEnvelope',
    'EnvelopeBand',
    'CoRMSpec',
    'directing_from_marginal',
    'beta_directed_marginal',
    'marginal_intensity',
    'laplace_exponent',
    'marginal_exponent',
    'rho_density',
    'TiltRule',
    'RuleNodes',
    'log_kappa',
    'kappa',
    'levy_copula',
    'clayton_copula',
    'mixed_moment',
    'covariance_normalized',
]


@dataclass(frozen=True)
class MarginalFamily:
    '''Marginal process family of each coordinate: gamma, sigma-stable
    with index sigma, or generalized gamma with index sigma and rate a.'''
    kind: str
    sigma: float = None
    a: float = None

    # the parameters each kind takes
    _KINDS = {'gamma': (), 'sigma-stable': ('sigma',),
              'generalized-gamma': ('sigma', 'a')}

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError('unknown marginal family %r' % (self.kind,))
        for name in ('sigma', 'a'):
            if name not in self._KINDS[self.kind] \
                    and getattr(self, name) is not None:
                raise ValueError('the %s family takes no parameter %s'
                                 % (self.kind, name))
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
    lower_exponent          : the power p of density ~ s^p at the lower
                              end; p <= -1 encodes infinite activity
                              there.  The TiltRule's end-series rate
                              there is p + 1.
    upper_rate              : the TiltRule's end-series rate p + 1 at
                              the upper end (keyword only), for density
                              ~ (upper - s)^p at a finite end (beta for
                              the factor (1 - a s)^(beta-1)) or ~ s^p at
                              an infinite one (-sigma for s^(-1-sigma)).
                              None where the end is regular: a finite end
                              then takes rate 1, and an infinite one
                              decays faster than any power, which a
                              TiltRule cannot sum.
    tail_fn                 : vectorised tail integral
                              U(x) = int_x^upper density, required
                              (keyword only).
    log_density             : optional vectorised callable (z, gap) ->
                              log density(z), where gap = upper - z is
                              passed exactly, so a factor vanishing at a
                              finite upper end keeps full precision there.
    envelope                : optional PowerEnvelope bounding the density
                              with closed-form tails and inverses.  The
                              prior and the slice sampler draw the
                              intensity's points by thinning the
                              envelope's, so the directing intensities
                              (directing_from_marginal) all carry one;
                              the marginals' own intensities do not.

    The density is evaluated as .density(s).  Integrals against the
    intensity run on TiltRule nodes.  tail_integral and inverse_tail work
    on arrays; tail_integral is tail_fn inside the support.  inverse_tail
    inverts U by _invert_monotone, which solves on (0, inf): a level
    whose root lies below z = 1e-300 or above 1e300 raises ValueError, and
    so does a finite support.  log_density(z, gap) feeds the TiltRule
    nodes; it falls back to log(density(z)).
    '''

    def __init__(self, density, support, lower_exponent, *, tail_fn,
                 upper_rate=None, log_density=None, envelope=None):
        lo, hi = support
        if math.isinf(lo) or not hi > lo:
            raise ValueError('support must be a nonempty interval with finite lower end')
        self.density = density
        self.support = (float(lo), float(hi))
        self.lower_exponent = float(lower_exponent)
        self.upper_rate = upper_rate
        self._tail_fn = tail_fn
        self._log_density = log_density
        self.envelope = envelope
        # prior truncation by tail_mass (the level and what a draw needs
        # there), filled by prior.sample_corm
        self._truncations = {}

    def log_density(self, z, gap):
        '''log density(z) at points z with gap = upper - z.'''
        if self._log_density is None:
            # a density rounding to 0 near an end is a zero weight there
            with np.errstate(divide='ignore'):
                return np.log(self.density(z))
        return self._log_density(z, gap)

    def tail_integral(self, x):
        '''U(x) = integral of the density over (x, upper), elementwise
        over an array of points.  One float inside the support goes to
        tail_fn as a float.'''
        lo, hi = self.support
        if isinstance(x, float) and lo < x < hi:
            return float(self._tail_fn(x))
        x = np.asarray(x, dtype=float)
        out = np.where(x <= lo, np.inf, 0.0)
        inside = (x > lo) & (x < hi)
        out[inside] = self._tail_fn(x[inside])
        return float(out) if out.ndim == 0 else out

    def inverse_tail(self, level):
        '''Solve U(x) = level for x, elementwise over an array of
        levels; U is strictly decreasing.  Only on a support (0, inf): the
        points of a directing intensity on (0, 1/a) are drawn by thinning
        its envelope, which inverts nothing.'''
        if not math.isinf(self.support[1]):
            raise ValueError('inverse_tail needs a support (0, inf), not '
                             '%r' % (self.support,))
        levels = np.asarray(level, dtype=float)
        if not np.all(levels > 0.0):
            raise ValueError('tail level must be positive')
        x = _invert_monotone(self.tail_integral, self.density, levels,
                             np.ones_like)
        return float(x) if x.ndim == 0 else x


_Z_FLOOR, _Z_CEIL = 1e-300, 1e300
_SOLVER_STEPS = 100


def _invert_monotone(fn, slope, level, start, increasing=False):
    '''
    Solve fn(z) = level elementwise on (0, inf) for a positive strictly
    monotone fn with |fn'| = slope.  Newton steps on log fn against log
    z, exact for a power law, inside a bracket kept per element; a step
    that leaves the bracket is replaced by geometric bisection, and of
    the two bracket ends the one with the smaller level residual is
    returned.  Only unconverged elements are iterated.  A root below z =
    1e-300 or above 1e300 raises ValueError, and an element unconverged
    after _SOLVER_STEPS steps raises RuntimeError.
    '''
    level = np.asarray(level, dtype=float)
    y = level.ravel()
    log_y = np.log(y)
    z = np.clip(np.asarray(start(y), dtype=float), _Z_FLOOR, _Z_CEIL)
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
            # a step past the representable range stops at its edge
            step = np.minimum(np.maximum(z * np.exp(dt), _Z_FLOOR), _Z_CEIL)
            lo = np.where(above, z, lo)
            hi = np.where(above, hi, z)
            r_lo = np.where(above, np.abs(g), r_lo)
            r_hi = np.where(above, r_hi, np.abs(g))
            # a steep fn may never bring the level residual to 1e-11, but
            # its steps shrink below 1e-13, or its bracket closes to 1e-13
            done = (np.abs(g) <= 1e-11) | (np.abs(dt) <= 1e-13) \
                | (hi <= lo * (1.0 + 1e-13))
            lost = ~done & ((~above & (z <= _Z_FLOOR))
                            | (above & (z >= _Z_CEIL)))
            if lost.any():
                raise ValueError('level %r has its root outside (%g, %g)'
                                 % (y[todo][lost][0], _Z_FLOOR, _Z_CEIL))
            if done.any():
                # z is one end of the bracket; keep the closer end
                out[todo[done]] = np.where(r_lo < r_hi, lo, hi)[done]
                if done.all():
                    return out.reshape(level.shape)
                keep = ~done
                todo, step, lo, hi, r_lo, r_hi = (
                    x[keep] for x in (todo, step, lo, hi, r_lo, r_hi))
            bad = np.isnan(step) | (step <= lo) | (step >= hi)
            mid = np.sqrt(np.maximum(lo, _Z_FLOOR)) \
                * np.sqrt(np.minimum(hi, _Z_CEIL))
            z = np.where(bad, mid, step)
    raise RuntimeError('%d of %d levels unconverged after %d steps'
                       % (todo.size, out.size, _SOLVER_STEPS))


def _gamma_ratio(shape, sigma):
    '''Gamma(shape) / Gamma(shape + sigma) for 0 <= sigma < 1, as a
    quotient of math.gamma values, exact to a few ulp; a difference of
    log-gammas cancels at large shapes (1.8e-13 at shape 150).  Past
    math.gamma's range, at shape + sigma >= 170, it is that difference.'''
    top = shape + sigma
    # top - (shape + sigma) exactly (Knuth's two-sum); it moves
    # Gamma(top) by the factor 1 + lost psi(top), 3e-14 at shape 100,
    # and psi(t) = psi(t + 1) - 1/t ~ log(t + 1) - 1/(2 (t + 1)) - 1/t
    # is exact enough for that
    part = top - shape
    lost = (shape - (top - part)) + (sigma - part)
    psi = math.log1p(top) - 0.5 / (1.0 + top) - 1.0 / top
    if top < 170.0:
        ratio = math.gamma(shape) / math.gamma(top)
    else:
        ratio = math.exp(math.lgamma(shape) - math.lgamma(top))
    return ratio * (1.0 - lost * psi)


def _stable_coefficient(shape, sigma):
    # normalised so the induced marginal exponent is exactly lambda^sigma
    return sigma * _gamma_ratio(shape, sigma) / math.gamma(1.0 - sigma)


def _boxcox(x, lam):
    '''The Box-Cox transform (x^lam - 1) / lam, log x at lam = 0,
    elementwise over x >= 0; at x = 0 its limit, without a warning.  A
    single positive point skips np.errstate, which costs more than the
    arithmetic; it keeps numpy's log and expm1, whose doubles differ from
    math's.'''
    if np.size(x) == 1 and x > 0.0:
        log_x = np.log(x)
    else:
        with np.errstate(divide='ignore'):
            log_x = np.log(x)
    return log_x if lam == 0.0 else np.expm1(lam * log_x) / lam


def _inv_boxcox(y, lam):
    '''The inverse of _boxcox in x: (1 + lam y)^(1/lam), e^y at lam = 0.'''
    return np.exp(y) if lam == 0.0 else np.exp(np.log1p(lam * y) / lam)


def _beta_type(marginal, shape):
    '''(c, sigma, a, beta) of the directing intensity c z^(-1-sigma)
    (1 - a z)^(beta-1) of a gamma or generalized-gamma marginal.'''
    if marginal.kind == 'gamma':
        return 1.0, 0.0, 1.0, shape
    sigma = marginal.sigma
    return _stable_coefficient(shape, sigma), sigma, marginal.a, sigma + shape


_LD = np.longdouble
# _beta_tail_constant sums the first _K0_TERMS terms of its series and the
# rest from Stirling's series, whose Bernoulli coefficients B_2j / (2j
# (2j - 1)) of lnGamma and B_2j / 2j of digamma, j <= 7, it takes: the
# next terms move k0 by below 1e-19 of itself
_K0_TERMS = 16
_K0_SHIFTS = np.arange(_K0_TERMS, dtype=_LD)
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188,
             -691 / 360360, 1 / 156)
_PSI_ASYMPTOTIC = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132,
                   -691 / 32760, 1 / 12)


def _stirling_difference(sigma, y):
    '''lnGamma(y) - lnGamma(y - sigma) - sigma log y + (sigma + 1/2)
    sigma / y at y >= 17, the part of Stirling's series free of
    cancellation for a small sigma: (y - sigma - 1/2) (-log1p(-v) - v),
    v = sigma / y, in extended precision, plus the Bernoulli terms c_j
    y^(1-2j) (1 - (1 - v)^(1-2j)), at most 3e-4 of sigma, in doubles.'''
    v = sigma / y
    log_gap = np.log1p(-v)
    gap, bernoulli, power = float(log_gap), 0.0, 1.0 / float(y)
    for j, c in enumerate(_STIRLING):
        bernoulli -= c * power * math.expm1(-(2 * j + 1) * gap)
        power /= float(y) ** 2
    return (y - sigma - 0.5) * (-log_gap - v) + bernoulli


def _beta_tail_constant(sigma, beta):
    '''k0 = lim_{x->0} G(x) - L(x) of the beta-type unit tail (see
    directing_from_marginal), to about half an ulp.'''
    # k0 = B(-sigma, beta) + 1/sigma = -expm1(E)/sigma with E =
    # lnGamma(1-sigma) + lnGamma(beta) - lnGamma(beta-sigma) (DLMF 8.17),
    # and -digamma(beta) - euler_gamma at sigma 0.  By Gauss's product for
    # Gamma, E = sum_k log1p(sigma c_k), c_k = (beta - 1) / ((1 - sigma +
    # k)(beta + k)): every term has the sign of beta - 1, so the sum does
    # not cancel, and E / sigma -> sum_k c_k = digamma(beta) + euler_gamma
    # at sigma 0.  The first 16 terms are summed, and the rest is
    # lnGamma(beta + 16) - lnGamma(beta - sigma + 16) less the same at
    # beta = 1, by Stirling's series (digamma's at sigma 0).  In extended
    # precision (64-bit significands on x86): near x_switch G(x) is k0
    # less terms of about its size (G is 1% of k0 at sigma 0.9, beta
    # 100.9), so an ulp of k0 is a hundred ulps of G there
    s, b = _LD(sigma), _LD(beta)
    y_beta, y_one = b + _K0_TERMS, _LD(1 + _K0_TERMS)
    coefs = (b - 1) / ((1 - s + _K0_SHIFTS) * (b + _K0_SHIFTS))
    lead = np.log1p((b - 1) / y_one)
    if sigma == 0.0:
        # digamma(y) = log y - 1/(2y) - sum_j (B_2j / 2j) y^(-2j), where
        # y_beta^-m - y_one^-m = y_one^-m expm1(-m lead) keeps a k0 near
        # beta = 1 to its last bits
        rest = 0.5 * (beta - 1.0) / float(y_beta * y_one)
        for j, c in enumerate(_PSI_ASYMPTOTIC, 1):
            rest -= c * float(y_one) ** (-2 * j) * math.expm1(
                -2 * j * float(lead))
        return -float(coefs.sum() + lead + rest)
    big_e = (np.log1p(s * coefs).sum() + s * lead
             + (s + 0.5) * s * (b - 1) / (y_beta * y_one)
             + _stirling_difference(s, y_beta) - _stirling_difference(s, y_one))
    e_rate = big_e / s
    # -expm1(E) / sigma as E's exprel (1 at E = 0) times e_rate
    return float(-e_rate if big_e == 0 else -np.expm1(big_e) / big_e * e_rate)


def _beta_series(sigma, beta, x_switch):
    '''Exponents k - sigma and coefficients c_k / (k - sigma), c_k =
    (-1)^k C(beta-1, k), of the series sum_k c_k x^(k-sigma) / (k-sigma)
    in the beta-type unit tail, cut to the terms that count at x <=
    x_switch.'''
    # Cut once, at x_switch, the largest x the series is evaluated at,
    # where a term falls below 1e-22 of the first (32 of 60 terms at
    # sigma 0.3, beta 2.3; one at sigma 0 and beta 2, where the series is
    # a polynomial).  A term below 1e-17 of the first cannot move the
    # rounded sum, but the dot product keeps partial sums of the later,
    # smaller terms, whose last bits terms near 1e-18 still move: cut
    # there, the tail differed from the 60-term one in the last bit at
    # about 2e-4 of the points near x_switch; cut at 1e-22, at none tried.
    ks = np.arange(1.0, 61.0)
    exponents = ks - sigma
    coefs = np.cumprod((ks - beta) / ks) / exponents
    sizes = np.abs(coefs) * x_switch ** exponents
    n = np.flatnonzero(sizes > 1e-22 * sizes[0]).max(initial=-1) + 1
    return exponents[:n], coefs[:n]


# candidate splits of a band, uniform in log t
_SPLIT_GRID = np.linspace(0.0, 1.0, 33)


class PowerEnvelope:
    '''
    A closed-form envelope of the directing intensity nu*(z) = c
    z^(-1-sigma) (1 - a z)^(beta-1) on (0, 1/a), or of the sigma-stable
    c z^(-1-sigma) on (0, inf) (a = 0, beta = 1), for drawing points of
    nu* by thinning (Lewis & Shedler 1979): the points of a Poisson
    process of intensity g >= nu*, each kept with probability nu*/g, are
    a Poisson process of intensity nu*.

    On a band (lower, upper) with a split t in [lower, upper], g has two
    pieces, each with a closed-form tail and inverse:

    - power: c (1 - a b)^(beta-1) z^(-1-sigma) on (lower, t), kept with
      probability ((1 - a z) / (1 - a b))^(beta-1), where b is the end at
      which (1 - a z)^(beta-1) is largest: lower at beta >= 1, t at
      beta < 1.  Its tail is a Box-Cox transform of z / t, and its
      inverse one power.
    - beta: c t^(-1-sigma) (1 - a z)^(beta-1) on (t, upper), kept with
      probability (z / t)^(-1-sigma).  Its tail is c t^(-1-sigma)
      ((1 - a z)^beta - (1 - a upper)^beta) / (a beta).

    At beta >= 1, t = upper and only the power piece is left; for
    sigma-stable it is nu* itself.  At beta < 1, (1 - a z)^(beta-1) is
    unbounded at 1/a: a larger t tightens the beta piece's bound
    t^(-1-sigma) on z^(-1-sigma) and loosens the power piece's bound
    (1 - a t)^(beta-1), and split picks the t of least mass.
    '''

    def __init__(self, c, sigma, a, beta):
        self.c, self.sigma = float(c), float(sigma)
        self.a, self.beta = float(a), float(beta)
        self.top = 1.0 / self.a if self.a > 0.0 else math.inf
        if math.isinf(self.top) and (self.beta != 1.0 or not sigma > 0.0):
            raise ValueError('an envelope on (0, inf) needs beta = 1 and '
                             'sigma > 0')

    def _integral(self, lower, t):
        '''int_lower^t z^(-1-sigma) dz, with t = inf on (0, inf).'''
        if math.isinf(self.top):
            return lower ** -self.sigma / self.sigma
        return -t ** -self.sigma * _boxcox(lower / t, -self.sigma)

    def _inverse(self, y, t):
        '''z with int_z^t s^(-1-sigma) ds = y: t (1 + sigma y
        t^sigma)^(-1/sigma), t e^-y at sigma = 0.'''
        sigma = self.sigma
        if math.isinf(self.top):
            return (sigma * y) ** (-1.0 / sigma)
        return t * _inv_boxcox(-y * t ** sigma, -sigma)

    def _pieces(self, lower, upper, t):
        '''(power coefficient, power mass, beta coefficient, beta mass)
        of the envelope on (lower, upper) split at t.'''
        c, sigma, a, beta = self.c, self.sigma, self.a, self.beta
        with np.errstate(divide='ignore', invalid='ignore', over='ignore'):
            if beta >= 1.0:
                coef = c * (1.0 - a * lower) ** (beta - 1.0)
                return coef, coef * self._integral(lower, t), 0.0, 0.0
            gap = 1.0 - a * t
            coef = c * gap ** (beta - 1.0)
            beta_coef = c * t ** (-1.0 - sigma)
            # (1 - a t)^beta - (1 - a upper)^beta, free of cancellation in
            # a narrow band; 0 where the piece is empty
            ratio = np.maximum(1.0 - a * upper, 0.0) / gap
            beta_mass = np.where(t < upper, beta_coef * gap ** beta
                                 * -np.expm1(beta * np.log(ratio))
                                 / (a * beta), 0.0)
            return coef, coef * self._integral(lower, t), beta_coef, beta_mass

    def split(self, lower, upper):
        '''The split t in [lower, upper] of least envelope mass on each
        band (lower, upper), lower > 0: the best of 33 points uniform in
        log t.  Any t gives an exact envelope; the search only sets the
        acceptance rate, and the mass is flat near its minimum: on the
        prior's band (1e-9, 1) at generalized gamma (0.3, 1), shape 0.4,
        the grid's t has 0.8% more mass than the best t.'''
        lower, upper = np.broadcast_arrays(np.asarray(lower, dtype=float),
                                           np.asarray(upper, dtype=float))
        if self.beta >= 1.0:
            return upper
        lo, hi = lower.reshape(-1, 1), upper.reshape(-1, 1)
        t = np.minimum(lo * (hi / lo) ** _SPLIT_GRID, hi)
        _, power_mass, _, beta_mass = self._pieces(lo, hi, t)
        best = np.argmin(power_mass + beta_mass, axis=1)
        return t[np.arange(t.shape[0]), best].reshape(lower.shape)

    def band(self, lower, upper=None, split=None):
        '''The envelope on the bands (lower, upper), upper defaulting to
        the end of the support, split at split (by default, the split
        of least mass; lower = 0 needs one given at beta < 1).'''
        if upper is None:
            upper = self.top
        if split is None:
            split = self.split(lower, upper)
        return EnvelopeBand(self, lower, upper, split)

    def power_level(self, y):
        '''z with int_z^top c s^(-1-sigma) ds = y: where the pure power
        law c z^(-1-sigma) has mass y above z.  A z that rounds up to top
        (a small y / c) is the largest double below it.'''
        z = self._inverse(np.asarray(y, dtype=float) / self.c, self.top)
        return np.minimum(z, np.nextafter(self.top, 0.0))


class EnvelopeBand:
    '''
    A PowerEnvelope on the bands (lower, upper) split at t: arrays of
    one shape, one entry per band.  mass is the envelope's mass on each
    band (infinite at lower = 0).  points(y) maps levels y in (0, mass],
    the envelope's mass above the point, to the points, decreasing in y:
    uniform levels give its normalised law (propose) and the arrival
    times of a unit-rate Poisson process its points in decreasing order.
    A beta-piece point lies below upper exactly; one that rounds up to
    upper becomes the largest double below it.  keep(z) is nu*(z) over
    the envelope, the thinning probability, and 0 outside the open
    band, so a point on or past an end is rejected.  Both take the band
    of each entry from k, an index array into the bands (all bands,
    elementwise, when None).
    '''

    def __init__(self, envelope, lower, upper, split):
        self.envelope = e = envelope
        self.lower, self.upper, self.split = np.broadcast_arrays(
            *(np.asarray(x, dtype=float) for x in (lower, upper, split)))
        self.power_coef, power_mass, self.beta_coef, self.beta_mass = \
            e._pieces(self.lower, self.upper, self.split)
        self.mass = power_mass + self.beta_mass
        # 1 - a b at the power piece's bound point b, and, for the beta
        # piece, (1 - a upper)^beta
        bound_at = self.lower if e.beta >= 1.0 else self.split
        self.bound_gap = 1.0 - e.a * bound_at
        if e.beta < 1.0:
            self.upper_power = np.maximum(1.0 - e.a * self.upper,
                                          0.0) ** e.beta

    def _take(self, k, *names):
        return [getattr(self, name) if k is None else getattr(self, name)[k]
                for name in names]

    def points(self, y, k=None):
        e = self.envelope
        y = np.asarray(y, dtype=float)
        coef, split = self._take(k, 'power_coef', 'split')
        if e.beta >= 1.0:
            return e._inverse(y / coef, split)
        beta_mass, beta_coef, upper_power, upper = (np.broadcast_to(
            x, y.shape) for x in self._take(
                k, 'beta_mass', 'beta_coef', 'upper_power', 'upper'))
        coef, split = (np.broadcast_to(x, y.shape) for x in (coef, split))
        on_beta = y < beta_mass
        on_power = ~on_beta
        z = np.empty_like(y)
        z[on_power] = e._inverse((y - beta_mass)[on_power]
                                 / coef[on_power], split[on_power])
        # (1 - a z)^beta = (1 - a upper)^beta + y a beta / coef, so z <
        # upper at y > 0.  At a small beta the 1/beta power underflows
        # for a tiny y, or 1 - gap rounds to 1, and z rounds to upper:
        # such a point is the largest double below upper.  Rejecting it
        # would drop the nu* mass within half an ulp of 1/a, (2^-54)^beta
        # / beta at a = c = 1 and sigma = 0: 3.1 jumps of height near 1
        # a prior draw at beta 0.05
        gap = (upper_power[on_beta] + y[on_beta] * (e.a * e.beta)
               / beta_coef[on_beta]) ** (1.0 / e.beta)
        z[on_beta] = np.minimum((1.0 - gap) / e.a,
                                np.nextafter(upper[on_beta], 0.0))
        return z

    def propose(self, u, k=None):
        '''Points of the envelope's normalised law at uniforms u in
        [0, 1), and their thinning probabilities.'''
        mass = self.mass if k is None else self.mass[k]
        z = self.points((1.0 - u) * mass, k)
        return z, self.keep(z, k)

    def keep(self, z, k=None):
        e = self.envelope
        z = np.asarray(z, dtype=float)
        lower, upper = self._take(k, 'lower', 'upper')
        inside = (z > lower) & (z < upper)
        if e.beta == 1.0:
            return inside.astype(float)
        (bound_gap,) = self._take(k, 'bound_gap')
        with np.errstate(divide='ignore', invalid='ignore', over='ignore'):
            p = ((1.0 - e.a * z) / bound_gap) ** (e.beta - 1.0)
            if e.beta < 1.0:
                (split,) = self._take(k, 'split')
                p = np.where(z <= split, p, (z / split) ** (-1.0 - e.sigma))
        return np.where(inside, p, 0.0)


def directing_from_marginal(marginal, shape):
    '''Directing intensity nu* whose compound with Ga(shape) scores has
    the requested marginal process in every coordinate.  Generalized gamma
    gives c z^(-1-sigma) (1 - a z)^(beta-1) on (0, 1/a), beta = sigma +
    shape, and gamma is its member sigma = 0, a = 1, c = 1.  Each
    intensity carries its PowerEnvelope.'''
    if not shape > 0.0:
        raise ValueError('score shape must be positive')
    if marginal.kind == 'sigma-stable':
        sigma = marginal.sigma
        c = _stable_coefficient(shape, sigma)

        def density(z):
            return c * np.asarray(z, dtype=float) ** (-1.0 - sigma)

        return LevyIntensity(
            density, (0.0, np.inf), -1.0 - sigma, upper_rate=-sigma,
            tail_fn=lambda x: c / sigma * np.power(x, -sigma),
            log_density=lambda z, gap: (math.log(c)
                                        - (1.0 + sigma) * np.log(z)),
            envelope=PowerEnvelope(c, sigma, 0.0, 1.0))
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
    # transform -_boxcox(x, -sigma), and c_k = (-1)^k C(beta-1, k); away
    # from zero it is the incomplete-beta hypergeometric.  Switching at
    # x = 1/beta bounds the series terms by 1/k!, so they do not cancel.
    # The series keeps only the terms that count at x_switch (about 30,
    # not 60).  Uncut, the power matrix x^(k-sigma) underflows in its
    # last columns at the jumps near 1e-9 of a prior draw, where pow takes
    # its slow subnormal path: that was most of a draw's time.
    x_switch = min(0.3, 1.0 / beta)

    @cache
    def terms():
        # the series and k0, built on the first tail call below x_switch:
        # a spec build (with_shape in every urn sweep) and a prior draw
        # never read them
        exponents, series_coefs = _beta_series(sigma, beta, x_switch)
        return exponents, series_coefs, _beta_tail_constant(sigma, beta)

    def series_tail(x):
        # G(x) at x <= x_switch, an array of x or one float.  Each point's
        # series is a dot product of its own (a stack of one-row
        # matrices), so its value does not depend on the batch it is
        # computed in: a matrix-vector product over the batch rounds
        # differently from one row
        exponents, series_coefs, k0 = terms()
        powers = np.power.outer(x, exponents)[..., None, :]
        return k0 - _boxcox(x, -sigma) - (powers @ series_coefs)[..., 0]

    def beta_tail(x):
        # G(x) at x > x_switch, an array of x or one float
        from scipy.special import hyp2f1  # on first use: see numerics
        # at sigma 0 (c = a + b) scipy's hyp2f1 is off by up to 7e-11
        # for w > 0.9 and beta near 100; the mean of its values at
        # sigma = +-1e-8 is off by about 1e-16 log(x)^2 instead
        w = np.subtract(1.0, x)
        f = hyp2f1(beta, 1.0 + sigma, beta + 1.0, w) if sigma else 0.5 * (
            hyp2f1(beta, 1.0 + 1e-8, beta + 1.0, w)
            + hyp2f1(beta, 1.0 - 1e-8, beta + 1.0, w))
        return np.power(w, beta) / beta * f

    def tail(z):
        if isinstance(z, float):
            # the array path's numpy operations at one point (the same
            # doubles) without its masks and copies
            x = min(max(a * z, 1e-300), 1.0)
            return scale * float(series_tail(x) if x <= x_switch
                                 else beta_tail(x))
        z = np.asarray(z, dtype=float)
        x = np.atleast_1d(np.clip(a * z, 1e-300, 1.0))
        low = x <= x_switch
        out = np.empty_like(x)
        if low.any():
            out[low] = series_tail(x[low])
        if not low.all():
            out[~low] = beta_tail(x[~low])
        return scale * out.reshape(z.shape)

    return LevyIntensity(density, (0.0, 1.0 / a), -1.0 - sigma,
                         tail_fn=tail, upper_rate=beta,
                         log_density=log_density,
                         envelope=PowerEnvelope(c, sigma, a, beta))


def marginal_intensity(marginal):
    '''Closed-form Levy intensity of the marginal process itself.'''
    from scipy.special import exp1, gammaincc  # on first use: see numerics
    if marginal.kind == 'gamma':
        def density(s):
            s = np.asarray(s, dtype=float)
            return np.exp(-s) / s

        return LevyIntensity(density, (0.0, np.inf), -1.0, tail_fn=exp1)
    if marginal.kind == 'sigma-stable':
        sigma = marginal.sigma
        c = sigma / math.gamma(1.0 - sigma)

        def density(s):
            return c * np.asarray(s, dtype=float) ** (-1.0 - sigma)

        return LevyIntensity(
            density, (0.0, np.inf), -1.0 - sigma, upper_rate=-sigma,
            tail_fn=lambda x: np.power(x, -sigma) / math.gamma(1.0 - sigma))
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

        return LevyIntensity(density, (0.0, np.inf), -1.0 - sigma,
                             tail_fn=tail)
    raise ValueError('unknown marginal family %r' % (marginal.kind,))


def _pointwise(fn):
    '''fn, a function of one point s > 0, over an array of points (a
    float at a float).'''
    def vectorised(s):
        s = np.asarray(s, dtype=float)
        if not np.all(s > 0.0):
            raise ValueError('the intensity needs s > 0')
        out = np.array([fn(x) for x in s.ravel().tolist()])
        return float(out[0]) if s.ndim == 0 else out.reshape(s.shape)
    return vectorised


def beta_directed_marginal(shape, theta):
    '''
    Marginal Levy intensity rho(s) = int z^-1 f(s / z) nu(z) dz that the
    beta directing intensity nu(z) = z^-1 (1-z)^(theta-1) induces under
    Ga(shape) scores, f their density: the paper's worked example.  That
    nu is a gamma marginal's directing intensity at score shape theta, so
    rho and its tail (the mixture of the survival Q(shape, x / z)) run on
    that spec's TiltRule nodes; the tests hold the closed form of rho,
    Gamma(theta) / Gamma(shape) s^(shape-1) e^-s U(theta, shape + 1, s).
    '''
    if not shape > 0.0:
        raise ValueError('score shape must be positive')
    if not theta > 0.0:
        raise ValueError('beta directing needs theta > 0')
    # _beta_type's c = 1, sigma = 0, a = 1 and beta = theta
    spec = CoRMSpec(1, theta, MarginalFamily.gamma())

    def tail(x):
        from scipy.special import gammaincc  # on first use: see numerics

        def log_weight(log_z):
            # a survival factor underflowing to 0 is a zero weight
            with np.errstate(divide='ignore'):
                return np.log(gammaincc(shape, x * np.exp(-log_z)))

        # Q(shape, x / z) falls off faster than any power below its
        # scale z = x / shape
        return math.exp(TiltRule(spec, [shape / x]).log_integral(
            log_weight, None))

    return LevyIntensity(
        _pointwise(lambda s: _rho_by_mixture(spec, [s], shape)),
        (0.0, np.inf), -1.0, tail_fn=_pointwise(tail))


@dataclass(frozen=True, eq=False)
class CoRMSpec:
    '''
    Full specification of a compound random measure: dimension, the shape
    of the Ga(shape, 1) scores, marginal family, and the centring
    measure's total mass.  The directing intensity is not a parameter: the
    marginal and the score shape fix it, and __post_init__ derives it
    (directing_from_marginal, which raises ValueError at a shape <= 0).
    Each derivation is a new object, so a spec equals and hashes only as
    itself (identity).  The centring measure is centring_mass times
    Uniform(0, 1): prior draws place their atoms uniformly, and a caller
    with another centring distribution maps the locations through its
    inverse CDF.

    CoRMSpec(...) builds a spec without checks beyond these;
    from_marginal() takes the same arguments and also verifies the
    directing intensity numerically: the Laplace exponent of one
    coordinate must match the marginal's closed form.  with_shape()
    rebuilds for a new score shape without the re-verification, for use
    inside samplers.
    '''
    dimension: int
    shape: float
    marginal: MarginalFamily
    centring_mass: float = 1.0
    directing: LevyIntensity = field(init=False)

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError('dimension must be at least 1')
        if not self.centring_mass > 0.0:
            raise ValueError('centring mass must be positive')
        object.__setattr__(self, 'directing',
                           directing_from_marginal(self.marginal, self.shape))

    @classmethod
    def from_marginal(cls, dimension, shape, marginal, centring_mass=1.0):
        spec = cls(dimension, shape, marginal, centring_mass)
        # the first coordinate's Laplace exponent, by the tilt rule on the
        # directing intensity, against the marginal's closed form
        first = np.eye(dimension)[0]
        for lam in (0.1, 1.0, 10.0):
            got = TiltRule(spec, lam * first).psi()
            want = float(marginal_exponent(marginal, lam))
            if not abs(got - want) <= 1e-9 * want:
                raise ValueError(
                    'directing intensity is inconsistent with the '
                    'requested marginal at lam=%g (%.17g vs %.17g)'
                    % (lam, got, want))
        return spec

    def with_shape(self, shape):
        return replace(self, shape=shape)

    @cached_property
    def rule_nodes(self):
        '''The RuleNodes on the whole support, finite or not, shared by
        every TiltRule(spec, v) of this spec.'''
        return RuleNodes(self, self.directing.support[1])


# the rule is cut where log1p(v z), 1 - z/upper and the like differ from
# their leading power by less than this relative amount
_PURE = 1e-17
# the step in t of the map u = s + sinh(t) (at most _DE_WIDTH / sqrt(d
# shape)), halved where a value fails its sub-rule check up to
# _DE_HALVINGS times, and the least reach |t| of its nodes at either end
_DE_STEP = 0.035
_DE_WIDTH = 0.06
_DE_HALVINGS = 3
_DE_REACH = 5.0


@lru_cache(maxsize=64)
def _de_grid(h, far_lo, far_hi):
    '''sinh(t), log(h cosh(t)) and each end's (|t|, step in u) at t = k h
    to |t| = _DE_REACH or asinh(far), a multiple of 2h: for every spec.'''
    n_lo, n_hi = (2 * math.ceil(max(_DE_REACH, math.asinh(far)) / (2 * h))
                  for far in (far_lo, far_hi))
    t = h * np.arange(-n_lo, n_hi + 1)
    sinh_t, log_h = np.sinh(t), np.log(h * np.cosh(t))
    sinh_t.flags.writeable = log_h.flags.writeable = False
    return sinh_t, log_h, tuple((n * h, h * math.cosh(n * h))
                                for n in (n_lo, n_hi))


def _sigmoid_terms(nu, log_h, u, upper):
    '''(log z, z, log(h |dz/du| nu*(z))) at the nodes u, log h their log
    weights in u, of the map z = upper exp(-softplus(-u)) onto (0, upper),
    with the gap upper - z = upper exp(-softplus(u)) exact.  nu* is given
    the gap to the end of its support as (end - upper) + (upper - z).'''
    log_z = math.log(upper) - np.logaddexp(0.0, -u)
    log_below = -np.logaddexp(0.0, u)
    z = np.exp(log_z)
    gap = (nu.support[1] - upper) + np.exp(math.log(upper) + log_below)
    return log_z, z, log_h + (log_z + log_below) + nu.log_density(z, gap)


class RuleNodes:
    '''
    The v-independent node terms of the TiltRules on (0, upper): the
    whole support (0, U), finite or not, or a truncation level upper < U,
    shared by the rules at every tilt v there (CoRMSpec.rule_nodes holds
    the spec's own, on the whole support); see TiltRule for the map.

    The nodes are double exponential (Takahasi & Mori 1974): u = s +
    sinh(t) at t = k h, h = _DE_STEP / 2^(k0 + level), s an integer.  On
    a finite support s = round(-log(v_max upper) / 2) (0 at v_max upper
    <= 1) puts the densest nodes between the scale 1/v_max of the largest
    tilt and the upper end.  On (0, inf) s = round(-log v_min), where the
    last factor 1 + v_min z turns into a power.  The kappa integrand
    peaks up to ten units of u past s at large counts and, at a large
    shape, within about 1/sqrt(d shape), and the nodes there are h
    cosh(t) apart: k0 is the least with h <= _DE_WIDTH / sqrt(d shape),
    at least 1 on (0, inf) (on it at d = 2, 573 nodes up to shape 5.8,
    1,145 up to 23).  Each end reaches |t| = 5 or where the terms turn pure
    exponentials in u (v_max z, 1/(v_min z) or 1 - z/upper < 1e-17), at a
    multiple of 2h, so both ends are sub-rule nodes.  terms lays out each
    (shift, reach, level) once: a value depends on spec and v only.
    '''

    def __init__(self, spec, upper):
        nu = spec.directing
        start, end = nu.support
        if start != 0.0:
            raise ValueError('the tilt rule needs a support starting at 0')
        if not 0.0 < upper <= end:
            raise ValueError('(0, %r) is not a stretch of the support'
                             % upper)
        self.finite = not math.isinf(upper)
        if not self.finite and nu.upper_rate is None:
            raise ValueError('the tilt rule needs the power decay of the '
                             'intensity at an infinite upper end')
        self.spec, self.upper = spec, float(upper)
        self.p_lo = nu.lower_exponent
        # the integrand keeps nu*'s power at its own end only
        self.upper_rate = float(nu.upper_rate) if (
            upper == end and nu.upper_rate is not None) else 1.0
        # the terms are pure exponentials in u below 2 s - pure_lo, where
        # v_max z < _PURE (1 more for the rounding of s), and above pure_hi,
        # where upper - z < _PURE of upper and of end - upper
        cut = -math.log(_PURE)
        self._pure = (cut + 1.0, cut if upper == end else cut + max(
            0.0, math.log(upper) - math.log(end - upper)))
        self._k0 = max(0 if self.finite else 1, math.ceil(math.log2(
            _DE_STEP * math.sqrt(spec.dimension * spec.shape) / _DE_WIDTH)))
        self._terms = {}

    def terms(self, v_max, v_min=None, level=0):
        '''(log z, z, log w, w, h, ((T_lo, du_lo), (T_hi, du_hi))) in
        increasing u at the nodes the tilt's largest positive entry, and
        on (0, inf) its smallest, call for: w = h cosh(t) |dz/du| nu*(z),
        and each end's reach |t| and step in u.  The key: s, each end's
        reach in u from s less pure_lo or pure_hi, and the level.'''
        if self.finite:
            shift = -round(0.5 * math.log(max(v_max * self.upper, 1.0)))
            key = shift, -shift, -shift, level
        else:
            # z = e^u is a pure power below u = -cut - log v_max and above
            # u = cut - log v_min, at most 1/2 past the rounded ones here
            shift = -round(math.log(v_min))
            key = shift, shift + round(math.log(v_max)), 1, level
        if key not in self._terms:
            h = _DE_STEP / 2 ** (self._k0 + level)
            sinh_t, log_h, ends = _de_grid(h, self._pure[0] + key[1],
                                           self._pure[1] + key[2])
            u, nu = shift + sinh_t, self.spec.directing
            if self.finite:
                terms = _sigmoid_terms(nu, log_h, u, self.upper)
            else:
                z = np.exp(u)
                terms = u, z, log_h + u + nu.log_density(z, math.inf)
            self._terms[key] = (*terms, np.exp(terms[2]), h, ends)
        return self._terms[key]


@lru_cache(maxsize=1024)
def _past(reach, step, rate):
    '''The terms of a TiltRule of step `step` past an end, over its end
    term, where they fall off as e^(-rate |u - u_end|): sum_m cosh(t_m) /
    cosh(T) e^(-rate (sinh t_m - sinh T)), t_m = T + m step, T = reach,
    until below e^-50.'''
    top = math.asinh(math.sinh(reach) + 50.0 / rate)
    t = reach + step * np.arange(1, math.ceil((top - reach) / step) + 1)
    return float(np.sum(np.cosh(t) * np.exp(
        -rate * (np.sinh(t) - math.sinh(reach))))) / math.cosh(reach)


@lru_cache(maxsize=64)
def _pair_weights(n):
    '''The read-only (2, n) weights of a rule on n nodes and its sub-rule.'''
    pair = np.vstack((np.ones(n), 2.0 - 2.0 * (np.arange(n) % 2)))
    pair.flags.writeable = False
    return pair


def _refined(method):
    '''A TiltRule method whose value, where it fails its sub-rule check,
    is taken on the rule of half the step instead (TiltRule.finer), up
    to _DE_HALVINGS times.'''
    @wraps(method)
    def refined(rule, *args, **kwargs):
        try:
            return method(rule, *args, **kwargs)
        except QuadratureError:
            if rule.level == _DE_HALVINGS:
                raise
            return getattr(rule.finer, method.__name__)(*args, **kwargs)
    return refined


def _check_tilt(v, dimension):
    '''v as a float array, which must be a finite, nonnegative vector of
    length dimension.'''
    v = np.asarray(v, dtype=float)
    if v.shape != (dimension,):
        raise ValueError('v must be a vector of length %d' % dimension)
    if not all(0.0 <= x < math.inf for x in v.tolist()):
        raise ValueError('v must be finite and nonnegative: %s' % v)
    return v


class TiltRule:
    '''
    One trapezoid node set for the integrals against nu* at a fixed tilt
    vector v: log kappa_a(v) for any count tuple a, psi(v) and its
    gradient, and log_integral, the integral of a general weight.  Every
    integral against a directing intensity in the package runs on these
    nodes.

    The rule is a trapezoid rule in a variable u in which an integrand
    with power behaviour at both ends decays exponentially, where it
    converges exponentially fast (Trefethen & Weideman 2014).  On a finite
    support (0, U), z = U exp(-softplus(-u)): z ~ U e^u as u -> -inf, and
    the gap U - z = U exp(-softplus(u)) is exact near U.  On (0, inf),
    z = e^u.  Either way the nodes are double exponential in u and reach
    where the integrand is a pure exponential in u; past them the rule's
    terms are summed in closed form (_past).

    The node terms come from a RuleNodes of the same spec: by default the
    spec's own (CoRMSpec.rule_nodes), or given ones truncated at L < U,
    z = L exp(-softplus(-u)) with nu*'s gap (U - L) + (L - z), where the
    integrand decays at rate 1 in u.  At an infinite end its rate adds
    the weight's power there to nu*'s.

    Per node the rule stores w nu*(z) and its log, w the node's weight in
    z, log z and log1p(v_j z); only the last depends on v.  log_kappa's
    node terms are one matrix-vector product (_kappa_terms), and a value's
    rule and sub-rule sums one product with the pair weights.  Every value
    is checked against the every-other-node sub-rule: above 1e-9 relative,
    the rule takes it again at half the step (finer), up to _DE_HALVINGS
    times, and then raises QuadratureError.  The end rates come from the
    directing intensity's lower_exponent and upper_rate.

    A general weight z^p exp(g(log z)) (log_integral) declares its power
    p at 0 and its power at an infinite upper end, which add to nu*'s in
    the end rates.  The tilt v sets how far the nodes reach, so a weight
    with a scale s of its own (a survival factor Q(shape, x/z), a density
    peaking at z = s) is integrated by a rule built at a tilt of 1/s.

    v must be a finite, nonnegative vector of length d.
    '''

    def __init__(self, spec, v, nodes=None, level=0):
        v = _check_tilt(v, spec.dimension)
        if nodes is None:
            nodes = spec.rule_nodes
        elif nodes.spec is not spec:
            raise ValueError('the nodes belong to another spec')
        self.spec, self.v, self.nodes, self.level = spec, v, nodes, level
        self.finite, self.upper_rate, self.p_lo = (
            nodes.finite, nodes.upper_rate, nodes.p_lo)
        self.positive = tuple(float(x > 0.0) for x in v.tolist())
        active = [x for x in v.tolist() if x > 0.0]
        self.log_z, z, self.log_w, self.w, self.h, self.ends = nodes.terms(
            max(active, default=1.0), min(active, default=1.0), level)
        self.log1p_vz = np.log1p(np.multiply.outer(v, z))
        self._pair = _pair_weights(z.size)

    @cached_property
    def finer(self):
        '''The rule on the same nodes at half the step in t.'''
        return TiltRule(self.spec, self.v, self.nodes, self.level + 1)

    def _end_rates(self, lower_power, tail_power):
        '''Decay rates in u of the integrand at the small-z and large-z
        ends, for a weight ~ z^lower_power at 0 (None: vanishing faster
        than any power, no end series, rate None) and ~ z^tail_power at an
        infinite upper end (at a finite one the weight is regular).'''
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

    def _rule_pair(self, f, sums, rate_lo, rate_hi, extra=()):
        '''The rule and its every-other-node sub-rule on the node terms
        f: sums, f's product with the pair weights, each plus its terms
        past the ends (_past) for (f[0], rate_lo), (f[-1], rate_hi) and
        each (c, rate, end) of extra, end 0 at small z and 1 at large z
        (rate None: none), unless below _PURE of the rule: at most c /
        (rate du), du the step in u at the end.'''
        full, half = sums
        cut = _PURE * full
        for c, rate, end in ((f.item(0), rate_lo, 0),
                             (f.item(-1), rate_hi, 1), *extra):
            reach, du = self.ends[end]
            if rate is not None and abs(c) > cut * rate * du:
                full += c * _past(reach, self.h, rate)
                half += 2.0 * c * _past(reach, 2.0 * self.h, rate)
        return full, half

    @_refined
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
        return self._log_sum(log_f + log_weight(self.log_z), rate_lo,
                             rate_hi)

    def _log_sum(self, log_f, rate_lo, rate_hi):
        '''log of the rule on the node terms exp(log_f), computed in place
        of log_f, with the end series of rates rate_lo (None: no series
        at 0) and rate_hi, checked against the every-other-node sub-rule.'''
        top = float(np.maximum.reduce(log_f))
        f = np.subtract(log_f, top, log_f)
        # a term below e^-700 (1e-304) cannot move a sum holding the top
        # term 1.0, and one that underflows sends exp down its slow path
        np.maximum(f, -700.0, out=f)
        np.exp(f, f)
        full, half = self._rule_pair(f, np.dot(self._pair, f).tolist(),
                                     rate_lo, rate_hi)
        full = math.log(full)
        half = math.log(half) if half > 0.0 else -math.inf
        if not abs(full - half) <= 1e-9:
            raise QuadratureError(
                'log integral at v = %s: trapezoid rules disagree by %.3g'
                % (self.v.tolist(), full - half),
                IntegralResult(top + full, abs(full - half), f.size))
        return top + full

    @cached_property
    def _kappa_terms(self):
        '''log_kappa's node terms as the rows of a C-contiguous (d + 1, n)
        matrix: at zero counts, log w - shape sum_j log(1 + v_j z), then
        the slopes log z - log(1 + v_j z) that each count a_j multiplies.'''
        return np.vstack((
            self.log_w - self.spec.shape * self.log1p_vz.sum(axis=0),
            self.log_z - self.log1p_vz))

    @_refined
    def log_kappa(self, a):
        '''
        log kappa_a(v) = sum_j log(Gamma(a_j + shape)/Gamma(shape))
        + log int z^(sum a) prod_j (1 + v_j z)^(-a_j - shape) nu*(z) dz.

        The node terms at counts a are (1, a_1, ..., a_d) times the
        matrix of _kappa_terms, built on the first call: one matrix-vector
        product, and the scalar bookkeeping in Python floats.  A value
        depends on (spec, v, a) alone, not on which counts were evaluated
        before.
        '''
        if len(a) != self.v.size:
            raise ValueError('a must be a vector of length %d' % self.v.size)
        shape = self.spec.shape
        total = decay = log_gamma = 0.0
        for a_j, positive in zip(a, self.positive):
            a_j = float(a_j)
            if a_j:
                total += a_j
                log_gamma += math.lgamma(a_j + shape) - math.lgamma(shape)
            if positive:
                decay += a_j + shape
        rate_lo, rate_hi = self._end_rates(total, total - decay)
        return self._log_sum(np.dot((1.0, *a), self._kappa_terms), rate_lo,
                             rate_hi) + log_gamma

    @_refined
    def psi(self):
        '''psi(v) = int (1 - prod_j (1 + v_j z)^-shape) nu*(z) dz.'''
        positive = sum(self.positive)
        if positive == 0:
            return 0.0
        # the bracket 1 - p vanishes linearly at 0 and tends to 1 at
        # infinity
        rate_lo, rate_hi = self._end_rates(1.0, 0.0)
        log_p = -self.spec.shape * self.log1p_vz.sum(axis=0)
        f = self.w * -np.expm1(log_p)
        extra = ()
        if not self.finite:
            # p ~ (v z)^-(d shape) falls off slowly at a small shape, so
            # the two terms of the bracket are summed as separate series
            extra = ((self.w[-1], rate_hi, 1),
                     (-self.w[-1] * math.exp(log_p[-1]),
                      rate_hi + positive * self.spec.shape, 1))
            rate_hi = None
        full, half = self._rule_pair(f, np.dot(self._pair, f).tolist(),
                                     rate_lo, rate_hi, extra)
        if not abs(full - half) <= 1e-9 * full:
            raise QuadratureError(
                'psi(%s): trapezoid rules disagree by %.3g relative'
                % (self.v.tolist(), (full - half) / full),
                IntegralResult(full, abs(full - half), f.size))
        return float(full)

    @_refined
    def psi_gradient(self):
        '''d psi / d v_j = int shape z (1 + v_j z)^-1
        prod_l (1 + v_l z)^-shape nu*(z) dz, for every j.'''
        shape = self.spec.shape
        log_g = (self.log_w + math.log(shape) + self.log_z
                 - shape * self.log1p_vz.sum(axis=0))
        decay = shape * sum(self.positive)
        return np.array([math.exp(self._log_sum(
            log_g - row, *self._end_rates(1.0, 1.0 - decay - positive)))
            for row, positive in zip(self.log1p_vz, self.positive)])


def laplace_exponent(spec, lam):
    '''psi(lam) = int (1 - prod_j (1 + lam_j z)^-shape) nu*(z) dz, the
    exponent in the joint Laplace functional of the measure vector.  At
    distinct rates this is the paper's Upsilon_d(lam).'''
    return TiltRule(spec, lam).psi()


def rho_density(spec, s):
    '''
    Multivariate Levy intensity rho_d at the positive vector s: the density
    of putting scaled scores s_j on the d coordinates of one shared jump,
    int z^-d prod_j f(s_j / z) nu*(z) dz with f the Ga(shape) density,
    integrated on TiltRule nodes (_rho_by_mixture) for every family.  The
    tests hold the closed forms: the paper's Whittaker-function form for
    gamma and the power law of sigma-stable.
    '''
    s = np.asarray(s, dtype=float)
    if s.ndim != 1 or s.size != spec.dimension:
        raise ValueError('s must be a vector of length %d' % spec.dimension)
    if not np.all((s > 0.0) & (s < math.inf)):
        raise ValueError('all components of s must be positive and finite: '
                         '%s' % s)
    return _rho_by_mixture(spec, s)


def _rho_by_mixture(spec, s, shape=None):
    '''int z^-d prod_j f(s_j / z) nu*(z) dz, f the Ga(shape) density,
    by default that of the spec's scores.'''
    shape = spec.shape if shape is None else shape
    d = spec.dimension
    total = float(np.sum(s))
    log_s = float(np.log(s).sum())

    def log_weight(log_z):
        return ((shape - 1.0) * log_s - d * shape * log_z
                - total * np.exp(-log_z) - d * math.lgamma(shape))

    # the weight z^(-d shape) e^(-total/z) peaks at z = total / (d shape)
    # and vanishes faster than any power below it
    rule = TiltRule(spec, np.full(d, d * shape / total))
    return math.exp(rule.log_integral(log_weight, None, -d * shape))


def log_kappa(spec, a, v):
    '''log kappa_a(v), with kappa_a(v) = int z^{sum a} prod_j
    Gamma(a_j + shape) / Gamma(shape) (1 + v_j z)^(-a_j - shape) nu*(z) dz
    the marginal sampler's cluster weight integral; finite for counts far
    beyond kappa's double range.'''
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
    from scipy.special import gammaincc  # on first use: see numerics
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
    # slowly at a small shape.  The tail int_top^inf nu* prod_j (1 - q_j
    # (top/z)^shape) dz, nu* ~ z^(-rate-1), has one rate rate + shape |S|
    # per subset S of the x_j, which the one end series of the spec's
    # nodes on (0, inf) cannot sum: the rule stops at top, and the tail
    # is summed term by term
    top = max(xs) / _PURE
    rule = TiltRule(spec, v, RuleNodes(spec, top))
    rate = -nu.upper_rate
    coefs = np.ones(1)
    for x in xs:
        q = math.exp(shape * math.log(x / top) - math.lgamma(shape + 1.0))
        coefs = np.convolve(coefs, [1.0, -q])
    tail = float(nu.density(top)) * top * float(
        coefs @ (1.0 / (rate + shape * np.arange(coefs.size))))
    return math.exp(rule.log_integral(log_weight, None)) + tail


def clayton_copula(gamma_par, y1, y2):
    '''Clayton Levy copula (y1^-g + y2^-g)^(-1/g).'''
    if not gamma_par > 0.0:
        raise ValueError('gamma must be positive')
    for y in (y1, y2):
        if not (y >= 0.0):
            raise ValueError('tail masses must be nonnegative')
    if y1 == 0.0 or y2 == 0.0:
        return 0.0
    if math.isinf(y1):
        return float(y2)
    if math.isinf(y2):
        return float(y1)
    return float((y1 ** -gamma_par + y2 ** -gamma_par) ** (-1.0 / gamma_par))


def _exponent_vector(q):
    '''The exponent vector q as a tuple of ints.  Every entry must be a
    nonnegative integer, an integral float such as 2.0 included:
    ValueError otherwise.'''
    x = np.asarray(q, dtype=float)
    if x.ndim != 1 or not np.all(np.isfinite(x) & (x >= 0.0)
                                 & (x == np.floor(x))):
        raise ValueError('q must be a vector of nonnegative integers')
    return tuple(int(v) for v in x)


def _directing_moment(spec, m):
    '''int z^m nu*(z) dz for integer m >= 1, kappa at v = 0 without its
    score factor.'''
    rule = TiltRule(spec, np.zeros(spec.dimension))
    return math.exp(rule.log_integral(lambda log_z: 0.0, m, m))


def mixed_moment(spec, q, region_mass):
    '''
    E[prod_j mu_j(A)^{q_j}] for a region A of centring mass region_mass,
    at any integer order.  log E[e^(-lam . mu(A))] = -region_mass psi(lam)
    gives the joint cumulants in closed form: kappa_r = region_mass prod_j
    (shape)_{r_j} int z^|r| nu*(z) dz.  With k_r = kappa_r / r! and a_p =
    E[prod_j mu_j(A)^{p_j}] / p!, the moment-cumulant recursion (Smith
    1995) is p_i a_p = sum_{0 < r <= p, r_i >= 1} r_i k_r a_{p-r}, for i
    the first coordinate with p_i >= 1, over the sub-vectors p of q in
    increasing order |p|.
    '''
    q = _exponent_vector(q)
    if len(q) != spec.dimension:
        raise ValueError('q must be a vector of length %d' % spec.dimension)
    if not region_mass > 0.0:
        raise ValueError('region mass must be positive')
    total_q = sum(q)
    if total_q == 0:
        return 1.0
    if spec.marginal.kind == 'sigma-stable':
        raise ValueError('mixed moments diverge for sigma-stable marginals: '
                         'the directing intensity has no finite moments')
    shape = spec.shape
    moments = {m: _directing_moment(spec, m) for m in range(1, total_q + 1)}
    # the zero vector first, then every other p <= q by |p|
    zero, *subs = sorted(itertools.product(*(range(x + 1) for x in q)),
                         key=sum)
    k = {r: region_mass * moments[sum(r)] * math.exp(sum(
        math.lgamma(shape + x) - math.lgamma(shape) - math.lgamma(x + 1.0)
        for x in r)) for r in subs}
    a = {zero: 1.0}
    for p in subs:
        i = next(j for j, x in enumerate(p) if x)
        a[p] = sum(r[i] * k_r * a[tuple(x - y for x, y in zip(p, r))]
                   for r, k_r in k.items()
                   if r[i] and all(y <= x for x, y in zip(p, r))) / p[i]
    return math.exp(sum(math.lgamma(x + 1.0) for x in q)) * a[q]


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


# the step in t of the correlation's nodes m = s + sinh(t) and w = sinh(t),
# and the largest relative gap to the every-other-node rule that passes
_CORR_STEP = 0.125
_CORR_CHECK = 1e-4


def covariance_normalized(spec, mass_a, mass_b, mass_ab, total_mass):
    '''
    Correlation of the two normalised coordinate measures over regions A
    and B with centring masses mass_a, mass_b, intersection mass_ab and
    total mass T: b C / (V sqrt(c_a c_b)), b = mass_ab - mass_a mass_b / T,
    c = mass - mass^2 / T, C = int kappa_(1,1)(lam) e^(-T psi(lam)) dlam
    and V = int lam kappa_(2,0)(lam, 0) e^(-T psi(lam, 0)) dlam: trapezoid
    rules at m = s + sinh(t), m = log lam, one TiltRule a node.  C's is a
    product with w = sinh(t), t >= 0, in m = log sqrt(lam_1 lam_2) and w =
    log(lam_2 / lam_1): dlam = e^(2m) dm dw, and the integrand is even in
    w.  Its value on the every-other-node rules, with about the square
    root of their error, must agree to _CORR_CHECK: QuadratureError else.
    '''
    if spec.dimension != 2:
        raise ValueError('defined for dimension 2')
    if not (0.0 <= mass_ab <= min(mass_a, mass_b)
            and max(mass_a, mass_b) <= total_mass and total_mass > 0.0):
        raise ValueError('inconsistent region masses')
    bracket = mass_ab - mass_a * mass_b / total_mass
    if bracket == 0.0:
        return 0.0

    def log_f(a, m, w=None):
        # log(e^(2m) kappa_a(lam) e^(-T psi(lam))), lam = (e^(m - w/2),
        # e^(m + w/2)), or (e^m, 0) without w
        rule = TiltRule(spec, (math.exp(m), 0.0) if w is None else (
            math.exp(m - 0.5 * w), math.exp(m + 0.5 * w)))
        return 2.0 * m + rule.log_kappa(a) - total_mass * rule.psi()

    # s: midway between the integrands' rise, lam = 1, and T psi_1(lam) = 1
    below = np.sum(total_mass * marginal_exponent(
        spec.marginal, np.exp(np.arange(-40.0, 41.0))) < 1.0)
    sinh_t, log_h, ends = _de_grid(_CORR_STEP, 0.0, 0.0)
    m = (round(0.5 * below) - 20 + sinh_t).tolist()
    m_pair = np.exp(log_h) * _pair_weights(len(m))
    # past the ends of m, exponentials of rate 2 (kappa finite at 0), sigma
    # (sigma-stable is self-similar), and T c for gamma's psi ~ c log lam
    env = spec.directing.envelope
    rates = (2.0 if env.a else env.sigma,
             total_mass * env.c if env.sigma == 0.0 else None)
    for (reach, _), rate, k in zip(ends, rates, (0, -1)):
        if rate is not None:
            m_pair[:, k] *= 1.0 + np.array([_past(reach, h, rate) for h in (
                _CORR_STEP, 2.0 * _CORR_STEP)])
    var = [log_f((2, 0), x) for x in m]
    diagonal = [log_f((1, 1), x, 0.0) for x in m]
    peak = max(diagonal + var)
    columns, evaluations = [], 2 * len(m)
    for x, log_diagonal in zip(m, diagonal):
        # log(f w) - peak, w the weight 2 cosh(t) at +-sinh(t) (1 at 0), to
        # an even node where it and the one before it are below -42
        terms = [log_diagonal - peak]
        while len(terms) % 2 == 0 or max(terms[-2:]) > -42.0:
            t = len(terms) * _CORR_STEP
            terms.append(math.log(2.0 * math.cosh(t)) - peak
                         + log_f((1, 1), x, math.sinh(t)))
        evaluations += len(terms) - 1
        columns.append(_CORR_STEP * _pair_weights(len(terms)) @ np.exp(terms))
    cross = np.sum(m_pair * np.transpose(columns), axis=1)
    kernel = m_pair @ np.exp(np.subtract(var, peak))
    corr, sub = (bracket * cross / (kernel * math.sqrt(
        (mass_a - mass_a ** 2 / total_mass)
        * (mass_b - mass_b ** 2 / total_mass)))).tolist()
    if not abs(corr - sub) <= _CORR_CHECK * abs(corr):
        raise QuadratureError(
            'correlation %r: trapezoid rules disagree by %.3g relative'
            % (corr, (corr - sub) / corr),
            IntegralResult(corr, abs(corr - sub), evaluations))
    if not abs(corr) <= 1.0:
        raise ValueError('correlation estimate %r lies outside [-1, 1]'
                         % corr)
    return corr
