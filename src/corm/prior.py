'''Prior simulation of compound random measures.

The jumps of the directing measure above a truncation level are the
points of a Poisson process of intensity alpha nu*.  They are drawn by
thinning (Lewis & Shedler 1979) the process of the directing
intensity's PowerEnvelope, a power law c z^(-1-sigma) (at beta < 1, a
power piece and a beta piece split at t) whose tail has a closed-form
inverse, as in Rosinski's (2001) series for stable-type processes:
arrival times of a unit-rate process, divided by alpha, map to the
envelope's points in decreasing order by one power each, and a point z
is kept with probability nu*(z) over the envelope.  Truncation is by
a residual mass, which fixes the level and a Poisson number of sorted
uniform arrivals, or by a jump count n, where arrivals are drawn until
n points are kept and the n-th is the level.  Each coordinate then
perturbs the jumps with independent Ga(shape) scores.
'''

import math
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import RuleNodes, TiltRule, _invert_monotone
# not called here: kept bound so the benchmark's tracer, which wraps
# corm.prior.integrate, still finds it
from .numerics import integrate  # noqa: F401

__all__ = [
    'CoRMRealization',
    'NormalizedWeights',
    'sample_corm',
    'normalize',
]

DEFAULT_TAIL_MASS = 1e-6
STABLE_DEFAULT_JUMPS = 1000


@dataclass
class CoRMRealization:
    '''Truncated draw: shared jumps (decreasing), their locations, and a
    d x N matrix of per-coordinate scores.'''
    jumps: np.ndarray
    locations: np.ndarray
    scores: np.ndarray
    truncation_level: float

    @property
    def jump_count(self):
        return int(self.jumps.size)

    def total_masses(self):
        '''Unnormalised coordinate masses sum_i m_ji J_i, shape (d,).'''
        return self.scores @ self.jumps


@dataclass
class NormalizedWeights:
    '''Row-stochastic d x N matrix pi_ji = m_ji J_i / sum_l m_jl J_l.'''
    pi: np.ndarray


def _weighted_mass(spec, x):
    '''W(x) = int_0^x z nu*(z) dz, on the tilt rule truncated at x.'''
    rule = TiltRule(spec, np.zeros(spec.dimension), RuleNodes(spec, x))
    return math.exp(rule.log_integral(lambda log_z: 0.0, 1))


def _coverage_norm(spec):
    '''int min(1, z) nu*(z) dz, the scale the tail-mass threshold is
    relative to.'''
    hi = spec.directing.support[1]
    total = _weighted_mass(spec, min(1.0, hi))
    if hi > 1.0:
        total += spec.directing.tail_integral(1.0)
    return total


def _solve_residual_level(spec, target):
    '''z with W(z) = int_0^z s nu*(s) ds = target, by the shared inverse
    with W'(z) = z nu*(z), started at the root of the envelope's power law
    W(z) ~ c z^(1-sigma) / (1-sigma) near 0, whence the steps move
    monotonically to the root; a start past half the support raises.'''
    directing, env = spec.directing, spec.directing.envelope
    start = ((1.0 - env.sigma) * target / env.c) ** (1.0 / (1.0 - env.sigma))
    if not start < 0.5 * env.top:
        raise ValueError('a level near %g is past half the support' % start)
    return float(_invert_monotone(
        partial(_weighted_mass, spec), lambda z: z * directing.density(z),
        target, start, increasing=True))


def _break_ties(jumps):
    '''Make decreasing jumps strictly decreasing in place: each jump not
    below its predecessor becomes the predecessor times 1 - 1e-12, in
    order, so a nudge can cascade to the jumps after it.'''
    # the points of distinct arrival times are distinct in exact
    # arithmetic, so ties come only from rounding: two nearby levels whose
    # point rounds to the same double.  They are rare, so the sequential
    # pass starts at the first one, found by one array comparison
    ties = np.flatnonzero(jumps[1:] >= jumps[:-1])
    if ties.size:
        for i in range(ties[0] + 1, jumps.size):
            if jumps[i] >= jumps[i - 1]:
                jumps[i] = jumps[i - 1] * (1.0 - 1e-12)
    return jumps


def _thin(band, levels, rng):
    '''The points of band at the given levels that survive thinning:
    one uniform per point against its thinning probability.'''
    z = band.points(levels)
    return z[rng.uniform(size=z.size) < band.keep(z)]


def _count_truncation(spec, n, rng, max_jumps):
    '''The n largest jumps of the directing process and the n-th as the
    level: unit-rate arrival times, scaled by the centring mass, run
    down the envelope's points in decreasing order, and thinning keeps
    nu*'s; arrivals are drawn in batches until n points are kept.'''
    alpha = spec.centring_mass
    envelope = spec.directing.envelope
    split = None
    if envelope.beta < 1.0:
        # the split of least mass above where the power law c z^(-1-sigma)
        # has mass n / alpha, near the level the n-th jump reaches
        split = envelope.split(envelope.power_level(n / alpha),
                               envelope.top)
    band = envelope.band(0.0, split=split)
    kept, count, proposals, last = [], 0, 0, 0.0
    batch = n + 8
    while count < n:
        batch = min(batch, max_jumps - proposals)
        if batch <= 0:
            raise ValueError(
                'n_jumps %d needs over %d proposals, the budget, before '
                'thinning; raise max_jumps' % (n, max_jumps))
        arrivals = last + np.cumsum(rng.exponential(size=batch))
        last = float(arrivals[-1])
        proposals += batch
        kept.append(_thin(band, arrivals / alpha, rng))
        count += kept[-1].size
        # the acceptance so far sets the next batch, which is kept small
        # once few jumps are missing
        batch = int(1.25 * (n - count) * proposals / max(count, 1)) + 8
    jumps = np.concatenate(kept)[:n]
    return jumps, float(jumps[-1])


def _truncation(spec, eps):
    '''(level, band, mass) of the tail_mass truncation eps, solved once
    per directing intensity: the envelope on (level, end of the support)
    with its split and its mass there.'''
    directing = spec.directing
    cached = directing._truncations.get(eps)
    if cached is None:
        level = _solve_residual_level(spec, eps * _coverage_norm(spec))
        band = directing.envelope.band(level)
        cached = level, band, float(band.mass)
        directing._truncations[eps] = cached
    return cached


def _mass_truncation(spec, eps, rng, max_jumps):
    '''All jumps above the tail_mass level, and the level.  The arrival
    times of a unit-rate process on (0, alpha mass), over alpha: a
    Poisson(alpha mass) number of sorted uniform levels on (0, mass),
    thinned on the envelope.'''
    level, band, mass = _truncation(spec, eps)
    expected = spec.centring_mass * mass
    if expected > max_jumps:
        raise ValueError(
            'tail_mass %g needs about %.0f proposals before thinning, '
            'over the budget %d; loosen it or raise max_jumps'
            % (eps, expected, max_jumps))
    n = int(rng.poisson(expected))
    if n > max_jumps:
        raise ValueError('%d proposals exceed the budget %d'
                         % (n, max_jumps))
    levels = np.sort(rng.uniform(0.0, mass, size=n))
    return _thin(band, levels, rng), level


def sample_corm(spec, rng, n_jumps=None, tail_mass=None, max_jumps=100_000):
    '''
    Draw a truncated realization.  Exactly one truncation rule applies:
    a fixed jump count n_jumps (a nonnegative integer, an integral float
    included: ValueError otherwise), or a residual directing mass tail_mass
    relative to int min(1,z) nu* (default 1e-6).  A sigma-stable spec
    given neither rule truncates at STABLE_DEFAULT_JUMPS jumps, with a
    warning: its count above the tail_mass level grows as
    tail_mass^(-sigma/(1-sigma)), and the default 1e-6 needs about 3.2e5
    proposals at sigma 0.5, shape 1, over the default max_jumps.
    max_jumps bounds the points a draw proposes before thinning, which
    can be several times the jumps it keeps; a draw that would propose
    more raises ValueError.  The jumps' locations are Uniform(0, 1).
    '''
    if n_jumps is not None and tail_mass is not None:
        raise ValueError('give either n_jumps or tail_mass, not both')

    if (spec.marginal.kind == 'sigma-stable' and n_jumps is None
            and tail_mass is None):
        warnings.warn('the jump count of a sigma-stable spec above the '
                      'tail_mass level grows as tail_mass^(-sigma/(1 - '
                      'sigma)), too many at the default %g; truncating at '
                      '%d jumps'
                      % (DEFAULT_TAIL_MASS, STABLE_DEFAULT_JUMPS),
                      stacklevel=2)
        n_jumps = STABLE_DEFAULT_JUMPS

    if n_jumps is not None:
        n = float(n_jumps)
        if not (n >= 0.0 and n.is_integer()):
            raise ValueError('n_jumps must be a nonnegative integer, not %r'
                             % (n_jumps,))
        n = int(n)
        if n > max_jumps:
            raise ValueError('n_jumps exceeds the proposal budget %d'
                             % max_jumps)
        if n == 0:
            return CoRMRealization(
                np.empty(0), np.empty(0), np.empty((spec.dimension, 0)), 0.0)
        jumps, level = _count_truncation(spec, n, rng, max_jumps)
    else:
        eps = DEFAULT_TAIL_MASS if tail_mass is None else float(tail_mass)
        if not eps > 0.0:
            raise ValueError('tail_mass must be positive')
        jumps, level = _mass_truncation(spec, eps, rng, max_jumps)

    _break_ties(jumps)
    locations = rng.uniform(size=jumps.size)
    scores = rng.gamma(spec.shape, size=(spec.dimension, jumps.size))
    return CoRMRealization(jumps, locations, scores, float(level))


def normalize(realization):
    '''Per-coordinate normalised weights of a realization.'''
    if realization.jump_count == 0:
        raise ValueError('cannot normalise an empty realization')
    weighted = realization.scores * realization.jumps
    totals = weighted.sum(axis=1, keepdims=True)
    if not np.all(totals > 0.0):
        raise ValueError('a coordinate has zero total mass')
    pi = weighted / totals
    pi = pi / pi.sum(axis=1, keepdims=True)
    return NormalizedWeights(pi)
