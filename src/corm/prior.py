'''Prior simulation of compound random measures.

Jumps of the directing measure are generated largest-first by inverting
its tail integral at unit-rate Poisson arrival times, then each
coordinate perturbs them with independent gamma scores.
'''

import csv
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
    'score_ratio_sample',
    'realization_to_csv',
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
    with W'(z) = z nu*(z); capped at half the support (half of 1 on an
    infinite one).'''
    directing = spec.directing
    hi = directing.support[1]
    upper = 0.5 * (1.0 if math.isinf(hi) else hi)
    weighted_mass = np.vectorize(partial(_weighted_mass, spec),
                                 otypes=[float])
    return float(_invert_monotone(
        weighted_mass, lambda z: z * directing.density(z), target,
        lambda y: np.full_like(y, upper), upper, increasing=True))


def _break_ties(jumps):
    '''Make decreasing jumps strictly decreasing in place: each jump not
    below its predecessor becomes the predecessor times 1 - 1e-12, in
    order, so a nudge can cascade to the jumps after it.'''
    # the inverse returns the largest double below a finite upper end for
    # levels whose roots lie closer to it, and nearby levels can round to
    # the same jump.  Ties are rare, so the sequential pass starts at the
    # first one, found by one array comparison
    ties = np.flatnonzero(jumps[1:] >= jumps[:-1])
    if ties.size:
        for i in range(ties[0] + 1, jumps.size):
            if jumps[i] >= jumps[i - 1]:
                jumps[i] = jumps[i - 1] * (1.0 - 1e-12)
    return jumps


def sample_corm(spec, rng, n_jumps=None, tail_mass=None, max_jumps=100_000):
    '''
    Draw a truncated realization.  Exactly one truncation rule applies:
    a fixed jump count n_jumps, or a residual directing mass tail_mass
    relative to int min(1,z) nu* (default 1e-6).  Stable-type directing
    measures keep infinite expected mass near zero, so they always
    truncate by count.
    '''
    if n_jumps is not None and tail_mass is not None:
        raise ValueError('give either n_jumps or tail_mass, not both')
    directing = spec.directing
    alpha = spec.centring_mass

    if spec.marginal.kind == 'sigma-stable' and n_jumps is None:
        warnings.warn('stable directing has no finite residual-mass '
                      'criterion; truncating at %d jumps'
                      % STABLE_DEFAULT_JUMPS, stacklevel=2)
        n_jumps = STABLE_DEFAULT_JUMPS

    if n_jumps is not None:
        n = int(n_jumps)
        if n < 0:
            raise ValueError('n_jumps must be nonnegative')
        if n > max_jumps:
            raise ValueError('n_jumps exceeds the jump budget %d' % max_jumps)
        if n == 0:
            return CoRMRealization(
                np.empty(0), np.empty(0), np.empty((spec.dimension, 0)), 0.0)
        arrivals = np.cumsum(rng.exponential(size=n))
        jumps = directing.inverse_tail(arrivals / alpha)
        level = float(jumps[-1])
    else:
        eps = DEFAULT_TAIL_MASS if tail_mass is None else float(tail_mass)
        if not eps > 0.0:
            raise ValueError('tail_mass must be positive')
        cached = directing._truncations.get(eps)
        if cached is None:
            target = eps * _coverage_norm(spec)
            level = _solve_residual_level(spec, target)
            cached = (level, directing.tail_integral(level))
            directing._truncations[eps] = cached
        level, unit_cap = cached
        arrival_cap = alpha * unit_cap
        expected = arrival_cap
        if expected > max_jumps:
            raise ValueError(
                'tail_mass %g needs about %.0f jumps, over the budget %d; '
                'loosen it or raise max_jumps' % (eps, expected, max_jumps))
        n = int(rng.poisson(arrival_cap))
        if n > max_jumps:
            raise ValueError('jump budget %d exceeded' % max_jumps)
        arrivals = np.sort(rng.uniform(0.0, arrival_cap, size=n))
        jumps = directing.inverse_tail(arrivals / alpha)

    _break_ties(jumps)
    base = spec.base
    if base is None:
        locations = rng.uniform(size=jumps.size)
    elif hasattr(base, 'sample'):
        locations = np.asarray(base.sample(rng, jumps.size))
    else:
        raise TypeError('centring base must provide sample(rng, n)')
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


def score_ratio_sample(shape, n, rng):
    '''n independent ratios of two Ga(shape) scores.'''
    if n < 1:
        raise ValueError('n must be at least 1')
    if not shape > 0.0:
        raise ValueError('shape must be positive')
    return rng.gamma(shape, size=n) / rng.gamma(shape, size=n)


def realization_to_csv(realization, path):
    '''Dump a realization as CSV: jump_index, J, location, m_1..m_d.'''
    loc = np.asarray(realization.locations)
    if loc.ndim != 1:
        raise ValueError('CSV dump needs scalar locations')
    d = realization.scores.shape[0]
    with open(path, 'w', newline='') as fh:
        writer = csv.writer(fh)
        writer.writerow(['jump_index', 'J', 'location']
                        + ['m_%d' % (j + 1) for j in range(d)])
        for i in range(realization.jump_count):
            writer.writerow(
                [i + 1, repr(float(realization.jumps[i])),
                 repr(float(loc[i]))]
                + [repr(float(realization.scores[j, i])) for j in range(d)])
