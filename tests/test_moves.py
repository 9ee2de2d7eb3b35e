'''The one Metropolis-Hastings move (AdaptiveStepSize.move) in all five
continuous updates: the urn's v and score shape, the slice sampler's two
v stages (one update_v_interweaving call) and its score shape.

Refusal: at the largest step, a normal of +2 or -2 makes a proposal
that over- or underflows; each update keeps its value, records
probability 0 and draws no uniform.

Law: under FlatKernel every likelihood is one, so the posterior of each
sampler's state is its forward law, drawn exactly: phi from Exp(1)
truncated to (0, 5), a CoRM by sample_corm (tail mass 1e-10),
allocations with probability proportional to m_jk J_k, v_j ~ Ga(n_j,
T_j), and for the slice state slice latents u_i ~ U(0, J_(c_i)) and the
jumps above L = min u.  A draw is drawn again if L is at most 10 times
the truncation level, or if a score above L has underflowed to 0, which
the slice state cannot hold (at phi below about 0.01).  Each update,
applied MOVES = 10 times with a fixed step to N_DRAWS = 500 forward
draws, must leave log v_1, log v_2 and log phi with the law of N_FRESH =
250 fresh forward draws: two-sample Kolmogorov-Smirnov tests, Holm's
bound at 0.01 over all of them.  A forward draw costs about 5 ms, mostly
in sample_corm, so the fresh draws are fewer than the updated ones.  The
urn updates carry the power: dropping the Jacobian term log x_new - log
x from the move fails them, while the slice updates alone do not show
it at this size.
'''

import math

import numpy as np
import pytest
from scipy import stats

from corm import prior
from corm.core import CoRMSpec, MarginalFamily
from corm.marginal_sampler import (
    AdaptiveStepSize,
    KappaTable,
    MarginalState,
    update_shape_marginal,
    update_v_marginal,
)
from corm.slice_sampler import (
    SliceState,
    update_hyperparameters_slice,
    update_v_interweaving,
)

FAMILY = MarginalFamily.generalized_gamma(0.3, 1.0)
GROUP_SIZES = (10, 10)
SHAPE_END = 5.0
N_DRAWS = 500
N_FRESH = 250
MOVES = 10
HOLM_LEVEL = 0.01


def log_prior(phi):
    '''Exp(1) truncated to (0, SHAPE_END), up to a constant.'''
    return -phi if phi < SHAPE_END else -math.inf


def _forward(rng):
    '''One exact draw of both samplers' states under FlatKernel.'''
    while True:
        phi = -math.log1p(-rng.uniform() * -math.expm1(-SHAPE_END))
        spec = CoRMSpec(len(GROUP_SIZES), phi, FAMILY)
        draw = prior.sample_corm(spec, rng, tail_mass=1e-10,
                                 max_jumps=10 ** 7)
        cum = np.cumsum(draw.scores * draw.jumps, axis=1)
        labels = [np.searchsorted(c, rng.uniform(size=n) * c[-1], 'right')
                  for n, c in zip(GROUP_SIZES, cum)]
        v = rng.gamma(np.array(GROUP_SIZES, dtype=float)) \
            / draw.total_masses()
        u = [rng.uniform(size=c.size) * draw.jumps[c] for c in labels]
        L = min(float(x.min()) for x in u)
        if L > 10.0 * draw.truncation_level and np.all(
                draw.scores[:, draw.jumps > L] > 0.0):
            break
    occupied, dense = np.unique(np.concatenate(labels), return_inverse=True)
    ends = np.cumsum(GROUP_SIZES)[:-1]
    allocations = np.split(dense, ends)
    counts = np.stack([np.bincount(c, minlength=occupied.size)
                       for c in allocations], axis=1)
    urn = MarginalState(allocations, counts, v.copy(), phi,
                        stats=[(int(n),) for n in counts.sum(axis=1)])
    # the slice state: the occupied jumps first, then the pool above L
    pool = np.setdiff1d(np.flatnonzero(draw.jumps > L), occupied)
    kept = np.concatenate([occupied, pool])
    slice_counts = np.vstack([counts, np.zeros((pool.size, counts.shape[1]),
                                               dtype=int)])
    slice_state = SliceState(
        [c.copy() for c in allocations], slice_counts, draw.jumps[kept],
        draw.scores[:, kept].T.copy(), rng.uniform(size=kept.size).tolist(),
        u, v.copy(), phi)
    urn.check()
    slice_state.check()
    return spec, urn, slice_state


def _frozen():
    return AdaptiveStepSize(frozen=True)


def _urn_v(spec, urn, slice_state, rng):
    table = KappaTable(spec, urn.v)
    steps = [_frozen() for _ in GROUP_SIZES]
    for _ in range(MOVES):
        for j in range(len(GROUP_SIZES)):
            table = update_v_marginal(urn, spec, j, steps[j], rng, table)
    return urn.v, urn.shape


def _urn_shape(spec, urn, slice_state, rng):
    table = KappaTable(spec, urn.v)
    step = _frozen()
    for _ in range(MOVES):
        spec, table = update_shape_marginal(urn, spec, log_prior, step, rng,
                                            table)
    return urn.v, urn.shape


def _slice_v(spec, urn, slice_state, rng):
    steps = [(_frozen(), _frozen()) for _ in GROUP_SIZES]
    cache = {}
    for _ in range(MOVES):
        for j in range(len(GROUP_SIZES)):
            update_v_interweaving(slice_state, spec, j, steps[j], rng, cache)
    return slice_state.v, slice_state.shape


def _slice_shape(spec, urn, slice_state, rng):
    step = _frozen()
    cache = {}
    for _ in range(MOVES):
        spec = update_hyperparameters_slice(slice_state, spec, log_prior,
                                            step, rng, cache)
    return slice_state.v, slice_state.shape


def _statistics(pairs):
    '''Rows log v_1, log v_2 and log phi of (v, phi) pairs.'''
    return np.array([[*np.log(v), math.log(phi)] for v, phi in pairs]).T


class _StubNormal:
    '''A generator whose normal() returns z without drawing; every other
    draw comes from rng.'''

    def __init__(self, rng, z):
        self.rng, self.z = rng, z

    def normal(self):
        return self.z

    def __getattr__(self, name):
        return getattr(self.rng, name)


def _refused_urn_v(spec, urn, slice_state, rng):
    table = KappaTable(spec, urn.v)
    step = AdaptiveStepSize(log_step=6.0)
    assert update_v_marginal(urn, spec, 1, step, rng, table) is table
    return [step]


def _refused_urn_shape(spec, urn, slice_state, rng):
    table = KappaTable(spec, urn.v)
    step = AdaptiveStepSize(log_step=6.0)
    assert update_shape_marginal(urn, spec, log_prior, step, rng,
                                 table) == (spec, table)
    return [step]


def _refused_slice_v(spec, urn, slice_state, rng):
    # both stages, ancillary and sufficient, are refused
    steps = AdaptiveStepSize(log_step=6.0), AdaptiveStepSize(log_step=6.0)
    update_v_interweaving(slice_state, spec, 1, steps, rng)
    return steps


def _refused_slice_shape(spec, urn, slice_state, rng):
    step = AdaptiveStepSize(log_step=6.0)
    assert update_hyperparameters_slice(slice_state, spec, log_prior, step,
                                        rng) is spec
    return [step]


@pytest.mark.parametrize('z', [2.0, -2.0])
@pytest.mark.parametrize('update', [_refused_urn_v, _refused_urn_shape,
                                    _refused_slice_v, _refused_slice_shape],
                         ids=['urn-v', 'urn-shape', 'slice-v', 'slice-shape'])
def test_updates_refuse_a_proposal_that_over_or_underflows(update, z):
    # at the step cap exp(6), a normal of +2 overflows exp and one of -2
    # rounds the proposal to 0.0
    rng = np.random.default_rng(11)
    spec, urn, slice_state = _forward(rng)
    before = urn.v.copy(), urn.shape, slice_state.v.copy(), \
        slice_state.scores.copy(), slice_state.shape
    generator = rng.bit_generator.state
    steps = update(spec, urn, slice_state, _StubNormal(rng, z))
    after = urn.v, urn.shape, slice_state.v, slice_state.scores, \
        slice_state.shape
    for want, got in zip(before, after):
        assert np.array_equal(want, got)
    for step in steps:
        assert step.proposed == 1 and step.accepted == 0.0
    assert rng.bit_generator.state == generator


def _copy(urn, slice_state):
    return (MarginalState([c.copy() for c in urn.allocations],
                          urn.counts.copy(), urn.v.copy(), urn.shape,
                          stats=list(urn.stats)),
            SliceState([c.copy() for c in slice_state.allocations],
                       slice_state.counts.copy(), slice_state.jumps.copy(),
                       slice_state.scores.copy(), list(slice_state.atoms),
                       [x.copy() for x in slice_state.u],
                       slice_state.v.copy(), slice_state.shape))


def _law_p_values():
    '''{(update, statistic): two-sample KS p-value} of the updated
    N_DRAWS forward draws against N_FRESH fresh ones.'''
    rng = np.random.default_rng(20261021)
    start = [_forward(rng) for _ in range(N_DRAWS)]
    fresh = _statistics((urn.v, urn.shape) for _, urn, _ in
                        (_forward(rng) for _ in range(N_FRESH)))
    p_values = {}
    for update in (_urn_v, _urn_shape, _slice_v, _slice_shape):
        got = _statistics(update(spec, *_copy(urn, slice_state), rng)
                          for spec, urn, slice_state in start)
        for name, a, b in zip(('log v1', 'log v2', 'log phi'), got, fresh):
            p_values[update.__name__[1:], name] = stats.ks_2samp(a, b).pvalue
    return p_values


def test_updates_keep_the_forward_law():
    p_values = _law_p_values()
    m = len(p_values)
    for rank, (key, p) in enumerate(sorted(p_values.items(),
                                           key=lambda item: item[1])):
        # Holm's step-down: the rank-th smallest p against level / (m - rank)
        if p > HOLM_LEVEL / (m - rank):
            break
        pytest.fail('%s, %s: KS p = %.2g under the Holm bound %.2g'
                    % (*key, p, HOLM_LEVEL / (m - rank)))
