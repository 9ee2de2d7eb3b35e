'''Both samplers at the data sizes the method is meant for: a few sweeps
at 2,000 + 2,000 observations and at 200 x 5, with the state's
invariants checked after every sweep.  At these sizes the slice
threshold is the least of thousands of slice latents, so the
repopulation births thin the power envelope on a band reaching far
below the jumps.'''

import numpy as np
import pytest

from corm import marginal_sampler, slice_sampler
from corm.core import CoRMSpec, MarginalFamily
from corm.kernels import Dataset, UnivariateNormalGamma
from corm.marginal_sampler import AdaptiveStepSize

SIZES = [(2000, 2), (200, 5)]
SWEEPS = 3


def _groups(rng, per_group, n_groups):
    '''n_groups groups of two-component normal data, the components'
    means shifting from group to group.'''
    groups = []
    for j in range(n_groups):
        means = np.array([-2.0, 2.0]) + j
        pick = rng.integers(2, size=per_group)
        groups.append(means[pick] + 0.5 * rng.standard_normal(per_group))
    return Dataset(groups)


def _model(per_group, n_groups, seed):
    rng = np.random.default_rng(seed)
    data = _groups(rng, per_group, n_groups)
    kernel = UnivariateNormalGamma.from_data(data.stacked())
    spec = CoRMSpec.from_marginal(
        n_groups, 1.0, MarginalFamily.generalized_gamma(0.3, 1.0))
    steps = [AdaptiveStepSize() for _ in range(n_groups)]
    return rng, data, kernel, spec, steps


@pytest.mark.parametrize('per_group, n_groups', SIZES,
                         ids=['2000x2', '200x5'])
def test_marginal_sweeps(per_group, n_groups):
    rng, data, kernel, spec, steps = _model(per_group, n_groups, 51)
    state = marginal_sampler.initial_state(data, spec, kernel, rng,
                                           n_start=4)
    state.check()
    shape_step, table = AdaptiveStepSize(), None
    for _ in range(SWEEPS):
        spec, table = marginal_sampler.marginal_sweep(
            state, data, spec, kernel, rng, steps, shape_step,
            lambda phi: -phi, table=table)
        state.check()
        assert spec.shape == state.shape
        assert state.counts.sum(axis=0).tolist() == [per_group] * n_groups


@pytest.mark.parametrize('per_group, n_groups', SIZES,
                         ids=['2000x2', '200x5'])
def test_slice_sweeps(per_group, n_groups):
    rng, data, kernel, spec, _ = _model(per_group, n_groups, 52)
    state = slice_sampler.initial_slice_state(data, spec, kernel, rng,
                                              n_start=4)
    state.check()
    v_steps = [(AdaptiveStepSize(), AdaptiveStepSize())
               for _ in range(n_groups)]
    shape_step, cache = AdaptiveStepSize(), {}
    for _ in range(SWEEPS):
        spec = slice_sampler.slice_sweep(state, data, spec, kernel, rng,
                                         v_steps, shape_step,
                                         lambda phi: -phi, cache)
        state.check()
        assert spec.shape == state.shape
        assert state.counts.sum(axis=0).tolist() == [per_group] * n_groups
        assert state.threshold > 0.0


def test_marginal_chain_on_shared_components():
    # both groups come from one mixture at -2, 2 and 5: under a weak prior
    # on the score shape the chain reaches shapes in the hundreds, where
    # every log kappa on a finite support must pass its rule's check
    rng = np.random.default_rng(1)
    means = np.array([-2.0, 2.0, 5.0])
    data = Dataset([means[rng.integers(3, size=500)]
                    + 0.5 * rng.standard_normal(500) for _ in range(2)])
    kernel = UnivariateNormalGamma.from_data(data.stacked())
    spec = CoRMSpec.from_marginal(
        2, 1.0, MarginalFamily.generalized_gamma(0.3, 1.0))
    state = marginal_sampler.initial_state(data, spec, kernel, rng,
                                           n_start=4)
    steps = [AdaptiveStepSize() for _ in range(2)]
    shape_step, table, shapes = AdaptiveStepSize(), None, []
    for _ in range(300):
        spec, table = marginal_sampler.marginal_sweep(
            state, data, spec, kernel, rng, steps, shape_step,
            lambda phi: -0.01 * phi, table=table)
        state.check()
        shapes.append(state.shape)
    assert spec.shape == state.shape
    assert max(shapes) > 100.0
