'''Prior recovery: both samplers against an i.i.d. oracle.

Under FlatKernel every likelihood is one, so a sampler's posterior over
the partition and v is the prior's.  The oracle draws that law directly:
a CoRM realization by sample_corm (tail mass 1e-8), its normalized
weights, categorical allocations of each group's observations, and
v_1 ~ Ga(n_1, T_1) given the first coordinate's total mass T_1.  A
Geweke-style check (Geweke 2004, JASA 99:799-804) then compares the
mean number of occupied clusters k and the mean of log v_1, with chain
standard errors from the rank-normalised bulk ESS of
perfbench/diagnostics.py.  The slice sampler mixes slowly here: its bulk
ESS of k and of log v_1 is about 10-40 over the 3,000 kept sweeps, where
the marginal sampler's is 100-350, so its check is the weaker one.
'''

import math
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]
                       / 'perfbench'))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from diagnostics import bulk_ess  # noqa: E402
from corm import marginal_sampler, prior, slice_sampler  # noqa: E402
from corm.core import CoRMSpec, MarginalFamily  # noqa: E402
from corm.kernels import Dataset, FlatKernel  # noqa: E402
from corm.marginal_sampler import AdaptiveStepSize  # noqa: E402

GROUP_SIZES = (10, 10)
ORACLE_DRAWS = 5_000
CHAINS, SWEEPS = 4, 1_000
# chains start at about the prior's mean cluster count (4.4)
N_START = 4
# |z| beyond this fails: about 6e-5 two-sided under the normal law
Z_LIMIT = 4.0


def _spec():
    # generalized gamma (0.3, 1), score shape 1 (not updated), mass 1
    return CoRMSpec.from_marginal(
        2, 1.0, MarginalFamily.generalized_gamma(0.3, 1.0))


def _oracle(spec, rng):
    '''(k, log v_1) of ORACLE_DRAWS independent prior draws.'''
    k, log_v1 = np.empty(ORACLE_DRAWS), np.empty(ORACLE_DRAWS)
    for t in range(ORACLE_DRAWS):
        draw = prior.sample_corm(spec, rng, tail_mass=1e-8)
        pi = prior.normalize(draw).pi
        used = np.concatenate([rng.choice(pi.shape[1], size=n, p=row)
                               for n, row in zip(GROUP_SIZES, pi)])
        k[t] = np.unique(used).size
        log_v1[t] = math.log(rng.gamma(GROUP_SIZES[0])
                             / draw.total_masses()[0])
    return k, log_v1


class _Marginal:
    def __init__(self, data, spec, kernel, rng):
        self.state = marginal_sampler.initial_state(data, spec, kernel, rng,
                                                    n_start=N_START)
        self.v_steps = [AdaptiveStepSize() for _ in GROUP_SIZES]
        self.table = None

    def sweep(self, data, spec, kernel, rng):
        _, self.table = marginal_sampler.marginal_sweep(
            self.state, data, spec, kernel, rng, self.v_steps,
            table=self.table)

    def occupied(self):
        return self.state.n_clusters


class _Slice:
    def __init__(self, data, spec, kernel, rng):
        self.state = slice_sampler.initial_slice_state(data, spec, kernel,
                                                       rng, n_start=N_START)
        self.v_steps = [(AdaptiveStepSize(), AdaptiveStepSize())
                        for _ in GROUP_SIZES]

    def sweep(self, data, spec, kernel, rng):
        slice_sampler.slice_sweep(self.state, data, spec, kernel, rng,
                                  self.v_steps)

    def occupied(self):
        return int(np.count_nonzero(self.state.counts.sum(axis=1)))


def _chains(chain_cls, spec, seed):
    '''(CHAINS, kept sweeps) arrays of k and log v_1, the first quarter
    of each chain dropped.'''
    data = Dataset([np.zeros(n) for n in GROUP_SIZES])
    kernel = FlatKernel()
    burn = SWEEPS // 4
    k = np.empty((CHAINS, SWEEPS - burn))
    log_v1 = np.empty_like(k)
    for c, seq in enumerate(np.random.SeedSequence(seed).spawn(CHAINS)):
        rng = np.random.default_rng(seq)
        chain = chain_cls(data, spec, kernel, rng)
        for t in range(SWEEPS):
            chain.sweep(data, spec, kernel, rng)
            if t >= burn:
                k[c, t - burn] = chain.occupied()
                log_v1[c, t - burn] = math.log(chain.state.v[0])
    return k, log_v1


@pytest.fixture(scope='module')
def oracle():
    spec = _spec()
    return spec, _oracle(spec, np.random.default_rng(11))


def _z(chain, iid):
    '''z-score of the chain mean against the i.i.d. mean, and the bulk
    ESS behind the chain's standard error.'''
    n_eff = bulk_ess(chain)
    se2 = chain.var(ddof=1) / n_eff + iid.var(ddof=1) / iid.size
    return (chain.mean() - iid.mean()) / math.sqrt(se2), n_eff


@pytest.mark.parametrize('chain_cls, seed', [(_Marginal, 21), (_Slice, 22)],
                         ids=['marginal', 'slice'])
def test_sampler_recovers_the_prior(oracle, chain_cls, seed):
    spec, iid = oracle
    for name, chain, draws in zip(('k', 'log v1'),
                                  _chains(chain_cls, spec, seed), iid):
        z, n_eff = _z(chain, draws)
        assert abs(z) < Z_LIMIT, (
            '%s: chain mean %.4f (bulk ESS %.0f) against i.i.d. %.4f, '
            'z = %.2f' % (name, chain.mean(), n_eff, draws.mean(), z))
