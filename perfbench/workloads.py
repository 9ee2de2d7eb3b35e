'''Inputs, chains and correctness checks of the four benchmark workloads.

Everything is generated from the workload seed: a SeedSequence spawns
one child per sampler chain, which spawns the chain's data stream and
its sampler stream (prior-gg: a set-up stream and a draw stream), so the
same seed gives the same data and bit-identical chains.  The run's time
budget sets how many chains and sweeps (or draws) there are; the chains
of a smaller run are the first chains of a larger one.

Sampler data: each chain has its own data set, so that a run averages
over data sets as well as trajectories.  A data set has two groups, each
an equal-weight normal mixture with sd 0.5; group 1 draws from
components at -2 and +2, group 2 from +2 and +5, so the groups share the
component at +2.  The model is the conjugate
UnivariateNormalGamma kernel centred on the pooled data, a
generalized-gamma marginal (sigma 0.3, a 1), centring mass 1, score
shape starting at 1 and moving under the log prior -phi, and n_start 4.
'''

import hashlib
import math

import numpy as np

from corm import marginal_sampler, prior, slice_sampler
from corm.core import CoRMSpec, MarginalFamily
from corm.kernels import Dataset, UnivariateNormalGamma

__all__ = ['WORKLOADS', 'ChainFailure', 'mass_check', 'prepare']

SIGMA = 0.3
SCALE_A = 1.0
N_START = 4
# prior-gg: d=2 generalized-gamma spec with score shape 2 and centring
# mass 10; mean coordinate total mass M sigma a^(sigma-1)
PRIOR_SHAPE = 2.0
PRIOR_MASS = 10.0
PRIOR_MEAN_TOTAL = PRIOR_MASS * SIGMA * SCALE_A ** (SIGMA - 1.0)
PRIOR_DRAWS_PER_S = 8
# digests are taken at these sweep counts, so runs of different length
# can still be compared over their common prefix
DIGEST_POINTS = (8, 16, 32, 64, 128, 256, 512, 1024)


def log_prior(phi):
    return -phi


def _marginal():
    return MarginalFamily.generalized_gamma(SIGMA, SCALE_A)


def make_data(rng, per_group):
    '''Two groups of per_group draws sharing the component at +2.'''
    groups = []
    for means in ((-2.0, 2.0), (2.0, 5.0)):
        pick = rng.integers(2, size=per_group)
        groups.append(np.asarray(means)[pick]
                      + 0.5 * rng.standard_normal(per_group))
    return Dataset(groups)


class ChainFailure(Exception):
    '''A correctness check failed on a chain state or a draw.'''


class _Chain:
    '''One chain: its state, tuning objects, per-sweep trace and digest.'''

    def __init__(self, index, data, spec, kernel, seed):
        self.index = index
        self.data = data
        self.spec = spec
        self.kernel = kernel
        self.rng = np.random.default_rng(seed)
        self.times = []          # seconds, corrected for machine speed
        self.raw_times = []
        self.trace = []          # (k, v_1..v_d, shape, jumps) per sweep
        self.failure = None
        self._hash = hashlib.sha256()
        self.digests = {}

    def log_sweep(self, raw, factor):
        row = (self.occupied(),) + tuple(float(x) for x in self.state.v) \
            + (float(self.state.shape),)
        self.raw_times.append(raw)
        self.times.append(raw * factor)
        self.trace.append(row + (self.jumps(),))
        self._hash.update(repr(row[0]).encode())
        for x in row[1:]:
            self._hash.update(float.hex(x).encode())
        n = len(self.trace)
        if n in DIGEST_POINTS:
            self.digests[n] = self._hash.hexdigest()[:16]

    def final_digest(self):
        return self._hash.hexdigest()[:16]

    def check(self):
        '''Library invariants plus finite, positive tilts and shape.'''
        try:
            self.state.check()
        except AssertionError as err:
            raise ChainFailure('invariant: %s' % err) from None
        v = np.asarray(self.state.v, dtype=float)
        if not (np.all(np.isfinite(v)) and np.all(v > 0.0)):
            raise ChainFailure('invariant: non-finite or non-positive v')
        if not (math.isfinite(self.state.shape) and self.state.shape > 0.0):
            raise ChainFailure('invariant: non-finite score shape')


class MarginalChain(_Chain):
    def __init__(self, index, data, spec, kernel, seed):
        super().__init__(index, data, spec, kernel, seed)
        self.state = marginal_sampler.initial_state(
            data, spec, kernel, self.rng, n_start=N_START)
        self.v_steps = [marginal_sampler.AdaptiveStepSize()
                        for _ in range(data.n_groups)]
        self.shape_step = marginal_sampler.AdaptiveStepSize()
        self.table = None

    def sweep(self):
        self.spec, self.table = marginal_sampler.marginal_sweep(
            self.state, self.data, self.spec, self.kernel, self.rng,
            self.v_steps, self.shape_step, log_prior, table=self.table)

    def occupied(self):
        return self.state.n_clusters

    def jumps(self):
        return self.state.n_clusters

    def v_accept_rate(self):
        return float(np.mean([s.acceptance_rate for s in self.v_steps]))


class SliceChain(_Chain):
    def __init__(self, index, data, spec, kernel, seed):
        super().__init__(index, data, spec, kernel, seed)
        self.state = slice_sampler.initial_slice_state(
            data, spec, kernel, self.rng, n_start=N_START)
        self.v_steps = [(marginal_sampler.AdaptiveStepSize(),
                         marginal_sampler.AdaptiveStepSize())
                        for _ in range(data.n_groups)]
        self.shape_step = marginal_sampler.AdaptiveStepSize()
        self.cache = {}

    def sweep(self):
        self.spec = slice_sampler.slice_sweep(
            self.state, self.data, self.spec, self.kernel, self.rng,
            self.v_steps, self.shape_step, log_prior, self.cache)

    def occupied(self):
        return int(np.count_nonzero(self.state.counts.sum(axis=1)))

    def jumps(self):
        return self.state.n_jumps

    def v_accept_rate(self):
        return float(np.mean([s.acceptance_rate
                              for pair in self.v_steps for s in pair]))


class PriorStream:
    '''Repeated sample_corm + normalize draws from one random stream.
    Its per-draw record is (jump count, total mass per coordinate).'''

    index = 0
    failure = None       # failed draws do not stop the stream

    def __init__(self, spec, seed):
        self.spec = spec
        self.rng = np.random.default_rng(seed)
        self.mass_summary = {}
        self.times = []
        self.raw_times = []
        self.trace = []

    def log_draw(self, raw, factor, realization, totals):
        self.raw_times.append(raw)
        self.times.append(raw * factor)
        self.trace.append((realization.jump_count,) + tuple(totals))

    def draw(self):
        realization = prior.sample_corm(self.spec, self.rng)
        weights = prior.normalize(realization)
        return realization, weights

    def check(self, realization, weights):
        rows = weights.pi.sum(axis=1)
        if not np.all(np.abs(rows - 1.0) <= 1e-12):
            raise ChainFailure('normalize: a row sums to %r'
                               % float(rows[np.argmax(np.abs(rows - 1.0))]))
        totals = realization.total_masses()
        if not np.all(np.isfinite(totals)):
            raise ChainFailure('sample_corm: non-finite total mass')
        return totals


def mass_check(trace):
    '''Mean per-coordinate total mass against the closed form
    M sigma a^(sigma-1), within four Monte Carlo standard errors.
    Returns a failure message or None, and the summary.'''
    totals = np.array([row[1:] for row in trace], dtype=float)
    if totals.shape[0] < 10:
        return 'mass check: fewer than 10 draws', {}
    mean = totals.mean(axis=0)
    se = totals.std(axis=0, ddof=1) / math.sqrt(totals.shape[0])
    z = (mean - PRIOR_MEAN_TOTAL) / se
    summary = {'mean_total_mass': mean.tolist(), 'standard_error':
               se.tolist(), 'expected': PRIOR_MEAN_TOTAL, 'z': z.tolist()}
    if np.any(np.abs(z) > 4.0):
        return ('mass check: mean total mass %s is %s standard errors '
                'from %g' % (np.round(mean, 4).tolist(),
                             np.round(z, 2).tolist(), PRIOR_MEAN_TOTAL),
                summary)
    return None, summary


class Workload:
    '''Prepared inputs: the chains (or the prior stream) ready to run.
    A run takes `horizon` sweeps of every chain (a chain stops early at
    a sweep that raises) or `horizon` prior draws, so what it computes,
    failures included, depends on the seed and the size alone.
    `corrected` says whether step times are corrected for machine speed
    (see calibration.py).'''

    def __init__(self, name, kind, chains, horizon, description,
                 corrected):
        self.name = name
        self.kind = kind
        self.chains = chains
        self.horizon = horizon
        self.description = description
        self.corrected = corrected


def _count(x):
    return max(1, int(round(x)))


def _sampler(name, per_group, chain_cls, size):
    '''size(seconds) gives the number of chains and sweeps per chain.'''
    def build(seed, seconds):
        n_chains, horizon = (_count(x) for x in size(seconds))
        spec = CoRMSpec.from_marginal(2, 1.0, _marginal(), centring_mass=1.0)
        chains = []
        for i, seq in enumerate(np.random.SeedSequence(seed).spawn(n_chains)):
            data_seq, chain_seq = seq.spawn(2)
            data = make_data(np.random.default_rng(data_seq), per_group)
            kernel = UnivariateNormalGamma.from_data(data.stacked())
            chains.append(chain_cls(i, data, spec, kernel, chain_seq))
        return Workload(name, 'sampler', chains, horizon,
                        '%s on %d+%d observations, %d chains of %d sweeps, '
                        'each on its own data set'
                        % (chain_cls.__name__, per_group, per_group,
                           n_chains, horizon), True)
    return build


def _prior_gg(seed, seconds):
    draws = max(10, _count(PRIOR_DRAWS_PER_S * seconds))
    seq = np.random.SeedSequence(seed)
    setup_seq, draw_seq = seq.spawn(2)
    spec = CoRMSpec.from_marginal(2, PRIOR_SHAPE, _marginal(),
                                  centring_mass=PRIOR_MASS)
    # the first draw fills the truncation-level cache
    prior.sample_corm(spec, np.random.default_rng(setup_seq))
    return Workload('prior-gg', 'prior', [PriorStream(spec, draw_seq)],
                    draws, '%d draws of sample_corm + normalize, d=2 '
                    'generalized gamma, shape %g, centring mass %g'
                    % (draws, PRIOR_SHAPE, PRIOR_MASS), False)


# Sizes are set per second of the run's time budget, so that a run
# takes about that long on a 2-vCPU KVM host; the work itself does not
# depend on the machine's speed.  The chain counts and lengths come from
# resampling the recorded sweep times of 40-50 runs per workload: the
# per-run throughput scatters most with the chains' cost levels, so
# short chains and many of them.
WORKLOADS = {
    'marginal-120': _sampler('marginal-120', 60, MarginalChain,
                             lambda s: (4, 4 * s)),
    # chains fail after 2-36 sweeps here (OverflowError, non-finite
    # integrand in kappa); about half of them within 10
    'marginal-400': _sampler('marginal-400', 200, MarginalChain,
                             lambda s: (s, 10)),
    # a slice sweep's cost follows the chain's trajectory: the mean of a
    # chain's first 5 sweeps varies with CV 0.40 across chain seeds on
    # one data set (0.46 across data sets), a chain's later sweeps keep
    # its level, and its sweeps grow slower from 20 ms (the first) to
    # about 100 ms (the tenth); throughput is steady only over many
    # chains
    'slice-400': _sampler('slice-400', 200, SliceChain,
                          lambda s: (8 * s, 2)),
    # one draw in six or seven needs 32 vectorised Newton steps in the
    # inverse tail instead of 5-9 and takes 5 times as long, so the
    # number of such draws in a run sets its throughput
    'prior-gg': _prior_gg,
}


def prepare(name, seed, seconds):
    '''Build the workload's inputs and initial states from its seed,
    sized for a run of `seconds`.'''
    return WORKLOADS[name](seed, seconds)
