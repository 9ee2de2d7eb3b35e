'''Urn-style marginal MCMC for normalized-CoRM mixtures.

The random measures are integrated out; the chain moves on allocations
c, auxiliary tilts v (one per group), the score shape, and cluster atoms
in the non-conjugate variant.  Allocation weights are ratios of kappa
integrals times marginal-likelihood ratios; a unit-score-shape gamma
marginal in one group reduces them to the classic urn weights.
'''

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import gammaln

from .core import TiltRule, marginal_exponent
# not called here: kept bound so the benchmark's tracer, which wraps
# corm.marginal_sampler.kappa and .laplace_exponent, still finds them
from .core import kappa, laplace_exponent  # noqa: F401

__all__ = [
    'AdaptiveStepSize',
    'KappaTable',
    'MarginalState',
    'initial_state',
    'allocation_weights',
    'update_allocation_conjugate',
    'update_allocation_nonconjugate',
    'update_atoms',
    'update_v_marginal',
    'update_shape_marginal',
    'marginal_sweep',
]


@dataclass
class AdaptiveStepSize:
    '''Random-walk scale adapted toward a target acceptance rate by a
    decaying stochastic approximation, freezable after burn-in.'''
    log_step: float = math.log(0.5)
    target: float = 0.44
    decay: float = 0.6
    accepted: float = 0.0
    proposed: int = 0
    frozen: bool = False

    @property
    def step(self):
        return math.exp(self.log_step)

    @property
    def acceptance_rate(self):
        return self.accepted / self.proposed if self.proposed else 0.0

    def record(self, accept_prob):
        self.proposed += 1
        self.accepted += accept_prob
        if not self.frozen:
            gain = self.proposed ** -self.decay
            self.log_step += gain * (accept_prob - self.target)
            self.log_step = min(max(self.log_step, -12.0), 6.0)


@dataclass
class MarginalState:
    '''Chain state: per-group integer allocations into 0..K-1, the
    (K, d) table of per-cluster per-group counts, auxiliaries v, score
    shape, and per-cluster kernel statistics or atoms.'''
    allocations: list
    counts: np.ndarray
    v: np.ndarray
    shape: float
    stats: list = None
    atoms: list = None

    @property
    def n_clusters(self):
        return int(self.counts.shape[0])

    def group_sizes(self):
        return np.array([len(c) for c in self.allocations])

    def check(self):
        K, d = self.counts.shape
        tally = np.zeros((K, d), dtype=int)
        for j, c in enumerate(self.allocations):
            for k in c:
                tally[k, j] += 1
        assert np.array_equal(tally, self.counts), 'counts out of sync'
        assert np.all(self.counts.sum(axis=1) > 0), 'empty cluster kept'
        assert np.all(self.v > 0.0), 'auxiliaries must be positive'


def initial_state(data, spec, kernel, rng, n_start=1):
    '''All observations in n_start clusters split round-robin.'''
    d = data.n_groups
    allocations = []
    for j in range(d):
        n_j = data.groups[j].shape[0]
        allocations.append(np.arange(n_j) % n_start)
    counts = np.zeros((n_start, d), dtype=int)
    for j, c in enumerate(allocations):
        for k in c:
            counts[k, j] += 1
    state = MarginalState(allocations, counts, np.ones(d), spec.shape)
    if kernel.conjugate:
        state.stats = []
        for k in range(n_start):
            stats = kernel.stats_empty()
            for j in range(d):
                for i, lab in enumerate(allocations[j]):
                    if lab == k:
                        stats = kernel.stats_add(stats, data.groups[j][i, 0])
            state.stats.append(stats)
    else:
        state.atoms = [
            kernel.atom_posterior_draw(_members(data, state, k), rng)
            for k in range(n_start)]
    return state


def _members(data, state, k):
    rows = [data.groups[j][state.allocations[j] == k]
            for j in range(data.n_groups)]
    return np.concatenate(rows, axis=0)


class KappaTable:
    '''Cache of log kappa integrals and of psi at fixed (spec, v).  One
    group with a gamma (or, at v > 0, a sigma-stable) marginal has closed
    log kappa forms, and one group has the closed marginal exponent as
    psi; every other value comes from one TiltRule built for (spec, v).'''

    def __init__(self, spec, v):
        self.spec = spec
        self.v = np.asarray(v, dtype=float)
        self._memo = {}
        m = spec.marginal
        self._closed = None
        if spec.dimension == 1:
            if m.kind == 'gamma':
                self._closed = 'gamma'
            elif m.kind == 'sigma-stable' and self.v[0] > 0.0:
                self._closed = 'stable'
        self._rule = None if self._closed else TiltRule(spec, self.v)

    def log_kappa(self, a):
        '''log kappa_a(v) for a tuple of per-group counts.'''
        val = self._memo.get(a)
        if val is None:
            if self._closed == 'gamma':
                # kappa_a(v) collapses to Gamma(a) (1+v)^(-a)
                val = float(gammaln(a[0]) - a[0] * math.log1p(self.v[0]))
            elif self._closed == 'stable':
                sigma = self.spec.marginal.sigma
                val = float(math.log(sigma) + gammaln(a[0] - sigma)
                            - gammaln(1.0 - sigma)
                            + (sigma - a[0]) * math.log(self.v[0]))
            else:
                val = self._rule.log_kappa(a)
            self._memo[a] = val
        return val

    @cached_property
    def psi(self):
        '''The Laplace exponent psi(v) of the measure vector.'''
        if self.spec.dimension == 1:
            return float(marginal_exponent(self.spec.marginal, self.v[0]))
        return self._rule.psi()

    def log_ratio(self, a, j):
        '''log of kappa_{a+e_j}(v) / kappa_a(v).'''
        plus = list(a)
        plus[j] += 1
        return self.log_kappa(tuple(plus)) - self.log_kappa(a)

    def log_new_cluster(self, j):
        '''log kappa_r(v) for r = e_j: the new-cluster integral.'''
        r = tuple(1 if m == j else 0 for m in range(self.spec.dimension))
        return self.log_kappa(r)


def _categorical(weights, rng):
    cum = np.cumsum(weights)
    u = rng.uniform() * cum[-1]
    return min(int(np.searchsorted(cum, u, side='right')), weights.size - 1)


def _detach(state, data, kernel, j, i):
    '''Remove observation (j, i) from its cluster; drop the cluster if
    it empties, returning its recycled atom (if any).'''
    k = int(state.allocations[j][i])
    y = data.groups[j][i, 0] if kernel.conjugate else data.groups[j][i]
    state.counts[k, j] -= 1
    if state.stats is not None:
        state.stats[k] = kernel.stats_remove(state.stats[k], y)
    recycled = None
    if state.counts[k].sum() == 0:
        if state.atoms is not None:
            recycled = state.atoms.pop(k)
        else:
            state.stats.pop(k)
        state.counts = np.delete(state.counts, k, axis=0)
        for c in state.allocations:
            c[c > k] -= 1
        state.allocations[j][i] = -1
    else:
        state.allocations[j][i] = -1
    return recycled


def _attach(state, data, kernel, j, i, k):
    state.allocations[j][i] = k
    state.counts[k, j] += 1
    if state.stats is not None:
        state.stats[k] = kernel.stats_add(state.stats[k],
                                          data.groups[j][i, 0])


def allocation_weights(state, data, spec, kernel, j, i, table):
    '''Unnormalized urn weights for observation (j, i): one entry per
    existing cluster plus one for a fresh cluster.  The observation must
    already be detached.'''
    K = state.n_clusters
    y = data.groups[j][i, 0]
    logs = np.empty(K + 1)
    for k in range(K):
        a = tuple(int(x) for x in state.counts[k])
        logs[k] = table.log_ratio(a, j) + kernel.log_predictive(
            y, state.stats[k])
    logs[K] = math.log(spec.centring_mass) + table.log_new_cluster(j) \
        + kernel.log_predictive(y, kernel.stats_empty())
    logs -= logs.max()
    return np.exp(logs)


def update_allocation_conjugate(state, data, spec, kernel, j, i, table, rng):
    '''Gibbs reassignment of c_{j,i} in the conjugate variant.'''
    _detach(state, data, kernel, j, i)
    weights = allocation_weights(state, data, spec, kernel, j, i, table)
    k = _categorical(weights, rng)
    if k == state.n_clusters:
        state.counts = np.vstack([state.counts,
                                  np.zeros(spec.dimension, dtype=int)])
        state.stats.append(kernel.stats_empty())
    _attach(state, data, kernel, j, i, k)


def update_allocation_nonconjugate(state, data, spec, kernel, j, i, table,
                                   rng, n_aux=3):
    '''Auxiliary-atom reassignment of c_{j,i}: existing clusters compete
    with n_aux fresh atoms, a removed singleton recycling its atom into
    the first slot.'''
    recycled = _detach(state, data, kernel, j, i)
    y = data.groups[j][i]
    aux = [kernel.atom_posterior_draw(np.empty((0, y.size)), rng)
           for _ in range(n_aux)]
    if recycled is not None:
        aux[0] = recycled
    K = state.n_clusters
    logs = np.empty(K + n_aux)
    for k in range(K):
        a = tuple(int(x) for x in state.counts[k])
        logs[k] = table.log_ratio(a, j) + kernel.log_density(
            y, state.atoms[k])
    base = math.log(spec.centring_mass / n_aux) + table.log_new_cluster(j)
    for m in range(n_aux):
        logs[K + m] = base + kernel.log_density(y, aux[m])
    logs -= logs.max()
    k = _categorical(np.exp(logs), rng)
    if k >= K:
        state.counts = np.vstack([state.counts,
                                  np.zeros(spec.dimension, dtype=int)])
        state.atoms.append(aux[k - K])
        k = K
    state.allocations[j][i] = k
    state.counts[k, j] += 1


def update_atoms(state, data, kernel, rng):
    '''Conjugate redraw of every cluster atom given its members.'''
    state.atoms = [
        kernel.atom_posterior_draw(_members(data, state, k), rng)
        for k in range(state.n_clusters)]


def _log_target_v(state, spec, table, n_sizes):
    v = table.v
    total = float(np.sum((n_sizes - 1.0) * np.log(v)))
    total -= spec.centring_mass * table.psi
    for k in range(state.n_clusters):
        total += table.log_kappa(tuple(int(x) for x in state.counts[k]))
    return total


def update_v_marginal(state, spec, j, step, rng, table):
    '''Log-scale random-walk update of v_j; returns the (possibly new)
    kappa table.'''
    n_sizes = state.group_sizes().astype(float)
    current = _log_target_v(state, spec, table, n_sizes)
    proposal = state.v.copy()
    proposal[j] = state.v[j] * math.exp(step.step * rng.normal())
    new_table = KappaTable(spec, proposal)
    candidate = _log_target_v(state, spec, new_table, n_sizes)
    log_alpha = candidate - current \
        + math.log(proposal[j]) - math.log(state.v[j])
    accept = min(1.0, math.exp(min(log_alpha, 0.0)))
    if rng.uniform() < accept:
        state.v = proposal
        table = new_table
    step.record(accept)
    return table


def update_shape_marginal(state, spec, log_prior, step, rng, table):
    '''Log-scale random-walk update of the score shape; both the score
    density and the directing intensity move with it.  Returns the
    (possibly new) spec and kappa table.'''
    phi_new = state.shape * math.exp(step.step * rng.normal())

    def log_target(sp, tab, phi):
        total = log_prior(phi) - sp.centring_mass * tab.psi
        for k in range(state.n_clusters):
            total += tab.log_kappa(tuple(int(x) for x in state.counts[k]))
        return total

    try:
        spec_new = spec.with_shape(phi_new)
    except ValueError:
        step.record(0.0)
        return spec, table
    table_new = KappaTable(spec_new, state.v)
    log_alpha = log_target(spec_new, table_new, phi_new) \
        - log_target(spec, table, state.shape) \
        + math.log(phi_new) - math.log(state.shape)
    accept = min(1.0, math.exp(min(log_alpha, 0.0)))
    if rng.uniform() < accept:
        state.shape = phi_new
        spec, table = spec_new, table_new
    step.record(accept)
    return spec, table


def marginal_sweep(state, data, spec, kernel, rng, v_steps, shape_step=None,
                   log_prior=None, n_aux=3, table=None):
    '''One full sweep: allocations, atoms (non-conjugate), auxiliaries,
    and optionally the score shape.  Returns the current spec and kappa
    table (both may be replaced by a shape move).'''
    if table is None:
        table = KappaTable(spec, state.v)
    for j in range(data.n_groups):
        n_j = data.groups[j].shape[0]
        for i in range(n_j):
            if kernel.conjugate:
                update_allocation_conjugate(state, data, spec, kernel, j, i,
                                            table, rng)
            else:
                update_allocation_nonconjugate(state, data, spec, kernel, j,
                                               i, table, rng, n_aux)
    if not kernel.conjugate:
        update_atoms(state, data, kernel, rng)
    for j in range(data.n_groups):
        table = update_v_marginal(state, spec, j, v_steps[j], rng, table)
    if shape_step is not None:
        spec, table = update_shape_marginal(state, spec, log_prior,
                                            shape_step, rng, table)
    return spec, table
