'''Urn-style marginal MCMC for normalized-CoRM mixtures.

The random measures are integrated out; the chain moves on allocations
c, auxiliary tilts v (one per group), the score shape, and cluster atoms
in the non-conjugate variant.  Allocation weights are ratios of kappa
integrals times marginal-likelihood ratios; a unit-score-shape gamma
marginal in one group reduces them to the classic urn weights.

A sweep redraws each group's allocations in one pass on a working copy
of the state (_UrnRows), written back once, when the pass ends; an
allocation update called without a pass's copy makes its own, so the
state is current after every public call.  The weights' log kappa
ratios come from the KappaTable's ratio memo, and v and the score shape
move by AdaptiveStepSize.move.
'''

import math
import numbers
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from operator import add

import numpy as np

from .core import TiltRule, marginal_exponent
# not called here: kept bound so the benchmark's tracer, which wraps
# corm.marginal_sampler.kappa and .laplace_exponent, still finds them
from .core import kappa, laplace_exponent  # noqa: F401

__all__ = [
    'AdaptiveStepSize',
    'KappaTable',
    'MarginalState',
    'initial_state',
    'update_allocation_conjugate',
    'update_allocation_nonconjugate',
    'update_atoms',
    'update_v_marginal',
    'update_shape_marginal',
    'marginal_sweep',
]

# fresh prior atoms a non-conjugate redraw offers (Neal 2000, Algorithm 8)
N_AUX = 3


@dataclass
class AdaptiveStepSize:
    '''Scale exp(log_step) of the log-scale random walk (move) that
    makes every v and score-shape step of both samplers, adapted toward
    the acceptance rate TARGET with a gain decaying as proposed^-DECAY
    (Roberts & Rosenthal 2009), log_step kept in [-12, 6]; frozen (set
    after burn-in) stops the adaptation and keeps the tally.'''
    TARGET = 0.44
    DECAY = 0.6
    log_step: float = math.log(0.5)
    accepted: float = 0.0
    proposed: int = 0
    frozen: bool = False

    @property
    def acceptance_rate(self):
        return self.accepted / self.proposed if self.proposed else 0.0

    def record(self, accept_prob):
        self.proposed += 1
        self.accepted += accept_prob
        if not self.frozen:
            gain = self.proposed ** -self.DECAY
            self.log_step += gain * (accept_prob - self.TARGET)
            self.log_step = min(max(self.log_step, -12.0), 6.0)

    def move(self, x, log_target, rng):
        '''The kept value of one Metropolis-Hastings step from x > 0 to x
        exp(step N(0, 1)) against log_target.  A proposal that is not a
        positive finite double is refused: probability 0 is recorded and
        no uniform drawn.  Otherwise the probability at log_target(x_new) -
        log_target(x) + log x_new - log x (a NaN raises) is recorded and
        one rng.uniform() decides.'''
        try:
            x_new = x * math.exp(math.exp(self.log_step) * rng.normal())
        except OverflowError:
            x_new = math.inf
        if not 0.0 < x_new < math.inf:
            self.record(0.0)
            return x
        accept_prob = _accept_probability(
            log_target(x_new) - log_target(x) + math.log(x_new) - math.log(x))
        self.record(accept_prob)
        return x_new if rng.uniform() < accept_prob else x


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
        tally = _tally(self.allocations, self.n_clusters)
        assert np.array_equal(tally, self.counts), 'counts out of sync'
        assert np.all(self.counts.sum(axis=1) > 0), 'empty cluster kept'
        assert np.all(self.v > 0.0), 'auxiliaries must be positive'
        per_cluster = self.stats if self.stats is not None else self.atoms
        assert len(per_cluster) == self.n_clusters, \
            'statistics or atoms out of sync with the clusters'
        if self.stats is not None:
            # a conjugate kernel's statistics hold the count first
            assert [s[0] for s in self.stats] == \
                self.counts.sum(axis=1).tolist(), 'statistics out of sync'


def _tally(allocations, n_labels):
    '''(n_labels, d) table of how many observations of each group carry
    each label.'''
    return np.stack([np.bincount(c, minlength=n_labels)
                     for c in allocations], axis=1)


def _round_robin(data, n_start):
    '''Each group's labels 0, 1, ..., n_start - 1, 0, 1, ... in order.'''
    if not isinstance(n_start, numbers.Integral) or n_start < 1:
        raise ValueError('n_start must be an integer of at least 1, not %r'
                         % (n_start,))
    return [np.arange(y.shape[0]) % n_start for y in data.groups]


def initial_state(data, spec, kernel, rng, n_start=1):
    '''All observations in n_start clusters split round-robin; n_start
    is an integer from 1 to the largest group's size.'''
    allocations = _round_robin(data, n_start)
    if n_start > max(c.size for c in allocations):
        raise ValueError('n_start %d exceeds the largest group: a start '
                         'cluster would be empty' % n_start)
    state = MarginalState(allocations, _tally(allocations, n_start),
                          np.ones(data.n_groups), spec.shape)
    labels = np.concatenate(allocations)
    if kernel.conjugate:
        # each cluster's statistics gather its rows in data order
        state.stats = [kernel.stats_empty() for _ in range(n_start)]
        for k, y in zip(labels.tolist(), data.stacked()[:, 0].tolist()):
            state.stats[k] = kernel.stats_add(state.stats[k], y)
    else:
        state.atoms = kernel.atom_posterior_draws(data.stacked(), labels,
                                                  n_start, rng)
    return state


class KappaTable:
    '''Cache of log kappa integrals and of psi at fixed (spec, v).  One
    group with a gamma (or, at v > 0, a sigma-stable) marginal has closed
    log kappa forms, and one group has the closed marginal exponent as
    psi; every other value comes from one TiltRule built for (spec, v).
    A value is memoised by its count tuple, and a log kappa ratio by its
    count tuple and group.  A memo miss costs the rule one matrix-vector
    product over its node terms and one product for its sums, whose
    rounding depends on the count tuple alone: the rule gives the same
    double whatever it evaluated before, so a value does not depend on the
    order in which the chain reaches the counts.  evaluations counts the
    log kappa memo misses: the values computed, by the rule or in closed
    form.'''

    def __init__(self, spec, v):
        self.spec = spec
        self.v = np.asarray(v, dtype=float)
        self._memo = {}
        self._ratios = {}
        self.evaluations = 0
        m = spec.marginal
        # kept: the tests pass on the rule alone, but test_marginal's
        # one-group shape and v chains then run 7 and 3 times slower
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
            self.evaluations += 1
            if self._closed == 'gamma':
                # kappa_a(v) collapses to Gamma(a) (1+v)^(-a)
                val = math.lgamma(a[0]) - a[0] * math.log1p(self.v[0])
            elif self._closed == 'stable':
                sigma = self.spec.marginal.sigma
                val = (math.log(sigma) + math.lgamma(a[0] - sigma)
                       - math.lgamma(1.0 - sigma)
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
        '''log of kappa_{a+e_j}(v) / kappa_a(v) for a sequence a of
        per-group counts, memoised by (a, j): the difference of the two
        memoised log kappas, so the same double whether it is read before
        or after them, and one dict lookup on a hit.'''
        key = (*a, j)
        val = self._ratios.get(key)
        if val is None:
            plus = list(a)
            plus[j] += 1
            val = self.log_kappa(tuple(plus)) - self.log_kappa(tuple(a))
            self._ratios[key] = val
        return val

    def log_target(self, counts, total):
        '''total - M psi plus log kappa at each row of counts, added one
        cluster at a time: the rounding reaches the adaptive step sizes
        through the acceptance probabilities, so the order is fixed.'''
        total -= self.spec.centring_mass * self.psi
        for a in counts.tolist():
            total += self.log_kappa(tuple(a))
        return total

    def log_new_cluster(self, j):
        '''log kappa_r(v) for r = e_j: the new-cluster integral.'''
        r = tuple(1 if m == j else 0 for m in range(self.spec.dimension))
        return self.log_kappa(r)


class _UrnRows:
    '''The working copy of group j's allocation pass at one (spec, v).

    On construction the view copies the state's count table into a list
    of lists of ints, group j's labels into a list of ints, the cluster
    statistics (or atoms) into a list, and group j's observations into
    Python floats (rows of the group's array for a kernel without
    statistics).  The redraws read and write the view alone.  write_back
    puts the counts, the group's labels and the statistics or atoms back
    into the state, which is current only after it: marginal_sweep writes
    back once, when the group's pass ends, and a one-off redraw
    (rows=None) after its one redraw.  In between, only a cluster drop
    reaches the state: it relabels the other groups' label arrays in
    place.  write_back leaves the view usable, so a pass may go on.

    Per cluster the view keeps the log kappa ratio log kappa(a_k + e_j) -
    log kappa(a_k), read from the table's ratio memo, and, with kernel
    statistics, the cluster's predictive row.  The last row stands for a
    new cluster: log M + log kappa(e_j) and the empty cluster's
    predictive row.  detach, attach and open keep the rows in step with
    the counts, refreshing only the clusters they touch (Neal 2000,
    Algorithm 3).  Ratios for other groups are not kept: each needs a
    kappa at a count vector the chain may never reach.

    redraw is the whole Gibbs redraw of one observation under a kernel
    with statistics, at a uniform u.  Most redraws put the observation
    back into its own cluster: redraw takes it out by hand, keeping the
    cluster's ratio, predictive row and statistics, and puts them back
    if the pick returns it home, so the view is what it was before, with
    no refresh.  A cluster that the removal empties goes through detach,
    a new cluster through open, a move through attach.  A pass takes its
    uniforms from uniform(rng), which draws the pass's n_j of them with
    one rng.random(n_j): the same doubles, and the same generator state
    after the n_j-th, as n_j calls of rng.random().  A pass cut short
    leaves the generator past uniforms it did not use.

    A redraw reads all K + 1 rows, about ten, and rewrites one or two; at
    that size the fixed cost of a numpy call, or of reading and writing
    numpy scalars, outweighs the arithmetic, so everything here is a
    Python list, int or float.'''

    def __init__(self, state, data, spec, kernel, table, j):
        self.state = state
        self.kernel = kernel
        self.table = table
        self.group = j
        self.dimension = spec.dimension
        self.counts = state.counts.tolist()
        self.labels = state.allocations[j].tolist()
        self.uniforms = []
        self.stats = self.atoms = self.predictive = None
        K = len(self.counts)
        self.log_ratios = [0.0] * K + [math.log(spec.centring_mass)
                                       + table.log_new_cluster(j)]
        if state.stats is not None:
            self.stats = list(state.stats)
            self.ys = data.groups[j][:, 0].tolist()
            empty = kernel.predictive_row(kernel.stats_empty())
            self.predictive = [empty] * (K + 1)
        else:
            self.atoms = list(state.atoms)
            self.ys = list(data.groups[j])
        for k in range(K):
            self.refresh(k)

    def write_back(self):
        '''Make the state current: the view's counts, group j's labels,
        and the statistics or atoms.'''
        state = self.state
        state.counts = np.array(self.counts, dtype=int)
        state.allocations[self.group][:] = self.labels
        if self.stats is not None:
            state.stats = list(self.stats)
        else:
            state.atoms = list(self.atoms)

    def uniform(self, rng):
        '''The pass's next uniform; the n_j of a pass are drawn at once,
        on the first call and again once they run out.'''
        if not self.uniforms:
            self.uniforms = rng.random(len(self.labels)).tolist()[::-1]
        return self.uniforms.pop()

    def refresh(self, k):
        self.log_ratios[k] = self.table.log_ratio(self.counts[k], self.group)
        if self.predictive is not None:
            self.predictive[k] = self.kernel.predictive_row(self.stats[k])

    def detach(self, i):
        '''Take observation i out of its cluster, which is dropped if that
        empties it; returns the dropped cluster's atom, if any, for
        recycling.  The observation keeps its label until attach.'''
        k = self.labels[i]
        row = self.counts[k]
        row[self.group] -= 1
        if self.stats is not None:
            self.stats[k] = self.kernel.stats_remove(self.stats[k],
                                                     self.ys[i])
        if any(row):
            self.refresh(k)
            return None
        del self.counts[k], self.log_ratios[k]
        recycled = None
        if self.atoms is not None:
            recycled = self.atoms.pop(k)
        else:
            del self.stats[k], self.predictive[k]
        self.labels = [c - (c > k) for c in self.labels]
        for m, c in enumerate(self.state.allocations):
            if m != self.group:
                c[c > k] -= 1
        return recycled

    def open(self, atom=None):
        '''Add an empty cluster at the end, with the given atom when the
        view keeps atoms.'''
        self.counts.append([0] * self.dimension)
        self.log_ratios.append(self.log_ratios[-1])
        if self.stats is not None:
            self.stats.append(self.kernel.stats_empty())
            self.predictive.append(self.predictive[-1])
        else:
            self.atoms.append(atom)

    def attach(self, i, k):
        self.labels[i] = k
        self.counts[k][self.group] += 1
        if self.stats is not None:
            self.stats[k] = self.kernel.stats_add(self.stats[k], self.ys[i])
        self.refresh(k)

    def redraw(self, i, u):
        '''Gibbs redraw of observation i's cluster at the uniform u, for a
        kernel with statistics.'''
        j, home, y = self.group, self.labels[i], self.ys[i]
        kernel, ratios = self.kernel, self.log_ratios
        stats, predictive = self.stats, self.predictive
        row = self.counts[home]
        kept = sum(row) > 1         # the home cluster outlives the removal
        if kept:
            # the removal by hand, keeping what a return home restores
            saved = ratios[home], predictive[home], stats[home]
            row[j] -= 1
            stats[home] = kernel.stats_remove(stats[home], y)
            ratios[home] = self.table.log_ratio(row, j)
            predictive[home] = kernel.predictive_row(stats[home])
        else:
            self.detach(i)
        logs = list(map(add, ratios, kernel.log_predictive(y, predictive)))
        k = _pick(logs, u, j, i)
        if kept and k == home:
            row[j] += 1
            ratios[home], predictive[home], stats[home] = saved
            return
        if k == len(self.counts):
            self.open()
        self.attach(i, k)


def _relative_weights(logs, j, i):
    '''exp(l - max) for each log weight l in the list logs of observation
    i of group j.  max() passes over a NaN that is not first, so the
    total is checked too: a NaN anywhere, or a largest log weight that
    is not finite, makes it NaN.'''
    top = max(logs)
    weights = [math.exp(l - top) for l in logs]
    total = sum(weights)
    if not (math.isfinite(top) and 0.0 < total < math.inf):
        raise FloatingPointError(
            'urn weights of observation %d of group %d: largest log weight '
            '%r, total weight %r' % (i + 1, j + 1, top, total))
    return weights


def _pick(logs, u, j, i):
    '''Index k drawn with probability proportional to exp(logs[k]) at the
    uniform u, by bisection on the running sums of exp(l).  A total
    outside (1e-250, 1e250), where the largest weight may not be a normal
    double, NaN included, or an exp that overflows, falls back to the
    sums of _relative_weights, the same law, which checks the weights.'''
    try:
        cum = list(accumulate(map(math.exp, logs)))
    except OverflowError:
        cum = [math.inf]
    if not 1e-250 < cum[-1] < 1e250:
        cum = list(accumulate(_relative_weights(logs, j, i)))
    return min(bisect_right(cum, u * cum[-1]), len(cum) - 1)


def update_allocation_conjugate(state, data, spec, kernel, j, i, table, rng,
                                rows=None):
    '''Gibbs reassignment of c_{j,i} in the conjugate variant.  rows is
    the _UrnRows of group j's pass, which the redraw reads and writes and
    whose uniform draws from rng; without it the call builds one, redraws
    at one rng.random() and writes it back.'''
    if rows is None:
        rows = _UrnRows(state, data, spec, kernel, table, j)
        rows.redraw(i, rng.random())
        rows.write_back()
    else:
        rows.redraw(i, rows.uniform(rng))


def update_allocation_nonconjugate(state, data, spec, kernel, j, i, table,
                                   rng, rows=None):
    '''Auxiliary-atom reassignment of c_{j,i}: existing clusters compete
    with N_AUX fresh atoms, a removed singleton recycling its atom into
    the first slot; rows as in update_allocation_conjugate, but every
    pick draws its own rng.random() after the redraw's prior draws.'''
    view = rows
    if view is None:
        view = _UrnRows(state, data, spec, kernel, table, j)
    home = view.labels[i]
    ratio = view.log_ratios[home]
    recycled = view.detach(i)
    aux = kernel.prior_draws(N_AUX, rng)
    if recycled is not None:
        aux[0] = recycled
    K = len(view.counts)
    fresh = [view.log_ratios[K] - math.log(N_AUX)] * N_AUX
    logs = np.add(view.log_ratios[:K] + fresh, kernel.log_density(
        view.ys[i], kernel.stack_atoms(view.atoms + aux)))
    k = _pick(logs.tolist(), rng.random(), j, i)
    if k == home and recycled is None:
        # back home: the detach moved only the count and the ratio
        view.counts[home][j] += 1
        view.log_ratios[home] = ratio
    else:
        if k >= K:
            view.open(aux[k - K])
            k = K
        view.attach(i, k)
    if rows is None:
        view.write_back()


def update_atoms(state, data, kernel, rng):
    '''Conjugate redraw of every cluster atom given its members.'''
    state.atoms = kernel.atom_posterior_draws(
        data.stacked(), np.concatenate(state.allocations), state.n_clusters,
        rng)


def _accept_probability(log_alpha):
    '''min(1, exp(log_alpha)) for a Metropolis-Hastings log ratio.  A NaN
    ratio raises FloatingPointError: min() would pass it through and
    the move would always be accepted.'''
    if math.isnan(log_alpha):
        raise FloatingPointError('the log acceptance ratio is nan')
    return math.exp(min(log_alpha, 0.0))


def update_v_marginal(state, spec, j, step, rng, table):
    '''Log-scale random-walk update of v_j (AdaptiveStepSize.move) from
    table, the KappaTable at (spec, state.v); returns the kept v's table.'''
    n_sizes = state.group_sizes().astype(float)
    tables = {state.v[j]: table}

    def log_target(vj):
        if vj not in tables:
            v = state.v.copy()
            v[j] = vj
            tables[vj] = KappaTable(spec, v)
        tab = tables[vj]
        return tab.log_target(state.counts,
                              float(np.sum((n_sizes - 1.0) * np.log(tab.v))))

    table = tables[step.move(state.v[j], log_target, rng)]
    state.v = table.v
    return table


def update_shape_marginal(state, spec, log_prior, step, rng, table):
    '''Log-scale random-walk update of the score shape
    (AdaptiveStepSize.move), which moves both the score density and the
    directing intensity; returns the kept shape's spec and kappa table.'''
    kept = {state.shape: (spec, table)}

    def log_target(phi):
        if phi not in kept:
            sp = spec.with_shape(phi)
            kept[phi] = sp, KappaTable(sp, state.v)
        return kept[phi][1].log_target(state.counts, log_prior(phi))

    state.shape = step.move(state.shape, log_target, rng)
    return kept[state.shape]


def _check_shape_prior(shape_step, log_prior):
    if shape_step is not None and log_prior is None:
        raise ValueError('a shape_step needs the log_prior of the score '
                         'shape')


def marginal_sweep(state, data, spec, kernel, rng, v_steps, shape_step=None,
                   log_prior=None, table=None):
    '''One full sweep: allocations, atoms (non-conjugate), auxiliaries,
    and optionally the score shape.  Returns the current spec and kappa
    table (both may be replaced by a shape move, which needs log_prior).'''
    _check_shape_prior(shape_step, log_prior)
    if table is None:
        table = KappaTable(spec, state.v)
    for j in range(data.n_groups):
        rows = _UrnRows(state, data, spec, kernel, table, j)
        for i in range(len(rows.labels)):
            if kernel.conjugate:
                update_allocation_conjugate(state, data, spec, kernel, j, i,
                                            table, rng, rows)
            else:
                update_allocation_nonconjugate(state, data, spec, kernel, j,
                                               i, table, rng, rows)
        rows.write_back()
    if not kernel.conjugate:
        update_atoms(state, data, kernel, rng)
    for j in range(data.n_groups):
        table = update_v_marginal(state, spec, j, v_steps[j], rng, table)
    if shape_step is not None:
        spec, table = update_shape_marginal(state, spec, log_prior,
                                            shape_step, rng, table)
    return spec, table
