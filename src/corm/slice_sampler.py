'''Slice-augmented MCMC for normalized-CoRM mixtures.

The chain keeps an explicit finite set of jumps above an adaptive
threshold L = min of the slice latents: allocated jumps carry members,
the rest form a pool refreshed by Poisson repopulation and a
reversible-jump birth/death move.  Auxiliary tilts v are updated by a
two-stage interweaving scheme that alternates sufficient and ancillary
parametrizations of the scores.

Supported score marginals: gamma and unit-scale generalized gamma, whose
directing intensities c z^(-1-sigma) (1 - z)^(beta-1) live on (0, 1).
Every draw from nu* on a band is a rejection draw from the directing
intensity's power envelope (spec.directing.envelope): a power law c
z^(-1-sigma), at beta < 1 a power piece and a beta piece split at the
t of least mass on the band, whose tails have closed-form inverses, so
a proposal costs a uniform and a power and no tail inversion.  Jump k
is redrawn from nu*(z) e^(-w_k z) on (low_k, 1) (Griffin & Walker 2011)
from the cheaper of two exact envelopes, chosen per jump by envelope
mass: the power envelope, accepted by nu* over it times the tilt, or a
truncated exponential of rate w_k times a bound on nu*, accepted by nu*
over its bound (Devroye 1986, ch. II).  The repopulation births on
(L_new, L_old), a Poisson process of intensity M nu*(z) prod_j (1 +
v_j z)^(-shape), thin the power envelope on that band times the tilt's
value at L_new (Lewis & Shedler 1979): a Poisson number of envelope
points, each kept with nu* over the envelope times the tilt relative to
that value.  The birth of the birth/death move comes from the envelope
on (L, 1), accepted by nu* over it.  The rejection draws are batched:
in each round every pending draw gets m proposals, keeps its first
accepted one (the sequential rejection sampler's draw, as proposals are
i.i.d.), and m doubles for the draws still pending.

The integrals against nu* that the kept jumps leave out are trapezoid
rules (core.TiltRule) truncated at L: the residual Laplace exponent
below L and its v-gradient (the snapshots' residual mass).  L stays
fixed from repopulation to the end of a sweep, so the v and shape moves
share one RuleNodes per spec, and each MH ratio reuses the residual at
the current state: 2d + 2 residual evaluations a sweep.
'''

import math
from dataclasses import dataclass

import numpy as np

from .core import RuleNodes, TiltRule, _check_tilt
from .marginal_sampler import _accept_probability, _members, _tally
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
    'slice_snapshots',
    'slice_sweep',
]

MAX_REJECTION_TRIES = 10_000
# proposals a rejection round holds at most, unless more draws than this
# are pending (each pending draw gets at least one proposal): a round
# holds a few float arrays of this length, about 0.5 MB each
_ROUND_PROPOSALS = 1 << 16
_BELOW_ONE = np.nextafter(1.0, 0.0)


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
        assert np.array_equal(_tally(self.allocations, K), self.counts), \
            'counts out of sync'
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
    '''Round-robin start with n_start active jumps, Ga(shape) scores and
    consistent slice latents.  Jump k lies where the power law c
    z^(-1-sigma) of the directing intensity's envelope has mass 1 - U_k
    above it, U_k uniform on [0, 1): z = (1 + sigma (1 - U_k) / c)^(-1 /
    sigma), e^(-(1 - U_k)) at sigma 0 and c = 1, in closed form
    (PowerEnvelope.power_level), so the start inverts no tail.  Every
    jump lies strictly inside (0, 1): one that rounds up to 1 is the
    largest double below it.'''
    _check_family(spec)
    d = data.n_groups
    allocations = [np.arange(g.shape[0]) % n_start for g in data.groups]
    counts = _tally(allocations, n_start)
    jumps = spec.directing.envelope.power_level(
        1.0 - rng.uniform(size=n_start))
    scores = rng.gamma(spec.shape, size=(n_start, d))
    state = SliceState(allocations, counts, jumps, scores, atoms=[None] *
                       n_start, u=[], v=np.ones(d), shape=spec.shape)
    update_atoms_slice(state, data, kernel, rng)
    state.u = [_slice_draw(rng, c.size) * jumps[c] for c in allocations]
    return state


def _slice_draw(rng, size):
    # uniform draws bounded away from 0, so the threshold is positive and
    # the envelope mass of the repopulation births on (new, old) finite
    return np.maximum(rng.uniform(size=size), 2.3e-16)


def residual_laplace(spec, v, L, nodes=None):
    '''Contribution of jumps below L to the Laplace exponent at v:
    integral over (0, L) of (1 - prod_j (1+v_j z)^(-shape)) nu*(z) dz,
    the psi of a TiltRule truncated at L.  nodes, the RuleNodes(spec, L)
    of that rule, is built here when not given.'''
    v = np.asarray(v, dtype=float)
    if L == 0.0 or not np.any(v > 0.0):
        return 0.0
    if nodes is None:
        nodes = RuleNodes(spec, L)
    elif nodes.upper != L:
        raise ValueError('the nodes are not truncated at L = %r' % L)
    return TiltRule(spec, v, nodes).psi()


class _Residuals:
    '''residual_laplace at the threshold L of the moves that follow
    repopulation in a sweep, which leave L fixed: the node terms are
    built once per spec and each value once per (spec, v).  A value
    depends on (spec, v, L) alone, so reusing it changes no draw.'''

    def __init__(self, L):
        self.L = L
        self._nodes = {}
        self._values = {}

    def __call__(self, spec, v):
        v = np.asarray(v, dtype=float)
        key = (spec, v.tobytes())
        if key not in self._values:
            if spec not in self._nodes:
                self._nodes[spec] = RuleNodes(spec, self.L)
            self._values[key] = residual_laplace(spec, v, self.L,
                                                 self._nodes[spec])
        return self._values[key]


def _first_accepted(n, propose, describe, rng):
    '''n independent rejection draws.  propose(idx) returns one
    proposal for each draw index in the array idx, and the probability
    of accepting it for that draw (0 rejects it outright, as for a
    proposal outside the draw's support, which is never clamped).  Each
    round gives every pending index m proposals through one propose call
    and one uniform array for the acceptances; an index keeps its first
    accepted proposal in order, which is the rejection sampler itself,
    and m doubles for the indices still pending (while a round stays
    within _ROUND_PROPOSALS).  Raises RuntimeError, naming describe(i),
    once a draw has used MAX_REJECTION_TRIES proposals.'''
    out = np.empty(n)
    pending = np.arange(n)
    used, m = 0, 1
    while pending.size:
        if used >= MAX_REJECTION_TRIES:
            raise RuntimeError('%s exceeded %d rejection tries'
                               % (describe(pending[0]), MAX_REJECTION_TRIES))
        m = max(1, min(m, MAX_REJECTION_TRIES - used,
                       _ROUND_PROPOSALS // pending.size))
        z, p = propose(np.repeat(pending, m))
        ok = (rng.uniform(size=z.size) < p).reshape(-1, m)
        hit = ok.any(axis=1)
        first = ok.argmax(axis=1)
        out[pending[hit]] = z.reshape(-1, m)[hit, first[hit]]
        pending = pending[~hit]
        used += m
        m *= 2
    return out


def _tilted_proposals(band, v, phi, u):
    '''Points of one envelope band's normalised law at the uniforms u,
    and their acceptances for nu*(z) prod_j (1+v_j z)^(-phi): the band's
    thinning probability times the tilt over its largest value, at the
    band's lower end.'''
    z, keep = band.propose(u)
    return z, keep * np.prod(
        ((1.0 + v * band.lower) / (1.0 + np.outer(z, v))) ** phi, axis=1)


def sample_tilted_z(spec, lower, upper, v, rng, size=None):
    '''Draws from the law of a repopulation birth on (lower, upper):
    nu*(z) prod_j (1+v_j z)^(-shape), by rejection from the directing
    intensity's power envelope on the band (split at the t of least mass
    at beta < 1): z comes from the envelope's closed-form inverse at a
    uniform level, and is accepted with nu* over the envelope times the
    tilt relative to its largest value, at lower (_tilted_proposals).  A
    proposal on or outside an end of the band is rejected.  All size
    draws share the rounds of _first_accepted.  v must be a finite,
    nonnegative vector of length d.  Returns a float when size is None,
    else an array of that shape.'''
    _check_family(spec)
    if not 0.0 < lower < upper <= 1.0:
        raise ValueError('need 0 < lower < upper <= 1')
    v = _check_tilt(v, spec.dimension)
    band = spec.directing.envelope.band(lower, upper)
    n = 1 if size is None else int(np.prod(size))
    z = _first_accepted(
        n, lambda idx: _tilted_proposals(band, v, spec.shape,
                                         rng.uniform(size=idx.size)),
        lambda _: 'tilted repopulation sampler on (%.3g, %.3g)'
        % (lower, upper), rng)
    return float(z[0]) if size is None else z.reshape(size)


def _tilted_births(spec, v, lower, upper, rng):
    '''The points on (lower, upper), 0 < lower < upper, of a Poisson
    process of intensity M nu*(z) prod_j (1+v_j z)^(-shape), M the
    centring mass, by thinning (Lewis & Shedler 1979): a Poisson number
    of the power envelope's points on the band, of mean M times its mass
    times the tilt's value at lower, each kept with its acceptance from
    _tilted_proposals.  v must be a finite, nonnegative vector of length
    d.  Returns the kept points in the order drawn.'''
    v = _check_tilt(v, spec.dimension)
    band = spec.directing.envelope.band(lower, upper)
    top = float(np.prod((1.0 + v * lower) ** -spec.shape))
    n = rng.poisson(spec.centring_mass * float(band.mass) * top)
    z, p = _tilted_proposals(band, v, spec.shape, rng.uniform(size=n))
    return z[rng.uniform(size=n) < p]


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


def _append_jumps(state, z, scores, atoms):
    '''Add unallocated jumps: heights z, an (n, d) score table and
    their atoms.'''
    state.jumps = np.append(state.jumps, z)
    state.scores = np.vstack([state.scores, scores])
    state.counts = np.vstack(
        [state.counts, np.zeros((len(atoms), state.counts.shape[1]),
                                dtype=int)])
    state.atoms.extend(atoms)


def update_u_and_repopulate(state, spec, kernel, rng):
    '''Redraw every slice latent uniform on (0, allocated jump height),
    then reconcile the unallocated pool with the new threshold: when it
    drops, the births on (new, old) are the points of the Poisson process
    of intensity M nu*(z) prod_j (1 + v_j z)^(-shape) there, thinned from
    the power envelope in one pass (_tilted_births), with their scores and
    atoms; when it rises, pool jumps below it are deleted.'''
    old = state.threshold
    state.u = [_slice_draw(rng, c.size) * state.jumps[c]
               for c in state.allocations]
    new = state.threshold
    if new > old:
        free = state.counts.sum(axis=1) == 0
        _remove_jumps(state, np.flatnonzero(free & (state.jumps < new)))
    elif new < old:
        z = _tilted_births(spec, state.v, new, old, rng)
        if z.size:
            scores = rng.gamma(spec.shape, size=(z.size, state.v.size)) \
                / (1.0 + np.outer(z, state.v))
            _append_jumps(state, z, scores,
                          [_prior_atom(kernel, rng) for _ in range(z.size)])
    return state


class _JumpHeightProposals:
    '''Proposals for the jump-height conditionals nu*(z) e^(-w_k (z -
    low_k)) on (low_k, 1), from the cheaper of two exact envelopes per
    jump.  Both cover the same target, so the one of smaller mass has
    the higher acceptance rate, and comparing masses is the whole rule.

    power: the directing intensity's power envelope on (low_k, 1), split
    at beta < 1 at the t_k of least mass; z by its closed-form inverse
    at level (1 - u) times its mass, accepted with nu* over the
    envelope times e^(-w_k (z - low_k)).

    exponential: the truncated exponential of rate w_k on (low_k, s_k)
    times the bound c low_k^(-1-sigma) (1 - b_k)^(beta-1) of nu* there,
    z in closed form, accepted with nu*(z) e^(-w_k (z - low_k)) over the
    envelope.  With beta >= 1, s_k = 1 and b_k = low_k.  With beta < 1,
    (1 - z)^(beta-1) is unbounded at 1: b_k = s_k, and (s_k, 1) gets the
    piece c s_k^(-1-sigma) e^(-w_k (s_k - low_k)) (1 - z)^(beta-1), drawn
    in closed form and accepted with (z/s_k)^(-1-sigma) e^(-w_k (z -
    s_k)); each proposal picks a piece with probability proportional to
    its mass.

    Calling it with draw indices (and rng) returns proposals and their
    acceptance probabilities, 0 outside (low_k, 1), for
    _first_accepted: one uniform and one power per proposal, and one
    more uniform for an exponential one at beta < 1.'''

    def __init__(self, spec, lows, weights, rng):
        envelope = spec.directing.envelope
        c, sigma, beta = envelope.c, envelope.sigma, envelope.beta
        self.lows, self.weights, self.rng = lows, weights, rng
        self.sigma, self.beta = sigma, beta
        gaps = 1.0 - lows
        if beta >= 1.0:
            widths = self.bound_gaps = gaps
            self.splits = np.ones_like(lows)
        else:
            # s - low = log1p(x^2 / (beta (1 - beta))) / w, x = w (1 - low),
            # minimises the lower piece's excess mass (1 - beta) w (s - low)
            # / x over its bound plus the upper piece's relative mass
            # x e^(-w (s - low)) / beta once x is large; at most the gap's
            # midpoint, a cap that binds at moderate x, where that
            # expansion does not hold
            log_x = np.log(weights * gaps)
            widths = np.minimum(0.5 * gaps, np.logaddexp(
                0.0, 2.0 * log_x - math.log(beta * (1.0 - beta))) / weights)
            self.splits = lows + widths
            self.bound_gaps = gaps - widths
        # the lower piece's mass is its bound times (1 - e^(-w (s - low))) / w
        # (s - low at w = 0), the upper piece's its factor times (1 - s)^beta
        # / beta
        rates = weights * widths
        self.exp_scale = -np.expm1(-rates)
        spans = np.divide(self.exp_scale, weights, out=widths.copy(),
                          where=rates > 0.0)
        log_lower = (math.log(c) - (1.0 + sigma) * np.log(lows)
                     + (beta - 1.0) * np.log(self.bound_gaps) + np.log(spans))
        if beta < 1.0:
            log_upper = (math.log(c) - (1.0 + sigma) * np.log(self.splits)
                         - rates + beta * np.log(self.bound_gaps)
                         - math.log(beta))
            # 1 / (1 + e^(log_lower - log_upper)), free of overflow
            self.upper_share = np.exp(
                -np.logaddexp(0.0, log_lower - log_upper))
            log_mass = np.logaddexp(log_lower, log_upper)
        else:
            self.upper_share = np.zeros_like(lows)
            log_mass = log_lower
        self.power = envelope.band(lows, 1.0)
        self.on_power = np.log(self.power.mass) <= log_mass

    def _exponential(self, k, u):
        lows, weights = self.lows[k], self.weights[k]
        z = lows - np.log1p(-u * self.exp_scale[k]) / weights
        if self.beta < 1.0:
            upper = self.rng.uniform(size=k.size) < self.upper_share[k]
            # 1 - z rounds to 0 at a small beta: such a z is the largest
            # double below 1, as in EnvelopeBand.points
            z[upper] = np.minimum(1.0 - self.bound_gaps[k][upper]
                                  * (1.0 - u[upper]) ** (1.0 / self.beta),
                                  _BELOW_ONE)
        return z

    def _exponential_accept(self, z, k):
        # piece by where z lies: the envelope is a function of z alone
        lows, splits = self.lows[k], self.splits[k]
        lower = -(1.0 + self.sigma) * np.log(z / lows) + (self.beta - 1.0) \
            * np.log((1.0 - z) / self.bound_gaps[k])
        upper = -(1.0 + self.sigma) * np.log(z / splits) \
            - self.weights[k] * (z - splits)
        return np.exp(np.where(z <= splits, lower, upper))

    def __call__(self, idx):
        u = self.rng.uniform(size=idx.size)
        power = self.on_power[idx]
        z = np.empty(idx.size)
        p = np.zeros(idx.size)
        if power.any():
            k = idx[power]
            zk, keep = self.power.propose(u[power], k)
            z[power] = zk
            p[power] = keep * np.exp(-(zk - self.lows[k]) * self.weights[k])
        if not power.all():
            k = idx[~power]
            zk = self._exponential(k, u[~power])
            z[~power] = zk
            inside = (zk > self.lows[k]) & (zk < 1.0)
            p[np.flatnonzero(~power)[inside]] = self._exponential_accept(
                zk[inside], k[inside])
        return z, p


def update_jump_heights(state, spec, rng):
    '''Redraw each active jump k from nu* restricted above its members'
    largest slice low_k (the threshold for pool jumps), exponentially
    tilted by the jump's total tilted score mass w_k: the conditional
    nu*(z) e^(-w_k z) on (low_k, 1).  Each jump is drawn by rejection
    from the cheaper of two exact envelopes (_JumpHeightProposals): the
    directing intensity's power envelope, accepted by nu* over it times
    the tilt, where w_k (1 - low_k) is small, or a truncated exponential
    times a bound on nu*, accepted by nu* over its bound, where it is
    large.  Both propose in closed form.  All jumps share the rounds of
    _first_accepted, each keeping its first accepted proposal, and every
    redrawn jump lies strictly inside (low_k, 1).'''
    lows = np.full(state.n_jumps, state.threshold)
    for j, c in enumerate(state.allocations):
        np.maximum.at(lows, c, state.u[j])
    weights = state.scores @ state.v
    state.jumps = _first_accepted(
        lows.size, _JumpHeightProposals(spec, lows, weights, rng),
        lambda k: 'jump-height rejection sampler (lower %.3g, tilt %.3g)'
        % (lows[k], weights[k]), rng)
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
    a jump from nu* above the threshold L with fresh prior scores, a
    death removes a uniformly chosen pool member; both use the untilted
    tail mass U(L) as the reference constant.  The birth's height comes
    from the directing intensity's power envelope on (L, 1), accepted by
    nu* over it, so it follows nu* restricted above L exactly.  cache,
    a dict, keeps U(L) and that envelope while (L, shape) is unchanged.'''
    L = state.threshold
    phi = spec.shape
    key = (L, phi)
    if cache is not None and cache.get('key') == key:
        tail_mass, band = cache['tail_mass'], cache['band']
    else:
        tail_mass = spec.directing.tail_integral(L)
        band = spec.directing.envelope.band(L, 1.0)
        if cache is not None:
            cache.update(key=key, tail_mass=tail_mass, band=band)
    log_const = math.log(spec.centring_mass * tail_mass)
    pool = np.flatnonzero(state.counts.sum(axis=1) == 0)
    if rng.uniform() < 0.5:
        z = float(_first_accepted(
            1, lambda idx: band.propose(rng.uniform(size=idx.size)),
            lambda _: 'birth above %.3g' % L, rng)[0])
        scores = rng.gamma(phi, size=state.v.size)
        log_alpha = -z * float(scores @ state.v) + log_const \
            - math.log(pool.size + 1.0)
        if math.log(rng.uniform()) < log_alpha:
            _append_jumps(state, [z], scores[None],
                          [_prior_atom(kernel, rng)])
    elif pool.size > 0:
        k = int(pool[rng.integers(pool.size)])
        log_alpha = _log_tilt(state, k) + math.log(pool.size) - log_const
        if math.log(rng.uniform()) < log_alpha:
            _remove_jumps(state, [k])
    return state


def update_v_interweaving(state, spec, j, steps, rng, residual=None):
    '''Two-stage update of v_j: a move holding the rescaled scores
    m~ = v_j m fixed (ancillary stage), then a move holding the scores
    themselves fixed (sufficient stage).  Each stage is a log-scale
    random walk against its exact conditional.  residual, a _Residuals at
    the state's threshold, carries the residual values of earlier moves
    at the same L; a fresh one is made when None.'''
    stage1, stage2 = steps
    if residual is None:
        residual = _Residuals(state.threshold)
    mass = spec.centring_mass
    n_j = float(state.allocations[j].size)
    phi = spec.shape
    K = state.n_jumps

    def residual_at(vj):
        v = state.v.copy()
        v[j] = vj
        return residual(spec, v)

    if K > 0:
        score_sum = float(state.scores[:, j].sum())
        tilde_sum = state.v[j] * score_sum

        def log_target1(vj):
            return -(K * phi + 1.0) * math.log(vj) - tilde_sum / vj \
                - mass * residual_at(vj)

        vj_new = state.v[j] * math.exp(stage1.step * rng.normal())
        log_alpha = log_target1(vj_new) - log_target1(state.v[j]) \
            + math.log(vj_new) - math.log(state.v[j])
        accept = _accept_probability(log_alpha)
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
    accept = _accept_probability(log_alpha)
    if rng.uniform() < accept:
        state.v[j] = vj_new
    stage2.record(accept)
    return state


def _log_scores(state):
    '''log of the score table; a score that has underflowed to 0.0
    raises instead of turning into -inf.'''
    zero = np.argwhere(~(state.scores > 0.0))
    if zero.size:
        k, j = zero[0]
        raise FloatingPointError(
            'score of jump %d (height %.3g) in group %d is %r at score '
            'shape %.3g' % (k, state.jumps[k], j + 1, state.scores[k, j],
                            state.shape))
    return np.log(state.scores)


def update_allocations_slice(state, data, kernel, rng):
    '''Reassign every observation among the jumps above its slice,
    with weights score times kernel density at the jump's atom.  Each
    group is scored at once: an (n_j, K) log-weight matrix, -inf where
    the jump is not above the slice, one uniform per row, and the
    inverse-CDF pick of np.searchsorted(..., side='right').  A row's
    u * total stays below total, so the pick is an eligible jump.'''
    K = state.n_jumps
    log_scores = _log_scores(state)
    atoms = kernel.stack_atoms(state.atoms)
    for j, rows in enumerate(data.groups):
        eligible = state.jumps > state.u[j][:, None]
        if not eligible.any(axis=1).all():
            raise RuntimeError('no jump above a slice latent; '
                               'state invariant violated')
        logs = np.where(eligible, log_scores[:, j]
                        + kernel.log_density(rows, atoms), -np.inf)
        logs -= logs.max(axis=1, keepdims=True)
        cum = np.cumsum(np.exp(logs), axis=1)
        target = rng.uniform(size=rows.shape[0]) * cum[:, -1]
        state.allocations[j] = np.count_nonzero(cum <= target[:, None],
                                                axis=1)
    state.counts = _tally(state.allocations, K)
    return state


def update_atoms_slice(state, data, kernel, rng):
    '''Posterior redraw of every atom from its members (the prior for
    pool jumps).'''
    state.atoms = [kernel.atom_posterior_draw(rows, rng) for rows in
                   _members(data, state.allocations, state.n_jumps)]
    return state


def update_hyperparameters_slice(state, spec, log_prior, step, rng,
                                 residual=None):
    '''Log-scale MH on the score shape against the full truncated-state
    target: score densities, jump intensities, the untilted tail mass,
    and the sub-threshold residual, read from residual (a _Residuals at
    the state's threshold, fresh when None).  Returns the possibly
    updated spec.'''
    L = state.threshold
    if residual is None:
        residual = _Residuals(L)
    mass = spec.centring_mass
    log_m_sum = float(_log_scores(state).sum())
    m_sum = float(state.scores.sum())
    n_scores = state.scores.size
    gaps = spec.directing.support[1] - state.jumps

    def log_target(sp, phi):
        total = log_prior(phi)
        total += (phi - 1.0) * log_m_sum - m_sum \
            - n_scores * math.lgamma(phi)
        if state.n_jumps:
            total += float(sp.directing.log_density(state.jumps, gaps).sum())
        total -= mass * sp.directing.tail_integral(L)
        total -= mass * residual(sp, state.v)
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
    accept = _accept_probability(log_alpha)
    if rng.uniform() < accept:
        state.shape = phi_new
        spec = spec_new
    step.record(accept)
    return spec


def _residual_weights(spec, v, L):
    '''Expected mass of each group j carried by jumps below L given the
    tilts: integral over (0, L) of z E[m e^(-v_j m z)] prod_{l!=j}
    (1+v_l z)^(-shape) nu*(z) dz, which is d residual_laplace / d v_j.'''
    v = np.asarray(v, dtype=float)
    if L <= 0.0:
        return np.zeros(v.size)
    return TiltRule(spec, v, RuleNodes(spec, L)).psi_gradient()


def slice_snapshots(state, spec):
    '''Per-group predictive snapshots: active weights score*jump plus
    the expected sub-threshold mass as residual.'''
    from .kernels import PredictiveSnapshot
    residuals = spec.centring_mass * _residual_weights(
        spec, state.v, state.threshold)
    return [PredictiveSnapshot(state.scores[:, j] * state.jumps,
                               list(state.atoms), float(residual))
            for j, residual in enumerate(residuals)]


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
    residual = _Residuals(state.threshold)
    for j in range(data.n_groups):
        update_v_interweaving(state, spec, j, v_steps[j], rng, residual)
    if shape_step is not None:
        spec = update_hyperparameters_slice(state, spec, log_prior,
                                            shape_step, rng, residual)
    return spec
