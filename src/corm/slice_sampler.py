'''Slice-augmented MCMC for normalized-CoRM mixtures.

The chain keeps an explicit finite set of jumps above an adaptive
threshold L = min of the slice latents: allocated jumps carry members,
the rest form a pool refreshed by Poisson repopulation and a
reversible-jump birth/death move.  Auxiliary tilts v are updated by a
two-stage interweaving scheme that alternates sufficient and ancillary
parametrizations of the scores.

The directing intensity nu*(z) = c z^(-1-sigma) (1 - a z)^(beta-1)
lives on (0, top), top = 1/a, or inf for sigma-stable (a = 0).  Every
draw from nu* on a band is a rejection draw from the directing
intensity's power envelope (spec.directing.envelope): a power law c
z^(-1-sigma), at beta < 1 a power piece and a beta piece split at the
t of least mass on the band, whose tails have closed-form inverses, so
a proposal costs a uniform and a power and no tail inversion.  Jump k
is redrawn from nu*(z) e^(-w_k z) on (low_k, top) (Griffin & Walker 2011)
from the cheaper of two exact envelopes, chosen per jump by envelope
mass: the power envelope, accepted by nu* over it times the tilt, or a
truncated exponential of rate w_k times a bound on nu*, accepted by nu*
over its bound (Devroye 1986, ch. II).  The repopulation births on
(L_new, L_old), a Poisson process of intensity M nu*(z) prod_j (1 +
v_j z)^(-shape), thin the power envelope on that band times the tilt's
value at L_new (Lewis & Shedler 1979): a Poisson number of envelope
points, each kept with nu* over the envelope times the tilt relative to
that value.  The birth of the birth/death move comes from the envelope
on (L, top), accepted by nu* over it.  The rejection draws are batched:
in each round every pending draw gets m proposals, keeps its first
accepted one (the sequential rejection sampler's draw, as proposals are
i.i.d.), and m doubles for the draws still pending.  A round holds at
least 32 proposals in all, so the draws of a pool of a few jumps mostly
finish in one round: below a few dozen proposals a round's cost is
numpy's fixed cost per call.

Each group's allocations are scored jump-major, as a (jumps, rows)
matrix, so the max, running sum and count of the inverse-CDF pick run
across the few jumps as whole-row operations; every atom is redrawn in
one kernel.atom_posterior_draws pass over the pooled rows and their
allocations.

The kept jumps leave out the integrals against nu* below L: the
residual Laplace exponent psi_L(v) and its v-gradient (the snapshots'
residual mass).  Since nu*(z) = c z^(-1-sigma) (1 - a z)^(beta-1) for
every family, psi_L is a power series in z, c sum_n g_n L^(n-sigma) /
(n - sigma) with g_n the z^n coefficient of (1 - prod_j (1 + v_j
z)^(-shape)) (1 - a z)^(beta-1), and residual_laplace sums it to 40
terms where its rate max(shape sum_j v_j, max_j v_j, a max(1, |beta -
1|)) L is at most 0.4.  Above that rate, and for the gradient, it is a
trapezoid rule (core.TiltRule) truncated at L.  The moves keep the
values at L in one memo (_at_threshold): per spec the tail mass U(L),
the series' v-free terms and the RuleNodes(spec, L), per (spec, v) the
residual.  L stays fixed from repopulation to the next sweep's
birth/death move, so each MH ratio reuses the residual at the current
state (2d + 2 evaluations a sweep), and the birth/death move the shape
move's U(L).
'''

import math
from dataclasses import dataclass

import numpy as np

from .core import RuleNodes, TiltRule, _check_tilt
from .marginal_sampler import _check_shape_prior, _round_robin, _tally
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
# proposals a rejection round holds at least (within each draw's
# MAX_REJECTION_TRIES): a round's cost is mostly numpy's fixed cost per
# call up to a few dozen proposals, so a few pending draws take more
# than one proposal each from the first round on
_ROUND_LEAST = 32
# psi_L is its power series in z at a series rate (_series_rate) up to
# _SERIES_RATE, cut after the term in z^_SERIES_TERMS: the first term
# left out is of order 0.4^40, about 1e-16 of the sum
_SERIES_RATE = 0.4
_SERIES_TERMS = 40
_POWERS = np.arange(_SERIES_TERMS + 1.0)


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


def initial_slice_state(data, spec, kernel, rng, n_start=1):
    '''Round-robin start with n_start active jumps, Ga(shape) scores and
    consistent slice latents.  Jump k lies where the power law c
    z^(-1-sigma) of the directing intensity's envelope has mass 1 - U_k
    above the support's end top = 1/a, U_k uniform on [0, 1): with y_k =
    (1 - U_k) / c, z = top (1 + sigma y_k top^sigma)^(-1 / sigma), top
    e^(-y_k) at sigma 0 and (sigma y_k)^(-1 / sigma) for sigma-stable
    (top = inf), in closed form (PowerEnvelope.power_level), so the start
    inverts no tail.  Every jump lies strictly inside (0, top): one that
    rounds up to top is the largest double below it.  n_start >= 1 is
    an integer.'''
    d = data.n_groups
    allocations = _round_robin(data, n_start)
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


def _series_rate(spec, v, L):
    '''The rate rho = max(shape sum_j v_j, max_j v_j, a max(1, |beta -
    1|)) L at which the terms of psi_L's power series in z fall off, at a
    tilt v given as a list.'''
    envelope = spec.directing.envelope
    return max(spec.shape * sum(v), max(v),
               envelope.a * max(1.0, abs(envelope.beta - 1.0))) * L


def _ratio_products(ratios):
    '''1, ratios[0], ratios[0] ratios[1], ...: the coefficients of a
    binomial series from the ratios of consecutive ones.'''
    out = np.empty(ratios.size + 1)
    out[0] = 1.0
    out[1:] = ratios
    return out.cumprod()


def _series_terms(spec, L):
    '''(b, r), the v-free parts of psi_L's power series: b_k, k <= N =
    _SERIES_TERMS, the coefficients of (1 + x)^(-shape), and r_k, 1 <= k
    <= N, the integral over (0, 1) of t^k nu*(L t) L dt less the terms of
    total degree past N, so that psi_L(v) = -sum_k P_k r_k with P_k the
    t^k coefficients of prod_j (1 + v_j L t)^(-shape).  With nu*(z) = c
    z^(-1-sigma) (1 - a z)^(beta-1) and e_m the coefficients of (1 - a L
    t)^(beta-1), r_k = sum_m e_m p_(k+m), p_n = c L^(-sigma) / (n -
    sigma): one correlation.  In t = z / L every term is of order rho^k,
    free of the overflow of v^k and the underflow of L^k.'''
    envelope = spec.directing.envelope
    n = _POWERS[1:]
    b = _ratio_products((1.0 - spec.shape - n) / n)
    e = _ratio_products((n[:-1] - envelope.beta) * (envelope.a * L)
                        / n[:-1])
    p = envelope.c * L ** -envelope.sigma / (n - envelope.sigma)
    return b, np.correlate(p, e, 'full')[_SERIES_TERMS - 1:]


def residual_laplace(spec, v, L, nodes=None, series=None):
    '''Contribution of jumps below L to the Laplace exponent at v:
    psi_L(v), the integral over (0, L) of (1 - prod_j (1+v_j z)^(-shape))
    nu*(z) dz.  v must be a finite, nonnegative vector of length d.  Where
    the series rate (_series_rate) is at most _SERIES_RATE, psi_L is its
    power series in z to the term in z^_SERIES_TERMS, on series, the
    _series_terms(spec, L): the d binomial series of the tilt, multiplied
    by d - 1 convolutions, and one dot product with r.  Above it, psi_L is
    the psi of a TiltRule truncated at L on nodes, the RuleNodes(spec, L).
    Either is built here when needed and not given; the path depends on
    (spec, v, L) alone.'''
    v = _check_tilt(v, spec.dimension)
    if nodes is not None and nodes.upper != L:
        raise ValueError('the nodes are not truncated at L = %r' % L)
    vs = v.tolist()
    if L == 0.0 or max(vs) == 0.0:
        return 0.0
    if _series_rate(spec, vs, L) > _SERIES_RATE:
        return TiltRule(spec, v, RuleNodes(spec, L) if nodes is None
                        else nodes).psi()
    b, r = _series_terms(spec, L) if series is None else series
    tilt = None
    for x in vs:
        row = b * np.power(x * L, _POWERS)
        tilt = row if tilt is None else np.convolve(
            tilt, row)[:_SERIES_TERMS + 1]
    return -float(tilt[1:] @ r)


def _at_threshold(cache, L, key, compute):
    '''The value under key in cache, the dict of values at the slice
    threshold L (emptied first if it holds another L), or compute()'s,
    stored there.  A value depends on its key and L alone: per spec the
    tail mass U(L) and what every residual there shares (the series terms
    and the RuleNodes(spec, L), whose node terms are laid out on the first
    rule), per (spec, v) the residual.'''
    if cache.get('L') != L:
        cache.clear()
        cache['L'] = L
    if key not in cache:
        cache[key] = compute()
    return cache[key]


def _residual(cache, spec, v, L):
    '''residual_laplace(spec, v, L) on the memo's series terms and
    RuleNodes at (spec, L).'''
    v = np.asarray(v, dtype=float)
    series, nodes = _at_threshold(
        cache, L, ('threshold', spec),
        lambda: (_series_terms(spec, L), RuleNodes(spec, L)))
    return _at_threshold(cache, L, ('residual', spec, v.tobytes()),
                         lambda: residual_laplace(spec, v, L, nodes, series))


def _first_accepted(n, propose, describe, rng):
    '''n independent rejection draws.  propose(idx) returns one
    proposal for each draw index in the array idx, and the probability
    of accepting it for that draw (0 rejects it outright, as for a
    proposal outside the draw's support, which is never clamped).  Each
    round gives every pending index m proposals through one propose call
    and one uniform array for the acceptances; an index keeps its first
    accepted proposal in order, which is the rejection sampler itself.
    m starts at 1 and doubles for the indices still pending, but a round
    holds at least _ROUND_LEAST proposals, ceil(_ROUND_LEAST / pending)
    each, and at most _ROUND_PROPOSALS (or one each), and no index is
    given more than MAX_REJECTION_TRIES in all.  Raises RuntimeError,
    naming describe(i), once a draw has used MAX_REJECTION_TRIES
    proposals.'''
    out = np.empty(n)
    pending = np.arange(n)
    used, m = 0, 1
    while pending.size:
        if used >= MAX_REJECTION_TRIES:
            raise RuntimeError('%s exceeded %d rejection tries'
                               % (describe(pending[0]), MAX_REJECTION_TRIES))
        m = max(m, -(-_ROUND_LEAST // pending.size))
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
    nonnegative vector of length d, and upper at most the end 1/a of
    nu*'s support.  Returns a float when size is None, else an array of
    that shape.'''
    if not 0.0 < lower < upper <= spec.directing.envelope.top:
        raise ValueError('need 0 < lower < upper <= 1/a')
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
    tilt_max = float(np.prod((1.0 + v * lower) ** -spec.shape))
    n = rng.poisson(spec.centring_mass * float(band.mass) * tilt_max)
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
            _append_jumps(state, z, scores, kernel.prior_draws(z.size, rng))
    return state


class _JumpHeightProposals:
    '''Proposals for the jump-height conditionals nu*(z) e^(-w_k (z -
    low_k)) on (low_k, top), top = 1/a (inf for sigma-stable), from the
    cheaper of two exact envelopes per jump.  Both cover the same
    target, so the one of smaller mass has the higher acceptance rate,
    and comparing masses is the whole rule.

    power: the directing intensity's power envelope on (low_k, top),
    split at beta < 1 at the t_k of least mass; z by its closed-form
    inverse at level (1 - u) times its mass, accepted with nu* over the
    envelope times e^(-w_k (z - low_k)).

    exponential: the truncated exponential of rate w_k on (low_k, s_k)
    times the bound c low_k^(-1-sigma) (a (top - b_k))^(beta-1) of nu*
    there, z in closed form, accepted with nu*(z) e^(-w_k (z - low_k))
    over the envelope.  With beta >= 1, s_k = top and b_k = low_k (the
    bound is c low_k^(-1-sigma) at beta = 1).  With beta < 1, (1 -
    a z)^(beta-1) is unbounded at top: b_k = s_k, and (s_k, top) gets
    the piece c s_k^(-1-sigma) e^(-w_k (s_k - low_k)) (1 - a z)^(beta-1),
    drawn in closed form and accepted with (z/s_k)^(-1-sigma) e^(-w_k (z
    - s_k)); each proposal picks a piece with probability proportional
    to its mass.

    Calling it with draw indices (and rng) returns proposals and their
    acceptance probabilities, 0 outside (low_k, top), for
    _first_accepted: one uniform and one power per proposal, and one
    more uniform for an exponential one at beta < 1.'''

    def __init__(self, spec, lows, weights, rng):
        envelope = spec.directing.envelope
        c, sigma, a, beta = envelope.c, envelope.sigma, envelope.a, \
            envelope.beta
        self.lows, self.weights, self.rng = lows, weights, rng
        self.sigma, self.beta, self.top = sigma, beta, envelope.top
        gaps = self.top - lows
        if beta >= 1.0:
            widths = self.bound_gaps = gaps
        else:
            # s - low = log1p(x^2 / (beta (1 - beta))) / w, x = w (top -
            # low), minimises the lower piece's excess mass (1 - beta) w (s
            # - low) / x over its bound plus the upper piece's relative mass
            # x e^(-w (s - low)) / beta once x is large; at most the gap's
            # midpoint, a cap that binds at moderate x, where that
            # expansion does not hold
            log_x = np.log(weights * gaps)
            widths = np.minimum(0.5 * gaps, np.logaddexp(
                0.0, 2.0 * log_x - math.log(beta * (1.0 - beta))) / weights)
            self.splits = lows + widths
            self.bound_gaps = gaps - widths
        # the lower piece's mass is its bound times (1 - e^(-w (s - low))) / w
        # (s - low at w = 0), the upper piece's its factor times (a (top -
        # s))^beta / (a beta); 1 - a z = a (top - z)
        rates = weights * widths
        self.exp_scale = -np.expm1(-rates)
        spans = np.divide(self.exp_scale, weights, out=widths.copy(),
                          where=rates > 0.0)
        log_lower = math.log(c) - (1.0 + sigma) * np.log(lows)
        if beta != 1.0:
            log_lower += (beta - 1.0) * np.log(a * self.bound_gaps)
        log_spans = np.log(np.where(spans > 0.0, spans, 1.0))
        if beta < 1.0:
            # where x^2 underflows, so do the split width and the span; both
            # tend to x^2 / (w beta (1 - beta)), whose log is taken instead
            small = spans == 0.0
            log_spans[small] = (2.0 * log_x[small] - math.log(
                beta * (1.0 - beta)) - np.log(weights[small]))
        log_lower += log_spans
        log_mass = log_lower
        if beta < 1.0:
            log_upper = (math.log(c) - (1.0 + sigma) * np.log(self.splits)
                         - rates + beta * np.log(a * self.bound_gaps)
                         - math.log(a * beta))
            # 1 / (1 + e^(log_lower - log_upper)), free of overflow
            self.upper_share = np.exp(
                -np.logaddexp(0.0, log_lower - log_upper))
            log_mass = np.logaddexp(log_lower, log_upper)
        self.power = envelope.band(lows)
        self.on_power = np.log(self.power.mass) <= log_mass

    def _exponential(self, k, u):
        lows, weights = self.lows[k], self.weights[k]
        z = lows - np.log1p(-u * self.exp_scale[k]) / weights
        if self.beta < 1.0:
            upper = self.rng.uniform(size=k.size) < self.upper_share[k]
            # top - z rounds to 0 at a small beta: such a z is the largest
            # double below top, as in EnvelopeBand.points
            z[upper] = np.minimum(self.top - self.bound_gaps[k][upper]
                                  * (1.0 - u[upper]) ** (1.0 / self.beta),
                                  np.nextafter(self.top, 0.0))
        return z

    def _exponential_accept(self, z, k):
        # piece by where z lies: the envelope is a function of z alone;
        # no (top - z) factor at beta = 1, where top may be inf
        log_p = -(1.0 + self.sigma) * np.log(z / self.lows[k])
        if self.beta != 1.0:
            log_p += (self.beta - 1.0) * np.log((self.top - z)
                                                / self.bound_gaps[k])
        if self.beta < 1.0:
            s = self.splits[k]
            log_p = np.where(z <= s, log_p, -(1.0 + self.sigma) * np.log(
                z / s) - self.weights[k] * (z - s))
        return np.exp(log_p)

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
            inside = (zk > self.lows[k]) & (zk < self.top)
            p[np.flatnonzero(~power)[inside]] = self._exponential_accept(
                zk[inside], k[inside])
        return z, p


def update_jump_heights(state, spec, rng):
    '''Redraw each active jump k from nu* restricted above its members'
    largest slice low_k (the threshold for pool jumps), exponentially
    tilted by the jump's total tilted score mass w_k: the conditional
    nu*(z) e^(-w_k z) on (low_k, 1/a), or (low_k, inf) for sigma-stable.
    Each jump is drawn by rejection from the cheaper of two exact
    envelopes (_JumpHeightProposals): the directing intensity's power
    envelope, accepted by nu* over it times the tilt, where the tilt is
    weak, or a truncated exponential times a bound on nu*, accepted by
    nu* over its bound, where it is strong.  Both propose in closed
    form.  All jumps share the rounds of _first_accepted, each
    keeping its first accepted proposal, and every redrawn jump lies
    strictly inside (low_k, 1/a).'''
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


def birth_death_move(state, spec, kernel, rng, cache=None):
    '''One reversible-jump move on the unallocated pool: a birth draws
    a jump from nu* above the threshold L with fresh prior scores and a
    prior atom, a death removes a uniformly chosen pool member; both use
    the untilted tail mass U(L) as the reference constant.  The birth's
    height comes from the directing intensity's power envelope on (L,
    1/a), accepted by nu* over it, so it follows nu* restricted above L
    exactly.  U(L) comes through cache (_at_threshold; a fresh dict when
    None), where the shape move of the sweep before left it.'''
    L = state.threshold
    phi = spec.shape
    cache = {} if cache is None else cache
    tail_mass = _at_threshold(cache, L, ('tail', spec),
                              lambda: spec.directing.tail_integral(L))
    band = spec.directing.envelope.band(L)
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
                          kernel.prior_draws(1, rng))
    elif pool.size > 0:
        k = int(pool[rng.integers(pool.size)])
        log_alpha = float(state.jumps[k] * (state.scores[k] @ state.v)) \
            + math.log(pool.size) - log_const
        if math.log(rng.uniform()) < log_alpha:
            _remove_jumps(state, [k])
    return state


def update_v_interweaving(state, spec, j, steps, rng, cache=None):
    '''Two-stage update of v_j: a move holding the rescaled scores
    m~ = v_j m fixed (ancillary stage), then a move holding the scores
    themselves fixed (sufficient stage).  Each stage is a log-scale
    random walk (AdaptiveStepSize.move) against its exact conditional.
    The residuals come through cache (_at_threshold; a fresh dict when
    None), which holds those of the earlier moves at the same threshold.'''
    stage1, stage2 = steps
    L = state.threshold
    cache = {} if cache is None else cache
    mass = spec.centring_mass
    n_j = float(state.allocations[j].size)
    phi = spec.shape
    K = state.n_jumps

    def residual_at(vj):
        v = state.v.copy()
        v[j] = vj
        return _residual(cache, spec, v, L)

    if K > 0:
        score_sum = float(state.scores[:, j].sum())
        tilde_sum = state.v[j] * score_sum

        def log_target1(vj):
            return -(K * phi + 1.0) * math.log(vj) - tilde_sum / vj \
                - mass * residual_at(vj)

        vj_new = stage1.move(state.v[j], log_target1, rng)
        state.scores[:, j] *= state.v[j] / vj_new  # by 1.0 if v_j is kept
        state.v[j] = vj_new

    total = float(state.scores[:, j] @ state.jumps) if K else 0.0

    def log_target2(vj):
        return (n_j - 1.0) * math.log(vj) - vj * total \
            - mass * residual_at(vj)

    state.v[j] = stage2.move(state.v[j], log_target2, rng)
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
    group is scored at once, jump-major: a (K, n_j) log-weight matrix,
    -inf where the jump is not above the slice, so that its column max,
    running sum and count each take K - 1 operations on rows of n_j; one
    uniform per observation, and the inverse-CDF pick of
    np.searchsorted(..., side='right') as the count of running sums at
    or below u * total.  That stays below total, so the pick is an
    eligible jump.'''
    K = state.n_jumps
    log_scores = _log_scores(state)
    atoms = kernel.stack_atoms(state.atoms)
    for j, rows in enumerate(data.groups):
        eligible = state.jumps[:, None] > state.u[j]
        if not eligible.any(axis=0).all():
            raise RuntimeError('no jump above a slice latent; '
                               'state invariant violated')
        logs = np.where(eligible, kernel.log_density(rows, atoms).T
                        + log_scores[:, j, None], -np.inf)
        logs -= logs.max(axis=0)
        cum = np.cumsum(np.exp(logs), axis=0)
        target = rng.uniform(size=rows.shape[0]) * cum[-1]
        state.allocations[j] = np.count_nonzero(cum <= target, axis=0)
    state.counts = _tally(state.allocations, K)
    return state


def update_atoms_slice(state, data, kernel, rng):
    '''Posterior redraw of every atom from its members (the prior for
    pool jumps), in one kernel.atom_posterior_draws pass over the pooled
    rows and their allocations, in jump order.'''
    state.atoms = kernel.atom_posterior_draws(
        data.stacked(), np.concatenate(state.allocations), state.n_jumps, rng)
    return state


def update_hyperparameters_slice(state, spec, log_prior, step, rng,
                                 cache=None):
    '''Log-scale MH on the score shape (AdaptiveStepSize.move) against
    the full truncated-state target: score densities, jump intensities,
    the untilted tail mass U(L) and the sub-threshold residual, both
    through cache (_at_threshold; a fresh dict when None), where the kept
    spec's U(L) stays for the next sweep's birth_death_move.  Returns the
    kept shape's spec.'''
    L = state.threshold
    cache = {} if cache is None else cache
    mass = spec.centring_mass
    log_m_sum = float(_log_scores(state).sum())
    m_sum = float(state.scores.sum())
    n_scores = state.scores.size
    gaps = spec.directing.envelope.top - state.jumps

    specs = {state.shape: spec}

    def log_target(phi):
        if phi not in specs:
            specs[phi] = spec.with_shape(phi)
        sp = specs[phi]
        total = log_prior(phi)
        total += (phi - 1.0) * log_m_sum - m_sum \
            - n_scores * math.lgamma(phi)
        if state.n_jumps:
            total += float(sp.directing.log_density(state.jumps, gaps).sum())
        total -= mass * _at_threshold(cache, L, ('tail', sp),
                                      lambda: sp.directing.tail_integral(L))
        total -= mass * _residual(cache, sp, state.v, L)
        return total

    state.shape = step.move(state.shape, log_target, rng)
    return specs[state.shape]


def _residual_weights(spec, v, L):
    '''Expected mass of each group j carried by jumps below L given the
    tilts: integral over (0, L) of z E[m e^(-v_j m z)] prod_{l!=j}
    (1+v_l z)^(-shape) nu*(z) dz, which is d residual_laplace / d v_j.
    v must be a finite, nonnegative vector of length d.'''
    v = _check_tilt(v, spec.dimension)
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
    spec (replaced when a shape move is accepted).  The moves share
    cache (_at_threshold), a fresh dict a sweep when None; one kept
    across sweeps carries the shape move's U(L) to the next sweep's
    birth-death move.  A shape_step needs log_prior.'''
    _check_shape_prior(shape_step, log_prior)
    cache = {} if cache is None else cache
    update_allocations_slice(state, data, kernel, rng)
    update_atoms_slice(state, data, kernel, rng)
    update_jump_heights(state, spec, rng)
    update_scores(state, spec, rng)
    birth_death_move(state, spec, kernel, rng, cache)
    update_u_and_repopulate(state, spec, kernel, rng)
    for j in range(data.n_groups):
        update_v_interweaving(state, spec, j, v_steps[j], rng, cache)
    if shape_step is not None:
        spec = update_hyperparameters_slice(state, spec, log_prior,
                                            shape_step, rng, cache)
    return spec
