'''Slice sampler: the sub-threshold integrals against closed forms, and
short chains that keep the state invariants.'''

import math

import numpy as np
import pytest
from scipy import stats

from corm import slice_sampler
from corm.core import (CoRMSpec, LevyIntensity, MarginalFamily, RuleNodes,
                       TiltRule)
from corm.kernels import Dataset, UnivariateNormalGamma
from corm.marginal_sampler import AdaptiveStepSize
from corm.slice_sampler import (
    SliceState,
    _residual_weights,
    _tilted_mass,
    initial_slice_state,
    residual_laplace,
    sample_tilted_z,
    slice_deviance,
    slice_snapshots,
    slice_sweep,
    update_allocations_slice,
    update_hyperparameters_slice,
    update_jump_heights,
)


@pytest.fixture(scope='module')
def unit_gamma_2d():
    return CoRMSpec.from_marginal(2, 1.0, MarginalFamily.gamma())


class TestSubThresholdIntegrals:
    '''With v = (v1, 0) the second group drops out, so the d = 2
    trapezoid rules must equal the unit-shape gamma d = 1 closed forms:
    the directing density is 1/z on (0, 1).'''

    V1 = 1.7

    @pytest.mark.parametrize('L', [1e-6, 0.01, 0.4, 1.0])
    def test_residual_laplace(self, unit_gamma_2d, L):
        # int_0^L (1 - 1/(1 + v z)) / z dz = log(1 + v L)
        got = residual_laplace(unit_gamma_2d, [self.V1, 0.0], L)
        assert got == pytest.approx(math.log1p(self.V1 * L), rel=1e-13)

    @pytest.mark.parametrize('lo, hi', [(1e-7, 1e-3), (0.01, 0.02),
                                        (0.2, 0.9)])
    def test_tilted_mass(self, unit_gamma_2d, lo, hi):
        # int_lo^hi 1 / (z (1 + v z)) dz
        v = self.V1
        want = math.log(hi * (1.0 + v * lo) / (lo * (1.0 + v * hi)))
        got = _tilted_mass(unit_gamma_2d, [v, 0.0], lo, hi)
        assert got == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize('L', [1e-6, 0.01, 0.4, 1.0])
    def test_residual_weight(self, unit_gamma_2d, L):
        # int_0^L (1 + v z)^-2 dz = L / (1 + v L)
        got = _residual_weights(unit_gamma_2d, [self.V1, 0.0], L)[0]
        assert got == pytest.approx(L / (1.0 + self.V1 * L), rel=1e-13)


_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)


def _cdf_at_draws(spec, weight, lo, hi, xs):
    '''CDF of nu*(z) weight(z) on (lo, hi) at the sorted draws xs, and
    its total: 16-point Gauss-Legendre in log z between consecutive
    draws.'''
    ends = np.log(np.concatenate([[lo], xs, [hi]]))
    half = 0.5 * np.diff(ends)[:, None]
    z = np.exp(ends[:-1, None] + half * (1.0 + _GL_X))
    cum = np.cumsum(half[:, 0] * ((spec.directing.density(z) * z
                                   * weight(z)) @ _GL_W))
    return cum[:-1] / cum[-1], cum[-1]


def _ks_p_value(cdf):
    '''Kolmogorov-Smirnov p-value of sorted draws with the given CDF
    values.'''
    n = cdf.size
    k = np.arange(1, n + 1)
    d = max(np.max(k / n - cdf), np.max(cdf - (k - 1) / n))
    return stats.kstwo.sf(d, n)


TILTED_CASES = [(marginal, phi, lo, hi)
                for marginal in (MarginalFamily.gamma(),
                                 MarginalFamily.generalized_gamma(0.3, 1.0))
                for phi in (0.4, 2.0)
                for lo, hi in ((1e-4, 1e-2), (0.2, 0.9), (0.1, 0.101))]


class TestTiltedDraw:
    '''sample_tilted_z against the CDF of nu*(z) prod_j (1 + v_j z)^-phi
    on (lo, hi): a Kolmogorov-Smirnov test on 2,000 draws per case, made
    by one sized call.'''

    V = np.array([0.5, 2.0])

    @classmethod
    def tilted_cdf(cls, spec, lo, hi, xs):
        # the total is checked against _tilted_mass
        cdf, total = _cdf_at_draws(
            spec, lambda z: np.prod((1.0 + cls.V[:, None, None] * z)
                                    ** -spec.shape, axis=0), lo, hi, xs)
        assert total == pytest.approx(_tilted_mass(spec, cls.V, lo, hi),
                                      rel=1e-8)
        return cdf

    @pytest.mark.parametrize('case', range(len(TILTED_CASES)))
    def test_kolmogorov_smirnov(self, case):
        marginal, phi, lo, hi = TILTED_CASES[case]
        spec = CoRMSpec.from_marginal(2, phi, marginal, verify=False)
        rng = np.random.default_rng(1000 + case)
        xs = sample_tilted_z(spec, lo, hi, self.V, rng, size=2000)
        assert xs.shape == (2000,)
        xs = np.sort(xs)
        assert lo <= xs[0] and xs[-1] <= hi
        assert _ks_p_value(self.tilted_cdf(spec, lo, hi, xs)) > 0.01

    def test_size_none_returns_a_float(self):
        marginal, phi, lo, hi = TILTED_CASES[0]
        spec = CoRMSpec.from_marginal(2, phi, marginal, verify=False)
        z = sample_tilted_z(spec, lo, hi, self.V, np.random.default_rng(0))
        assert isinstance(z, float) and lo <= z <= hi


def _pool_state(n_jumps, low, w):
    '''One observation with slice low on jump 0 and n_jumps - 1 pool
    jumps, so every jump is redrawn above low; unit scores and v = w
    give every jump the tilt w.'''
    return SliceState(
        allocations=[np.array([0])],
        counts=np.vstack([[1], np.zeros((n_jumps - 1, 1), dtype=int)]),
        jumps=np.full(n_jumps, 0.5 * (1.0 + low)),
        scores=np.ones((n_jumps, 1)),
        atoms=[None] * n_jumps,
        u=[np.array([low])], v=np.array([w]), shape=1.0)


GAMMA, GEN_GAMMA = (MarginalFamily.gamma(),
                    MarginalFamily.generalized_gamma(0.3, 1.0))
# (marginal, shape, low, w); beta = sigma + shape is 2 and 1.3 in the
# first two specs, 0.4 and 0.7 in the last two, where (1 - z)^(beta-1)
# is unbounded at 1.  low = 0.5 gives the upper piece of the beta < 1
# exponential envelope a sizeable share of the proposals.
JUMP_HEIGHT_CASES = (
    [(marginal, phi, 0.05, w) for marginal, phi in ((GAMMA, 2.0),
                                                    (GEN_GAMMA, 1.0))
     for w in (0.1, 10.0, 1e3)]
    + [(marginal, phi, 0.05, w) for marginal, phi in ((GAMMA, 0.4),
                                                      (GEN_GAMMA, 0.4))
       for w in (0.1, 10.0, 1e3)]
    + [(marginal, phi, 1e-3, w) for marginal, phi in (
        (GAMMA, 2.0), (GEN_GAMMA, 1.0), (GAMMA, 0.4), (GEN_GAMMA, 0.4))
       for w in (0.1, 10.0, 1e3)]
    + [(marginal, 0.4, 0.5, 10.0) for marginal in (GAMMA, GEN_GAMMA)])


def _proposals(marginal, phi, low, w):
    spec = CoRMSpec.from_marginal(1, phi, marginal, verify=False)
    return slice_sampler._JumpHeightProposals(
        spec, np.array([low]), np.array([w]), np.random.default_rng(0))


class TestJumpHeights:
    '''update_jump_heights: the redrawn heights follow the conditional
    nu*(z) e^(-w z) on (low, 1) whichever envelope draws them, the
    rejection budget still raises, proposals per jump stay bounded, and
    tail-envelope jumps share one array inverse-tail call per round.'''

    LOW = 0.05

    @pytest.mark.parametrize('case', range(len(JUMP_HEIGHT_CASES)))
    def test_kolmogorov_smirnov(self, case):
        marginal, phi, low, w = JUMP_HEIGHT_CASES[case]
        spec = CoRMSpec.from_marginal(1, phi, marginal, verify=False)
        state = _pool_state(2000, low, w)
        update_jump_heights(state, spec, np.random.default_rng(2000 + case))
        xs = np.sort(state.jumps)
        assert low < xs[0] and xs[-1] < 1.0
        tilt = lambda z: np.exp(-w * (z - low))
        cdf, total = _cdf_at_draws(spec, tilt, low, 1.0, xs)
        # one 16-point panel covers (largest draw, 1), where the tilt at
        # w = 1e3 falls by e^-900 and (1 - z)^(beta-1) has its kink or
        # pole: the total is good to about 1e-5 there, far below the KS
        # resolution
        rule = TiltRule(spec, [0.0], RuleNodes(spec, 1.0, lower=low))
        want = math.exp(rule.log_integral(
            lambda log_z: -w * (np.exp(log_z) - low), 0))
        assert total == pytest.approx(want, rel=1e-4)
        assert _ks_p_value(cdf) > 0.01

    def test_cases_cover_both_envelopes_and_pieces(self):
        # the KS cases draw from the tail envelope and from the
        # exponential one, and at beta < 1 from both exponential pieces
        tail, exponential, upper_shares = set(), set(), []
        for marginal, phi, low, w in JUMP_HEIGHT_CASES:
            proposals = _proposals(marginal, phi, low, w)
            below_one = phi + (marginal.sigma or 0.0) < 1.0
            (tail if proposals.on_tail[0] else exponential).add(below_one)
            if below_one and not proposals.on_tail[0]:
                upper_shares.append(float(proposals.upper_share[0]))
        assert tail == exponential == {False, True}
        assert max(upper_shares) > 0.1 and min(upper_shares) < 0.01

    def test_rejection_budget_raises(self, monkeypatch):
        # at w (1 - low) = 9.5 the better envelope accepts 46% of its
        # proposals: 100 jumps are all drawn within 3 proposals each with
        # probability (1 - 0.54^3)^100, about 4e-8
        monkeypatch.setattr(slice_sampler, 'MAX_REJECTION_TRIES', 3)
        spec = CoRMSpec.from_marginal(1, 1.0, MarginalFamily.gamma())
        state = _pool_state(100, self.LOW, 10.0)
        with pytest.raises(RuntimeError, match='exceeded 3 rejection tries'):
            update_jump_heights(state, spec, np.random.default_rng(0))

    @pytest.mark.parametrize('marginal, phi', [
        (GAMMA, 2.0), (GEN_GAMMA, 1.0), (GAMMA, 0.4), (GEN_GAMMA, 0.4)],
        ids=['gamma-2', 'gg-1', 'gamma-0.4', 'gg-0.4'])
    @pytest.mark.parametrize('low, bound', [(0.05, 1.15), (1e-3, 2.75)],
                             ids=['low-0.05', 'low-0.001'])
    def test_mean_proposals_per_jump(self, monkeypatch, marginal, phi, low,
                                     bound):
        # at w = 1e3 every jump takes the exponential envelope; at low =
        # 0.05 it accepts 97-98% of its proposals, and at w low = 1, where
        # nu* falls by 2^(1+sigma) over (low, 2 low), 52-60%.  Counted
        # with the proposals a round draws past a jump's first
        # acceptance, the expected means are about 1.06 and 2.1-2.45; the
        # tail envelope alone needs 92-245 and 5-15 on average
        proposed = []

        def counted(n, propose, describe, rng):
            def propose_counted(idx):
                proposed.append(idx.size)
                return propose(idx)
            return first_accepted(n, propose_counted, describe, rng)

        first_accepted = slice_sampler._first_accepted
        monkeypatch.setattr(slice_sampler, '_first_accepted', counted)
        spec = CoRMSpec.from_marginal(1, phi, marginal, verify=False)
        assert not _proposals(marginal, phi, low, 1e3).on_tail[0]
        state = _pool_state(2000, low, 1e3)
        update_jump_heights(state, spec, np.random.default_rng(4))
        assert sum(proposed) / 2000 <= bound

    def test_inverse_tail_calls_are_rounds(self, monkeypatch):
        # tail-envelope jumps: one array inverse_tail call per round, and
        # the proposals per pending jump double from round to round: at
        # most ceil(log2(budget)) + 1 calls
        calls = []
        original = LevyIntensity.inverse_tail

        def counted(self, level):
            calls.append(np.size(level))
            return original(self, level)

        monkeypatch.setattr(LevyIntensity, 'inverse_tail', counted)
        assert _proposals(GEN_GAMMA, 1.0, self.LOW, 10.0).on_tail[0]
        spec = CoRMSpec.from_marginal(1, 1.0, GEN_GAMMA)
        state = _pool_state(50, self.LOW, 10.0)
        update_jump_heights(state, spec, np.random.default_rng(3))
        assert 1 < len(calls) <= math.ceil(
            math.log2(slice_sampler.MAX_REJECTION_TRIES)) + 1
        assert calls[0] == 50


def _two_groups(rng, per_group):
    groups = []
    for means in ((-2.0, 2.0), (2.0, 5.0)):
        pick = rng.integers(2, size=per_group)
        groups.append(np.asarray(means)[pick]
                      + 0.5 * rng.standard_normal(per_group))
    return Dataset(groups)


@pytest.mark.parametrize('marginal', [
    MarginalFamily.gamma(),
    MarginalFamily.generalized_gamma(0.3, 1.0),
], ids=['gamma', 'generalized-gamma'])
def test_sweeps_keep_invariants(marginal):
    rng = np.random.default_rng(21)
    data = _two_groups(rng, 30)
    kernel = UnivariateNormalGamma.from_data(np.concatenate(data.groups))
    spec = CoRMSpec.from_marginal(2, 1.0, marginal)
    state = initial_slice_state(data, spec, kernel, rng, n_start=4)
    state.check()
    v_steps = [(AdaptiveStepSize(), AdaptiveStepSize()) for _ in range(2)]
    shape_step = AdaptiveStepSize()
    cache = {}
    for _ in range(5):
        spec = slice_sweep(state, data, spec, kernel, rng, v_steps,
                           shape_step, lambda phi: -phi, cache)
        state.check()
        assert spec.shape == state.shape
        assert state.counts.sum() == 60


@pytest.mark.parametrize('marginal', [GAMMA, GEN_GAMMA],
                         ids=['gamma', 'generalized-gamma'])
def test_sweeps_at_a_small_shape_keep_jumps_inside(monkeypatch, marginal):
    # at shape 0.3, beta = 0.3 or 0.6 < 1: every redrawn jump lies
    # strictly between its largest slice latent (or the threshold) and 1
    redraw = slice_sampler.update_jump_heights
    redrawn = []

    def checked(state, spec, rng):
        lows = np.full(state.n_jumps, state.threshold)
        for j, c in enumerate(state.allocations):
            np.maximum.at(lows, c, state.u[j])
        redraw(state, spec, rng)
        assert np.all((lows < state.jumps) & (state.jumps < 1.0))
        redrawn.append(state.n_jumps)
        return state

    monkeypatch.setattr(slice_sampler, 'update_jump_heights', checked)
    rng = np.random.default_rng(23)
    data = _two_groups(rng, 30)
    kernel = UnivariateNormalGamma.from_data(data.stacked())
    spec = CoRMSpec.from_marginal(2, 0.3, marginal)
    state = initial_slice_state(data, spec, kernel, rng, n_start=4)
    v_steps = [(AdaptiveStepSize(), AdaptiveStepSize()) for _ in range(2)]
    for _ in range(10):
        slice_sweep(state, data, spec, kernel, rng, v_steps)
        state.check()
    assert len(redrawn) == 10 and sum(redrawn) > 10


def test_tilted_draw_outside_its_band_raises(monkeypatch):
    # a tail inverse that lost its accuracy returns a root below lower;
    # the draw raises instead of being clamped to lower
    monkeypatch.setattr(LevyIntensity, 'inverse_tail',
                        lambda self, level: np.full(np.shape(level), 0.01))
    spec = CoRMSpec.from_marginal(2, 1.0, GAMMA)
    with pytest.raises(FloatingPointError, match='outside'):
        sample_tilted_z(spec, 0.02, 0.5, [0.5, 2.0],
                        np.random.default_rng(0), size=5)


def test_residual_evaluations_per_sweep(monkeypatch):
    # the v and shape moves after repopulation share the threshold, so
    # each MH ratio reuses the residual at the current state: 2d + 2
    # evaluations a sweep, where each ratio used to make two (10 at d = 2)
    calls = []
    original = slice_sampler.residual_laplace

    def counted(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(slice_sampler, 'residual_laplace', counted)
    rng = np.random.default_rng(21)
    data = _two_groups(rng, 30)
    kernel = UnivariateNormalGamma.from_data(np.concatenate(data.groups))
    spec = CoRMSpec.from_marginal(
        2, 1.0, MarginalFamily.generalized_gamma(0.3, 1.0))
    state = initial_slice_state(data, spec, kernel, rng, n_start=4)
    v_steps = [(AdaptiveStepSize(), AdaptiveStepSize()) for _ in range(2)]
    shape_step = AdaptiveStepSize()
    for _ in range(5):
        before = len(calls)
        spec = slice_sweep(state, data, spec, kernel, rng, v_steps,
                           shape_step, lambda phi: -phi, {})
        assert 0 < len(calls) - before <= 2 * 2 + 2


def _hand_state(scores=(0.8, 1.5, 0.3)):
    '''One group of four observations on three jumps; the third jump
    is an unallocated pool jump just above the threshold 0.04.'''
    data = Dataset([np.array([-1.0, 0.2, 1.5, 2.0])])
    kernel = UnivariateNormalGamma(0.0, 0.5, 2.0, 1.0)
    state = SliceState(
        allocations=[np.array([0, 1, 1, 0])],
        counts=np.array([[2], [2], [0]]),
        jumps=np.array([0.6, 0.3, 0.05]),
        scores=np.array(scores, dtype=float)[:, None],
        atoms=[(-1.0, 2.0), (1.0, 0.5), (2.0, 4.0)],
        u=[np.array([0.1, 0.2, 0.04, 0.5])],
        v=np.array([0.7]), shape=1.0)
    return state, data, kernel


def test_underflowed_score_raises_a_typed_error():
    # a Ga(shape) score at a small shape can underflow to 0.0; its log
    # must not silently become -inf
    state, data, kernel = _hand_state(scores=(0.8, 0.0, 0.3))
    spec = CoRMSpec.from_marginal(1, 1.0, MarginalFamily.gamma())
    with pytest.raises(FloatingPointError, match='jump 1 .* shape 1'):
        update_allocations_slice(state, data, kernel,
                                 np.random.default_rng(0))
    with pytest.raises(FloatingPointError, match='jump 1 .* shape 1'):
        update_hyperparameters_slice(state, spec, lambda phi: -phi,
                                     AdaptiveStepSize(),
                                     np.random.default_rng(0))


def test_shape_move_with_a_jump_one_ulp_below_one():
    # at score shape 20 the gamma directing density (1 - z)^19 / z of a
    # jump one ulp below 1 (1e-16 from it) is 2^-1007, and at the
    # proposed shape 28.3 it underflows to 0.0, whose log warned (an
    # error here) while the shape target summed log(density).  In logs
    # it is about -36.7 (shape - 1), and the move is rejected.
    state, _, _ = _hand_state()
    state.jumps[0] = np.nextafter(1.0, 0.0)
    state.shape = 20.0
    state.check()
    spec = CoRMSpec.from_marginal(1, 20.0, MarginalFamily.gamma())
    step = AdaptiveStepSize(log_step=0.0)
    assert 20.0 * math.exp(np.random.default_rng(1).normal()) > 28.0
    got = update_hyperparameters_slice(state, spec, lambda phi: -phi, step,
                                       np.random.default_rng(1))
    assert got is spec and state.shape == 20.0
    assert step.proposed == 1 and step.accepted < 1e-20


def test_slice_deviance_matches_norm():
    state, data, kernel = _hand_state()
    state.check()
    y = data.groups[0][:, 0]
    mu = np.array([a[0] for a in state.atoms])[state.allocations[0]]
    tau = np.array([a[1] for a in state.atoms])[state.allocations[0]]
    want = -2.0 * stats.norm.logpdf(y, mu, 1.0 / np.sqrt(tau)).sum()
    assert slice_deviance(state, data, kernel) == pytest.approx(want,
                                                                rel=1e-12)


def test_slice_snapshots_weights_and_residual():
    # unit-shape gamma, d = 1: the sub-threshold mass of the group is
    # M int_0^L (1 + v z)^-2 dz = M L / (1 + v L)
    state, _, _ = _hand_state()
    state.check()
    mass = 2.5
    spec = CoRMSpec.from_marginal(1, 1.0, MarginalFamily.gamma(),
                                  centring_mass=mass)
    (snap,) = slice_snapshots(state, spec)
    assert np.allclose(snap.weights, state.scores[:, 0] * state.jumps,
                       rtol=1e-15, atol=0.0)
    assert snap.atoms == state.atoms
    L, v = state.threshold, state.v[0]
    assert snap.residual == pytest.approx(mass * L / (1.0 + v * L),
                                          rel=1e-12)


def scalar_allocations(state, data, kernel, rng):
    '''The allocation step one observation at a time: scalar scores
    over the eligible jumps and np.searchsorted(..., side='right').'''
    out = []
    for j, rows in enumerate(data.groups):
        alloc = np.empty(rows.shape[0], dtype=int)
        for i in range(rows.shape[0]):
            eligible = np.flatnonzero(state.jumps > state.u[j][i])
            logs = np.array([math.log(state.scores[k, j])
                             + kernel.log_density(rows[i, 0], state.atoms[k])
                             for k in eligible])
            cum = np.cumsum(np.exp(logs - logs.max()))
            pick = np.searchsorted(cum, rng.uniform() * cum[-1],
                                   side='right')
            alloc[i] = eligible[min(int(pick), eligible.size - 1)]
        out.append(alloc)
    return out


def test_batched_allocations_match_scalar_loop():
    # one uniform per observation, drawn in one call per group, gives the
    # draws of the scalar loop: same allocations, same stream position
    rng = np.random.default_rng(5)
    data = _two_groups(rng, 40)
    kernel = UnivariateNormalGamma.from_data(data.stacked())
    spec = CoRMSpec.from_marginal(2, 1.0, MarginalFamily.gamma())
    state = initial_slice_state(data, spec, kernel, rng, n_start=4)
    v_steps = [(AdaptiveStepSize(), AdaptiveStepSize()) for _ in range(2)]
    for sweep in range(4):
        spec = slice_sweep(state, data, spec, kernel, rng, v_steps)
        assert state.n_jumps > 1
        want = scalar_allocations(state, data, kernel,
                                  np.random.default_rng(sweep))
        batch_rng = np.random.default_rng(sweep)
        update_allocations_slice(state, data, kernel, batch_rng)
        for got, ref in zip(state.allocations, want):
            assert np.array_equal(got, ref)
        reference_rng = np.random.default_rng(sweep)
        reference_rng.uniform(size=data.counts.sum())
        assert batch_rng.uniform() == reference_rng.uniform()
        state.check()
