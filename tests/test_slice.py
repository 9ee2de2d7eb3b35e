'''Slice sampler: the sub-threshold integrals against closed forms, and
short chains that keep the state invariants.'''

import math

import numpy as np
import pytest
from scipy import integrate as sci
from scipy import stats

from corm import slice_sampler
from corm.core import CoRMSpec, EnvelopeBand, LevyIntensity, MarginalFamily
from corm.kernels import Dataset, UnivariateNormalGamma
from corm.marginal_sampler import AdaptiveStepSize
from corm.slice_sampler import (
    SliceState,
    _residual_weights,
    _tilted_births,
    initial_slice_state,
    residual_laplace,
    sample_tilted_z,
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
    trapezoid rules and the repopulation births must match the
    unit-shape gamma d = 1 closed forms: the directing density is 1/z on
    (0, 1).'''

    V1 = 1.7

    @pytest.mark.parametrize('L', [1e-6, 0.01, 0.4, 1.0])
    def test_residual_laplace(self, unit_gamma_2d, L):
        # int_0^L (1 - 1/(1 + v z)) / z dz = log(1 + v L)
        got = residual_laplace(unit_gamma_2d, [self.V1, 0.0], L)
        assert got == pytest.approx(math.log1p(self.V1 * L), rel=1e-13)

    @pytest.mark.parametrize('lo, hi', [(1e-7, 1e-3), (0.01, 0.02),
                                        (0.2, 0.9)])
    def test_tilted_mass(self, unit_gamma_2d, lo, hi):
        # the births on (lo, hi) are a Poisson process of intensity 1 / (z
        # (1 + v z)): their count has mean and variance int_lo^hi 1 / (z
        # (1 + v z)) dz, and their heights that density's law
        v = self.V1
        want = math.log(hi * (1.0 + v * lo) / (lo * (1.0 + v * hi)))
        rng = np.random.default_rng(4000)
        births = [_tilted_births(unit_gamma_2d, [v, 0.0], lo, hi, rng)
                  for _ in range(2000)]
        _check_poisson_count([z.size for z in births], want)
        xs = np.sort(np.concatenate(births))
        assert lo < xs[0] and xs[-1] < hi
        cdf, total = _cdf_at_draws(unit_gamma_2d,
                                   lambda z: 1.0 / (1.0 + v * z), lo, hi, xs)
        assert total == pytest.approx(want, rel=1e-8)
        assert _ks_p_value(cdf) > 0.01

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


def _check_poisson_count(counts, mean):
    '''The sample mean and variance of Poisson counts of the given mean
    each within 4 standard errors of it: the variance of the sample
    variance is about (mean + 2 mean^2) / n.'''
    counts = np.asarray(counts, dtype=float)
    n = counts.size
    assert abs(counts.mean() - mean) < 4.0 * math.sqrt(mean / n)
    assert abs(counts.var(ddof=1) - mean) \
        < 4.0 * math.sqrt((mean + 2.0 * mean ** 2) / n)


def _directing_constants(spec):
    '''(c, sigma, beta) of nu*(z) = c z^(-1-sigma) (1 - z)^(beta-1) on
    (0, 1) for a gamma or unit generalized-gamma marginal, from their
    formulas.'''
    phi, marginal = spec.shape, spec.marginal
    if marginal.kind == 'gamma':
        return 1.0, 0.0, phi
    sigma = marginal.sigma
    return (sigma * math.exp(math.lgamma(phi) - math.lgamma(phi + sigma)
                             - math.lgamma(1.0 - sigma)), sigma, sigma + phi)


def _quadpack_mass(spec, weight, lo, hi):
    '''int_lo^hi nu*(z) weight(z) dz by QUADPACK, weight taking a float:
    QAWS with the algebraic weight (1 - z)^(beta-1) at hi = 1, where nu*
    may be singular, and QAGS in log z below 1.'''
    c, sigma, beta = _directing_constants(spec)
    if hi == 1.0:
        return sci.quad(lambda z: c * z ** (-1.0 - sigma) * weight(z), lo,
                        1.0, weight='alg', wvar=(0.0, beta - 1.0),
                        epsabs=0.0, epsrel=1e-13, limit=200)[0]

    def f(s):
        z = math.exp(s)
        return c * z ** -sigma * (1.0 - z) ** (beta - 1.0) * weight(z)

    return sci.quad(f, math.log(lo), math.log(hi), epsabs=0.0,
                    epsrel=1e-13, limit=200)[0]


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
    def tilt(cls, spec):
        return lambda z: np.prod((1.0 + np.multiply.outer(cls.V, z))
                                 ** -spec.shape, axis=0)

    @classmethod
    def tilted_cdf(cls, spec, lo, hi, xs):
        # the total is checked against QUADPACK
        cdf, total = _cdf_at_draws(spec, cls.tilt(spec), lo, hi, xs)
        assert total == pytest.approx(
            _quadpack_mass(spec, cls.tilt(spec), lo, hi), rel=1e-8)
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


# a negative entry (an acceptance above 1 would bias the draws), a vector
# of the wrong length, and non-finite entries
BAD_TILTS = [[-0.9, 0.0], [0.5, 2.0, 1.0, 1.0], [math.nan, 1.0],
             [math.inf, 1.0]]
BAD_TILT_IDS = ['negative', 'length', 'nan', 'inf']


class TestTiltChecks:
    '''sample_tilted_z and the repopulation births raise ValueError for
    a tilt v that is not a finite, nonnegative vector of length d, before
    drawing anything.'''

    @pytest.mark.parametrize('v', BAD_TILTS, ids=BAD_TILT_IDS)
    def test_sample_tilted_z(self, unit_gamma_2d, v, monkeypatch):
        monkeypatch.setattr(slice_sampler, '_first_accepted', None)
        with pytest.raises(ValueError, match='v must be'):
            sample_tilted_z(unit_gamma_2d, 0.01, 0.5, v,
                            np.random.default_rng(0), size=10)

    @pytest.mark.parametrize('v', BAD_TILTS, ids=BAD_TILT_IDS)
    def test_births(self, unit_gamma_2d, v):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match='v must be'):
            _tilted_births(unit_gamma_2d, v, 0.01, 0.5, rng)
        assert rng.random() == np.random.default_rng(0).random()


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
    power-envelope jumps share one array points call per round.'''

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
        want = _quadpack_mass(spec, tilt, low, 1.0)
        assert total == pytest.approx(want, rel=1e-4)
        assert _ks_p_value(cdf) > 0.01

    def test_cases_cover_both_envelopes_and_pieces(self):
        # the KS cases draw from the power envelope and from the
        # exponential one, and at beta < 1 from both exponential pieces
        power, exponential, upper_shares = set(), set(), []
        for marginal, phi, low, w in JUMP_HEIGHT_CASES:
            proposals = _proposals(marginal, phi, low, w)
            below_one = phi + (marginal.sigma or 0.0) < 1.0
            (power if proposals.on_power[0] else exponential).add(below_one)
            if below_one and not proposals.on_power[0]:
                upper_shares.append(float(proposals.upper_share[0]))
        assert power == exponential == {False, True}
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
        # power envelope alone needs 100-350 and 5.5-22 on average
        proposed = []

        def counted(n, propose, describe, rng):
            def propose_counted(idx):
                proposed.append(idx.size)
                return propose(idx)
            return first_accepted(n, propose_counted, describe, rng)

        first_accepted = slice_sampler._first_accepted
        monkeypatch.setattr(slice_sampler, '_first_accepted', counted)
        spec = CoRMSpec.from_marginal(1, phi, marginal, verify=False)
        assert not _proposals(marginal, phi, low, 1e3).on_power[0]
        state = _pool_state(2000, low, 1e3)
        update_jump_heights(state, spec, np.random.default_rng(4))
        assert sum(proposed) / 2000 <= bound

    def test_power_proposals_are_rounds(self, monkeypatch):
        # power-envelope jumps: one array points call per round, and the
        # proposals per pending jump double from round to round: at most
        # ceil(log2(budget)) + 1 calls; the tail is never inverted
        calls = []
        original = EnvelopeBand.points

        def counted(self, y, k=None):
            calls.append(np.size(y))
            return original(self, y, k)

        def inverse_tail(self, level):
            raise AssertionError('inverse_tail called')

        monkeypatch.setattr(EnvelopeBand, 'points', counted)
        monkeypatch.setattr(LevyIntensity, 'inverse_tail', inverse_tail)
        assert _proposals(GEN_GAMMA, 1.0, self.LOW, 10.0).on_power[0]
        spec = CoRMSpec.from_marginal(1, 1.0, GEN_GAMMA)
        state = _pool_state(50, self.LOW, 10.0)
        update_jump_heights(state, spec, np.random.default_rng(3))
        assert 1 < len(calls) <= math.ceil(
            math.log2(slice_sampler.MAX_REJECTION_TRIES)) + 1
        assert calls[0] == 50


def _piece_p_values(spec, weight, xs, pieces):
    '''For each piece (lo, hi) of an envelope's band: the KS p-value of
    the draws inside it against the target nu*(z) weight(z) restricted to
    it (_cdf_at_draws), and the z-score of their count against the
    piece's share of the band's mass by QUADPACK (0 for one piece).'''
    masses = [_quadpack_mass(spec, weight, lo, hi) for lo, hi in pieces]
    out = []
    for (lo, hi), m in zip(pieces, masses):
        inside = np.sort(xs[(lo < xs) & (xs <= hi)])
        cdf, total = _cdf_at_draws(spec, weight, lo, hi, inside)
        assert total == pytest.approx(m, rel=1e-4)
        share = m / sum(masses)
        spread = math.sqrt(xs.size * share * (1.0 - share)) or 1.0
        out.append((_ks_p_value(cdf), (inside.size - xs.size * share)
                    / spread))
    return out


def _pieces(spec, lo, hi):
    split = float(spec.directing.envelope.split(lo, hi))
    return [(lo, hi)] if split == hi else [(lo, split), (split, hi)]


# (marginal, shape, low, w): the power envelope draws every jump; beta =
# 2 and 1.3 give one power piece, 0.4 and 0.7 a power and a beta piece
POWER_CASES = [(GAMMA, 2.0, 0.05, 1.0), (GEN_GAMMA, 1.0, 1e-3, 1.0),
               (GAMMA, 0.4, 0.05, 1.0), (GEN_GAMMA, 0.4, 1e-3, 0.1)]
# (marginal, shape, lo, hi) of sample_tilted_z, likewise
TILTED_POWER_CASES = [(GAMMA, 2.0, 0.01, 0.5), (GAMMA, 0.4, 0.05, 1.0),
                      (GEN_GAMMA, 0.4, 1e-3, 0.95)]


class TestPowerEnvelopePieces:
    '''Every piece of the power envelope draws the target restricted to
    it, in the share of the target's mass it covers: KS tests per piece,
    with the CDF from _cdf_at_draws and the shares from QUADPACK, through
    update_jump_heights on a pool and through sample_tilted_z.'''

    @pytest.mark.parametrize('case', range(len(POWER_CASES)))
    def test_jump_heights(self, case):
        marginal, phi, low, w = POWER_CASES[case]
        spec = CoRMSpec.from_marginal(1, phi, marginal, verify=False)
        assert _proposals(marginal, phi, low, w).on_power[0]
        state = _pool_state(2000, low, w)
        update_jump_heights(state, spec, np.random.default_rng(3000 + case))
        pieces = _pieces(spec, low, 1.0)
        assert len(pieces) == (1 if phi + (marginal.sigma or 0.0) >= 1.0
                               else 2)
        for p_value, z in _piece_p_values(
                spec, lambda z: np.exp(-w * (z - low)), state.jumps,
                pieces):
            assert p_value > 0.01 and abs(z) < 4.0

    @pytest.mark.parametrize('case', range(len(TILTED_POWER_CASES)))
    def test_tilted_draws(self, case):
        marginal, phi, lo, hi = TILTED_POWER_CASES[case]
        spec = CoRMSpec.from_marginal(2, phi, marginal, verify=False)
        v = TestTiltedDraw.V
        xs = sample_tilted_z(spec, lo, hi, v, np.random.default_rng(
            3100 + case), size=2000)
        pieces = _pieces(spec, lo, hi)
        assert len(pieces) == (1 if phi + (marginal.sigma or 0.0) >= 1.0
                               else 2)
        for p_value, z in _piece_p_values(
                spec, TestTiltedDraw.tilt(spec), xs, pieces):
            assert p_value > 0.01 and abs(z) < 4.0


class TestMassNearOne:
    '''At beta = 0.05, nu*(z) = z^-1 (1 - z)^-0.95 puts a quarter of its
    mass on (0.5, 1) above 1 - 1e-12 and 15% within half an ulp of 1:
    draws from either envelope keep those points as the largest double
    below 1.  Their share above 1 - 1e-12 is checked against the
    target's within 4 standard errors.'''

    PHI, LOW, EPS = 0.05, 0.5, 1e-12

    @pytest.mark.parametrize('w, on_power', [(0.1, True), (10.0, False)])
    def test_jump_heights(self, w, on_power):
        spec = CoRMSpec.from_marginal(1, self.PHI, GAMMA, verify=False)
        assert _proposals(GAMMA, self.PHI, self.LOW, w).on_power[0] \
            == on_power
        state = _pool_state(4000, self.LOW, w)
        update_jump_heights(state, spec, np.random.default_rng(3200))
        mass = _quadpack_mass(spec, lambda z: math.exp(-w * (z - self.LOW)),
                              self.LOW, 1.0)
        # e^(-w (z - low)) is e^(-w (1 - low)) within 1e-11 above 1 - eps
        want = math.exp(-w * (1.0 - self.LOW)) \
            * float(spec.directing.tail_integral(1.0 - self.EPS)) / mass
        self._check_share(state.jumps, want)

    def test_tilted_draws(self):
        spec = CoRMSpec.from_marginal(2, self.PHI, GAMMA, verify=False)
        xs = sample_tilted_z(spec, self.LOW, 1.0, [0.0, 0.0],
                             np.random.default_rng(3201), size=4000)
        tail = spec.directing.tail_integral
        self._check_share(xs, float(tail(1.0 - self.EPS) / tail(self.LOW)))

    def _check_share(self, xs, want):
        assert np.all((self.LOW < xs) & (xs < 1.0))
        assert np.any(xs == np.nextafter(1.0, 0.0))
        spread = math.sqrt(want * (1.0 - want) / xs.size)
        assert abs(np.mean(xs > 1.0 - self.EPS) - want) < 4.0 * spread


def _two_groups(rng, per_group):
    groups = []
    for means in ((-2.0, 2.0), (2.0, 5.0)):
        pick = rng.integers(2, size=per_group)
        groups.append(np.asarray(means)[pick]
                      + 0.5 * rng.standard_normal(per_group))
    return Dataset(groups)


class TestStartJumps:
    '''The start jumps of initial_slice_state sit at uniform levels of the
    power law c z^(-1-sigma) of the directing intensity's envelope
    (PowerEnvelope.power_level), in closed form, strictly inside the
    support (0, 1/a): a level that rounds up to 1/a gives the largest
    double below it.'''

    # the lowest level 1 - U takes, U uniform on [0, 1), and two more
    LEVELS = np.concatenate([[2.0 ** -53, 2.0 ** -52, 1e-12],
                             np.linspace(0.01, 1.0, 100)])

    @pytest.mark.parametrize('marginal, shape, clamped', [
        (MarginalFamily.gamma(), 0.05, False),
        (MarginalFamily.generalized_gamma(0.3, 1.0), 1.0, False),
        # c = 7.95: levels 2^-53 and 2^-52 round up to 1
        (MarginalFamily.generalized_gamma(0.3, 1.0), 0.01, True),
        (MarginalFamily.generalized_gamma(0.3, 2.0), 1.0, False),
        (MarginalFamily.sigma_stable(0.5), 1.0, False),
    ], ids=['gamma-0.05', 'gg-1', 'gg-0.01', 'gg-a2', 'stable'])
    def test_power_levels_lie_inside_the_support(self, marginal, shape,
                                                 clamped):
        spec = CoRMSpec.from_marginal(1, shape, marginal)
        envelope = spec.directing.envelope
        c, sigma, top = envelope.c, envelope.sigma, envelope.top
        z = envelope.power_level(self.LEVELS)
        assert np.all((z > 0.0) & (z < top))
        assert np.all(np.diff(z) <= 0.0)
        if clamped:
            assert z[0] == z[1] == np.nextafter(top, 0.0)
        # away from the top the power law has mass level above z
        z, levels = z[3:], self.LEVELS[3:]
        if math.isinf(top):
            mass = c * z ** -sigma / sigma
        elif sigma == 0.0:
            mass = c * np.log(top / z)
        else:
            mass = c * (z ** -sigma - top ** -sigma) / sigma
        np.testing.assert_allclose(mass, levels, rtol=1e-12)

    @pytest.mark.parametrize('marginal, shape', [
        (MarginalFamily.gamma(), 0.05),
        (MarginalFamily.generalized_gamma(0.3, 1.0), 1.0),
        (MarginalFamily.generalized_gamma(0.3, 1.0), 0.01),
    ], ids=['gamma-0.05', 'gg-1', 'gg-0.01'])
    def test_initial_state_takes_the_power_levels(self, monkeypatch,
                                                  marginal, shape):
        def inverse_tail(self, level):
            raise AssertionError('inverse_tail called')

        monkeypatch.setattr(LevyIntensity, 'inverse_tail', inverse_tail)
        data = _two_groups(np.random.default_rng(31), 30)
        kernel = UnivariateNormalGamma.from_data(data.stacked())
        spec = CoRMSpec.from_marginal(2, shape, marginal)
        state = initial_slice_state(data, spec, kernel,
                                    np.random.default_rng(32), n_start=40)
        state.check()
        # the start's first draws are the jumps' uniforms, one a jump
        u = np.random.default_rng(32).uniform(size=40)
        np.testing.assert_array_equal(
            state.jumps, spec.directing.envelope.power_level(1.0 - u))
        assert np.all((state.jumps > 0.0) & (state.jumps < 1.0))


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


def test_tilted_draw_rejects_proposals_outside_its_band(monkeypatch):
    # envelope points on or past an end of the band are rejected, never
    # clamped to it, and the draws come from the proposals inside
    lower, upper = 0.02, 0.5
    original = EnvelopeBand.points
    outside = np.array([0.01, lower, upper, 0.7, 1.0])

    def spoiled(self, y, k=None):
        z = original(self, y, k)
        z[::2] = outside[np.arange(z[::2].size) % outside.size]
        return z

    monkeypatch.setattr(EnvelopeBand, 'points', spoiled)
    spec = CoRMSpec.from_marginal(2, 0.4, GAMMA, verify=False)
    z = sample_tilted_z(spec, lower, upper, [0.5, 2.0],
                        np.random.default_rng(0), size=500)
    assert np.all((lower < z) & (z < upper))
    assert not np.isin(z, outside).any()


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


def test_shape_move_with_nan_prior_raises():
    # a NaN log ratio used to accept the move
    state, _, _ = _hand_state()
    spec = CoRMSpec.from_marginal(1, 1.0, MarginalFamily.gamma())
    step = AdaptiveStepSize()
    with pytest.raises(FloatingPointError, match='nan'):
        update_hyperparameters_slice(state, spec, lambda phi: math.nan,
                                     step, np.random.default_rng(1))
    assert state.shape == 1.0 and step.proposed == 0


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
