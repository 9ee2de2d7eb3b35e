'''Slice sampler: the sub-threshold integrals against closed forms, and
short chains that keep the state invariants.'''

import math
import warnings

import numpy as np
import pytest
from scipy import integrate as sci
from scipy import stats

from corm import slice_sampler
from corm.core import (CoRMSpec, EnvelopeBand, LevyIntensity, MarginalFamily,
                       RuleNodes, TiltRule)
from corm.kernels import Dataset, FlatKernel, UnivariateNormalGamma
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
    update_v_interweaving,
)
from oracles import residual_laplace_mpmath


GAMMA, GEN_GAMMA = (MarginalFamily.gamma(),
                    MarginalFamily.generalized_gamma(0.3, 1.0))
# nu* on (0, inf) and on (0, 1/a) = (0, 0.5)
STABLE, GEN_GAMMA_A2 = (MarginalFamily.sigma_stable(0.5),
                        MarginalFamily.generalized_gamma(0.3, 2.0))


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

    @pytest.mark.parametrize('marginal, lo, hi', [
        (STABLE, 1e-4, 1e-2), (STABLE, 0.2, 0.9),
        (GEN_GAMMA_A2, 1e-4, 1e-2), (GEN_GAMMA_A2, 0.1, 0.45)],
        ids=['stable-low', 'stable-high', 'gg-a2-low', 'gg-a2-high'])
    def test_tilted_mass_off_the_unit_support(self, marginal, lo, hi):
        # nu* on (0, inf) and (0, 1/2): the mean count is the mass of
        # nu*(z) / (1 + v z) on (lo, hi) by QUADPACK
        spec = CoRMSpec(2, 1.0, marginal)
        v = self.V1
        tilt = lambda z: 1.0 / (1.0 + v * z)
        want = _quadpack_mass(spec, tilt, lo, hi)
        rng = np.random.default_rng(4100)
        births = [_tilted_births(spec, [v, 0.0], lo, hi, rng)
                  for _ in range(2000)]
        _check_poisson_count([z.size for z in births], want)
        xs = np.sort(np.concatenate(births))
        assert lo < xs[0] and xs[-1] < hi
        cdf, total = _cdf_at_draws(spec, tilt, lo, hi, xs)
        assert total == pytest.approx(want, rel=1e-8)
        assert _ks_p_value(cdf) > 0.01

    @pytest.mark.parametrize('L', [1e-6, 0.01, 0.4, 1.0])
    def test_residual_weight(self, unit_gamma_2d, L):
        # int_0^L (1 + v z)^-2 dz = L / (1 + v L)
        got = _residual_weights(unit_gamma_2d, [self.V1, 0.0], L)[0]
        assert got == pytest.approx(L / (1.0 + self.V1 * L), rel=1e-13)


SERIES_FAMILIES = {'gamma': GAMMA, 'gg(0.3, 1)': GEN_GAMMA,
                   'gg(0.5, 2)': MarginalFamily.generalized_gamma(0.5, 2.0),
                   'stable(0.5)': STABLE}
SERIES_SHAPES, SERIES_LEVELS = (0.05, 1.0, 30.0), (1e-8, 1e-3, 0.1)
# per d, a direction of v with every entry positive, and one with zeros
# (at d = 1 the positive one again: v = 0 is psi_L = 0)
SERIES_DIRECTIONS = {1: ((1.0,), (1.0,)), 2: ((1.0, 3.0), (1.0, 0.0)),
                     3: ((1.0, 3.0, 0.5), (0.0, 2.0, 0.0))}
# (family, d, shape, L): each shape meets each level over d = 1, 2, 3
SERIES_CELLS = [(family, d, shape, SERIES_LEVELS[(k + d) % 3])
                for family in SERIES_FAMILIES for d in (1, 2, 3)
                for k, shape in enumerate(SERIES_SHAPES)]


def _tilt_at_rate(spec, direction, L, rate):
    '''The largest v along direction whose own part of the series rate,
    max(shape sum_j v_j, max_j v_j) L, is at most rate.'''
    def own(v):
        return max(spec.shape * v.sum(), v.max()) * L

    direction = np.asarray(direction)
    v = direction * (rate / own(direction))
    while own(v) > rate:
        v = np.nextafter(v, 0.0)
    return v


class TestResidualSeries:
    '''residual_laplace sums psi_L as its power series in z up to the
    series rate _SERIES_RATE and takes the TiltRule above it: each path
    within 1e-13 of mpmath, on both sides of the switch and at it.'''

    @pytest.mark.parametrize('family, d, shape, L', SERIES_CELLS)
    def test_both_paths_match_mpmath(self, monkeypatch, family, d, shape, L):
        # v at a tenth of the switch rate with zero entries (d > 1), at the
        # switch, and at ten times it; where nu*'s own factor puts the rate
        # past the switch (a |beta - 1| L > 0.4) every cell takes the rule
        rules = []
        monkeypatch.setattr(
            slice_sampler, 'TiltRule',
            lambda *args: rules.append(args) or TiltRule(*args))
        spec = CoRMSpec.from_marginal(d, shape, SERIES_FAMILIES[family])
        positive, zeros = SERIES_DIRECTIONS[d]
        switch = slice_sampler._SERIES_RATE
        for direction, rate in ((zeros, 0.1 * switch), (positive, switch),
                                (positive, 10.0 * switch)):
            v = _tilt_at_rate(spec, direction, L, rate)
            want = residual_laplace_mpmath(spec, v, L)
            rule = TiltRule(spec, v, RuleNodes(spec, L)).psi()
            assert rule == pytest.approx(want, rel=1e-13, abs=0.0)
            before = len(rules)
            assert residual_laplace(spec, v, L) == pytest.approx(
                want, rel=1e-13, abs=0.0)
            series = slice_sampler._series_rate(spec, v.tolist(), L) \
                <= switch
            assert len(rules) - before == (not series)

    def test_series_matches_the_rule(self):
        # a denser grid below the switch, without the oracle
        worst = 0.0
        for marginal in SERIES_FAMILIES.values():
            for d, directions in SERIES_DIRECTIONS.items():
                for shape in (0.05, 0.3, 1.0, 5.0, 30.0):
                    spec = CoRMSpec.from_marginal(d, shape, marginal)
                    for L in (1e-8, 1e-5, 1e-3, 0.03, 0.1):
                        for direction in directions:
                            for rate in (1e-3, 0.04, 0.2, 0.4):
                                v = _tilt_at_rate(spec, direction, L, rate)
                                if slice_sampler._series_rate(
                                        spec, v.tolist(), L) \
                                        > slice_sampler._SERIES_RATE:
                                    continue
                                rule = TiltRule(spec, v,
                                                RuleNodes(spec, L)).psi()
                                got = residual_laplace(spec, v, L)
                                worst = max(worst, abs(got / rule - 1.0))
        assert worst <= 1e-13

    def test_value_does_not_depend_on_given_terms(self):
        # the path and the double depend on (spec, v, L) alone: given
        # nodes, given series terms, both or neither
        spec = CoRMSpec.from_marginal(2, 1.0, GEN_GAMMA)
        L = 0.01
        nodes = RuleNodes(spec, L)
        series = slice_sampler._series_terms(spec, L)
        for v in ((0.5, 2.0), (300.0, 30.0)):
            want = residual_laplace(spec, v, L)
            for given in ((nodes,), (None, series), (nodes, series)):
                assert residual_laplace(spec, v, L, *given) == want


_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)


def _cdf_at_draws(spec, weight, lo, hi, xs):
    '''CDF of nu*(z) weight(z) on (lo, hi) at the sorted draws xs, and
    its total: 16-point Gauss-Legendre in log z between consecutive
    draws.  At hi = inf (sigma-stable, nu*(z) = c z^(-1-sigma)) the last
    panel, above the largest draw x, is one rule in r = (z / x)^-sigma
    on (0, 1), where nu*(z) dz = c x^-sigma / sigma dr.'''
    edges = np.concatenate([[lo], xs, [hi]])
    ends = np.log(edges[:-1] if math.isinf(hi) else edges)
    half = 0.5 * np.diff(ends)[:, None]
    z = np.exp(ends[:-1, None] + half * (1.0 + _GL_X))
    panels = half[:, 0] * ((spec.directing.density(z) * z * weight(z))
                           @ _GL_W)
    if math.isinf(hi):
        c, sigma, _, _ = _directing_constants(spec)
        r = 0.5 * (1.0 + _GL_X)
        panels = np.append(panels, 0.5 * c * xs[-1] ** -sigma / sigma
                           * (weight(xs[-1] * r ** (-1.0 / sigma)) @ _GL_W))
    cum = np.cumsum(panels)
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
    '''(c, sigma, a, beta) of nu*(z) = c z^(-1-sigma) (1 - a z)^(beta-1)
    on (0, 1/a) for a gamma or generalized-gamma marginal, and of the
    sigma-stable c z^(-1-sigma) on (0, inf) as a = 0, beta = 1, from
    their formulas.'''
    phi, marginal = spec.shape, spec.marginal
    if marginal.kind == 'gamma':
        return 1.0, 0.0, 1.0, phi
    sigma = marginal.sigma
    c = sigma * math.exp(math.lgamma(phi) - math.lgamma(phi + sigma)
                         - math.lgamma(1.0 - sigma))
    if marginal.kind == 'sigma-stable':
        return c, sigma, 0.0, 1.0
    return c, sigma, marginal.a, sigma + phi


def _support_end(spec):
    '''The end 1/a of nu*'s support, inf for sigma-stable.'''
    a = _directing_constants(spec)[2]
    return 1.0 / a if a else math.inf


def _quadpack_mass(spec, weight, lo, hi):
    '''int_lo^hi nu*(z) weight(z) dz by QUADPACK, weight taking a float:
    QAWS with the algebraic weight (1/a - z)^(beta-1) at hi = 1/a, where
    nu* may be singular, QAGI at hi = inf, and QAGS in log z below
    1/a.'''
    c, sigma, a, beta = _directing_constants(spec)
    if math.isinf(hi):
        return sci.quad(lambda z: c * z ** (-1.0 - sigma) * weight(z), lo,
                        math.inf, epsabs=0.0, epsrel=1e-12, limit=200)[0]
    if hi == _support_end(spec):
        # (1 - a z)^(beta-1) = a^(beta-1) (1/a - z)^(beta-1)
        return sci.quad(lambda z: c * a ** (beta - 1.0) * z ** (-1.0 - sigma)
                        * weight(z), lo, hi, weight='alg',
                        wvar=(0.0, beta - 1.0), epsabs=0.0, epsrel=1e-13,
                        limit=200)[0]

    def f(s):
        z = math.exp(s)
        return c * z ** -sigma * (1.0 - a * z) ** (beta - 1.0) * weight(z)

    return sci.quad(f, math.log(lo), math.log(hi), epsabs=0.0,
                    epsrel=1e-13, limit=200)[0]


def _ks_p_value(cdf):
    '''Kolmogorov-Smirnov p-value of sorted draws with the given CDF
    values.'''
    n = cdf.size
    k = np.arange(1, n + 1)
    d = max(np.max(k / n - cdf), np.max(cdf - (k - 1) / n))
    return stats.kstwo.sf(d, n)


_UNIT_BANDS = ((1e-4, 1e-2), (0.2, 0.9), (0.1, 0.101))
# the bands on (0, 1), scaled by min(1, 1/a) on the other supports, and on
# (0, inf) a band without an upper end
TILTED_CASES = (
    [(marginal, phi, lo, hi) for marginal in (GAMMA, GEN_GAMMA)
     for phi in (0.4, 2.0) for lo, hi in _UNIT_BANDS]
    + [(marginal, phi, scale * lo, scale * hi)
       for marginal, scale in ((STABLE, 1.0), (GEN_GAMMA_A2, 0.5))
       for phi in (0.4, 2.0) for lo, hi in _UNIT_BANDS]
    + [(STABLE, phi, 0.2, math.inf) for phi in (0.4, 2.0)])


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
        spec = CoRMSpec(2, phi, marginal)
        rng = np.random.default_rng(1000 + case)
        xs = sample_tilted_z(spec, lo, hi, self.V, rng, size=2000)
        assert xs.shape == (2000,)
        xs = np.sort(xs)
        assert lo <= xs[0] and xs[-1] <= hi
        assert _ks_p_value(self.tilted_cdf(spec, lo, hi, xs)) > 0.01

    def test_upper_past_the_support_raises(self, monkeypatch):
        # nu* of generalized gamma (0.3, 2) ends at 1/a = 0.5
        monkeypatch.setattr(slice_sampler, '_first_accepted', None)
        spec = CoRMSpec.from_marginal(2, 1.0, GEN_GAMMA_A2)
        with pytest.raises(ValueError, match='upper <= 1/a'):
            sample_tilted_z(spec, 0.01, 0.8, self.V,
                            np.random.default_rng(0), size=10)

    def test_size_none_returns_a_float(self):
        marginal, phi, lo, hi = TILTED_CASES[0]
        spec = CoRMSpec(2, phi, marginal)
        z = sample_tilted_z(spec, lo, hi, self.V, np.random.default_rng(0))
        assert isinstance(z, float) and lo <= z <= hi


# a negative entry (an acceptance above 1 would bias the draws), a vector
# of the wrong length, and non-finite entries
BAD_TILTS = [[-0.9, 0.0], [0.5, 2.0, 1.0, 1.0], [math.nan, 1.0],
             [math.inf, 1.0]]
BAD_TILT_IDS = ['negative', 'length', 'nan', 'inf']


class TestTiltChecks:
    '''sample_tilted_z, the repopulation births and residual_laplace
    raise ValueError for a tilt v that is not a finite, nonnegative
    vector of length d, before drawing or computing anything.'''

    @pytest.mark.parametrize('v', BAD_TILTS, ids=BAD_TILT_IDS)
    def test_sample_tilted_z(self, unit_gamma_2d, v, monkeypatch):
        monkeypatch.setattr(slice_sampler, '_first_accepted', None)
        with pytest.raises(ValueError, match='v must be'):
            sample_tilted_z(unit_gamma_2d, 0.01, 0.5, v,
                            np.random.default_rng(0), size=10)

    @pytest.mark.parametrize(
        'v', BAD_TILTS + [[math.nan, math.nan], [-1.0, -2.0]],
        ids=BAD_TILT_IDS + ['all-nan', 'all-negative'])
    @pytest.mark.parametrize('L', [0.0, 0.01])
    def test_residual_laplace(self, unit_gamma_2d, v, L):
        # checked before the shortcuts for L = 0 and for a tilt without a
        # positive entry
        with pytest.raises(ValueError, match='v must be'):
            residual_laplace(unit_gamma_2d, v, L)
        with pytest.raises(ValueError, match='v must be'):
            _residual_weights(unit_gamma_2d, v, L)

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
    + [(marginal, 0.4, 0.5, 10.0) for marginal in (GAMMA, GEN_GAMMA)]
    # off (0, 1): low = 0.05 min(1, 1/a) and 1e-3, beta = 1 (sigma-stable),
    # 1.3 and, at shape 0.4, 0.7 (generalized gamma with a = 2); the last
    # case is (0.5, 10) of the unit support scaled to 1/a = 0.5, with the
    # same upper piece share
    + [(marginal, phi, low, w) for marginal, phi, low in (
        (STABLE, 1.0, 0.05), (STABLE, 1.0, 1e-3), (GEN_GAMMA_A2, 1.0, 0.025),
        (GEN_GAMMA_A2, 1.0, 1e-3), (GEN_GAMMA_A2, 0.4, 0.025))
       for w in (0.1, 10.0, 1e3)]
    + [(GEN_GAMMA_A2, 0.4, 0.25, 20.0)])


def _proposals(marginal, phi, low, w):
    spec = CoRMSpec(1, phi, marginal)
    return slice_sampler._JumpHeightProposals(
        spec, np.array([low]), np.array([w]), np.random.default_rng(0))


def _proposal_sizes(monkeypatch):
    '''The list to which every propose call of _first_accepted appends
    the number of proposals asked for, from now on.'''
    sizes = []
    first_accepted = slice_sampler._first_accepted

    def counted(n, propose, describe, rng):
        def propose_counted(idx):
            sizes.append(idx.size)
            return propose(idx)
        return first_accepted(n, propose_counted, describe, rng)

    monkeypatch.setattr(slice_sampler, '_first_accepted', counted)
    return sizes


class TestJumpHeights:
    '''update_jump_heights: the redrawn heights follow the conditional
    nu*(z) e^(-w z) on (low, 1/a), or (low, inf) for sigma-stable,
    whichever envelope draws them, the rejection budget still raises,
    proposals per jump stay bounded, and power-envelope jumps share one
    array points call per round.'''

    LOW = 0.05

    @pytest.mark.parametrize('case', range(len(JUMP_HEIGHT_CASES)))
    def test_kolmogorov_smirnov(self, case):
        marginal, phi, low, w = JUMP_HEIGHT_CASES[case]
        spec = CoRMSpec(1, phi, marginal)
        state = _pool_state(2000, low, w)
        update_jump_heights(state, spec, np.random.default_rng(2000 + case))
        xs = np.sort(state.jumps)
        top = _support_end(spec)
        assert low < xs[0] and xs[-1] < top
        tilt = lambda z: np.exp(-w * (z - low))
        cdf, total = _cdf_at_draws(spec, tilt, low, top, xs)
        # one 16-point panel covers (largest draw, 1/a), where the tilt at
        # w = 1e3 falls by e^-900 and (1 - a z)^(beta-1) has its kink or
        # pole: the total is good to about 1e-5 there, far below the KS
        # resolution
        want = _quadpack_mass(spec, tilt, low, top)
        assert total == pytest.approx(want, rel=1e-4)
        assert _ks_p_value(cdf) > 0.01

    def test_cases_cover_both_envelopes_and_pieces(self):
        # the KS cases draw from the power envelope and from the
        # exponential one, and at beta < 1 from both exponential pieces
        power, exponential, upper_shares = set(), set(), []
        for marginal, phi, low, w in JUMP_HEIGHT_CASES:
            proposals = _proposals(marginal, phi, low, w)
            spec = CoRMSpec(1, phi, marginal)
            below_one = _directing_constants(spec)[3] < 1.0
            (power if proposals.on_power[0] else exponential).add(below_one)
            if below_one and not proposals.on_power[0]:
                upper_shares.append(float(proposals.upper_share[0]))
        assert power == exponential == {False, True}
        assert max(upper_shares) > 0.1 and min(upper_shares) < 0.01

    @pytest.mark.parametrize('marginal, low, w', [
        (GAMMA, 0.5, 10.0), (GEN_GAMMA_A2, 0.25, 20.0)],
        ids=['gamma', 'gg-a2'])
    def test_exponential_pieces_take_the_target_shares(self, marginal, low,
                                                       w):
        # at shape 0.4 (beta 0.4 and 0.7) the exponential envelope splits
        # at s: the share of the draws above s is the target's share of
        # mass there by QUADPACK, within 4 standard errors.  A wrong piece
        # mass moves it: at a = 2, dropping the a from the lower piece's
        # bound (a (1/a - s))^(beta-1), from the upper piece's (a (1/a -
        # s))^beta or from its 1 / (a beta) moves it by about 5, 12 and
        # 30 standard errors
        n = 16000
        spec = CoRMSpec(1, 0.4, marginal)
        proposals = _proposals(marginal, 0.4, low, w)
        assert not proposals.on_power[0]
        split, top = float(proposals.splits[0]), _support_end(spec)
        tilt = lambda z: math.exp(-w * (z - low))
        upper = _quadpack_mass(spec, tilt, split, top)
        share = upper / (upper + _quadpack_mass(spec, tilt, low, split))
        state = _pool_state(n, low, w)
        update_jump_heights(state, spec, np.random.default_rng(2100))
        spread = math.sqrt(n * share * (1.0 - share))
        assert abs(np.count_nonzero(state.jumps > split) - n * share) \
            < 4.0 * spread

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
        spec = CoRMSpec(1, phi, marginal)
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

    @pytest.mark.parametrize('n, first', [(5, 35), (50, 50)])
    def test_first_round_holds_at_least_32(self, monkeypatch, n, first):
        # a round holds at least _ROUND_LEAST = 32 proposals: 7 each for 5
        # pending jumps, and one each for 32 or more, as before
        sizes = _proposal_sizes(monkeypatch)
        spec = CoRMSpec.from_marginal(1, 1.0, GEN_GAMMA)
        update_jump_heights(_pool_state(n, self.LOW, 10.0), spec,
                            np.random.default_rng(5))
        assert sizes[0] == first

    @pytest.mark.parametrize('marginal, phi, w', [
        (GEN_GAMMA, 1.0, 0.1), (GAMMA, 2.0, 1e3)],
        ids=['power', 'exponential'])
    def test_small_pools(self, monkeypatch, marginal, phi, w):
        # 3,000 redraws of a 3-jump pool, each starting with a round of 11
        # proposals a jump, draw the conditional: pooled, the heights pass
        # a KS test against it
        sizes = _proposal_sizes(monkeypatch)
        low = self.LOW
        assert _proposals(marginal, phi, low, w).on_power[0] == (w < 1.0)
        spec = CoRMSpec(1, phi, marginal)
        rng = np.random.default_rng(2300)
        heights = []
        for _ in range(3000):
            del sizes[:]
            state = _pool_state(3, low, w)
            update_jump_heights(state, spec, rng)
            assert sizes[0] == 33
            heights.append(state.jumps)
        xs = np.sort(np.concatenate(heights))
        top = _support_end(spec)
        assert low < xs[0] and xs[-1] < top
        cdf, _ = _cdf_at_draws(spec, lambda z: np.exp(-w * (z - low)), low,
                               top, xs)
        assert _ks_p_value(cdf) > 0.01

    @pytest.mark.parametrize('w', [1e-100, 1e-170, 1e-300])
    def test_tiny_weights(self, w):
        # gg(0.3, 1) at shape 0.3 (beta 0.6): from w = 1e-170, x = w (1/a -
        # low) is so small that x^2, the split width and the lower
        # piece's span underflow to 0, and the span's log comes from its
        # small-weight limit, with no warning.  The tilt is 1 to double
        # precision, so the heights follow nu* on (low, 1/a)
        spec, low = CoRMSpec(1, 0.3, GEN_GAMMA), 1e-3
        state = _pool_state(2000, low, w)
        with warnings.catch_warnings():
            warnings.simplefilter('error')
            update_jump_heights(state, spec, np.random.default_rng(2400))
        xs = np.sort(state.jumps)
        top = _support_end(spec)
        assert low < xs[0] and xs[-1] < top
        cdf, _ = _cdf_at_draws(spec, np.ones_like, low, top, xs)
        assert _ks_p_value(cdf) > 0.01

    def test_tiny_weight_exponential_envelope(self):
        # at w = 1e-300 the exponential envelope's lower piece has width 0
        # and its upper piece covers (low, 1/a) alone: forced onto it, the
        # draws still follow nu* there
        spec, low = CoRMSpec(1, 0.3, GEN_GAMMA), 0.3
        rng = np.random.default_rng(2500)
        with warnings.catch_warnings():
            warnings.simplefilter('error')
            proposals = slice_sampler._JumpHeightProposals(
                spec, np.full(2000, low), np.full(2000, 1e-300), rng)
            assert proposals.splits[0] == low
            proposals.on_power[:] = False
            xs = np.sort(slice_sampler._first_accepted(
                2000, proposals, str, rng))
        assert low < xs[0] and xs[-1] < _support_end(spec)
        cdf, _ = _cdf_at_draws(spec, np.ones_like, low, _support_end(spec),
                               xs)
        assert _ks_p_value(cdf) > 0.01


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
        spec = CoRMSpec(1, phi, marginal)
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
        spec = CoRMSpec(2, phi, marginal)
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
        spec = CoRMSpec(1, self.PHI, GAMMA)
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
        spec = CoRMSpec(2, self.PHI, GAMMA)
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
    support (0, 1/a), or (0, inf) for sigma-stable: a level that rounds
    up to 1/a gives the largest double below it.'''

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
        (STABLE, 1.0), (GEN_GAMMA_A2, 1.0),
    ], ids=['gamma-0.05', 'gg-1', 'gg-0.01', 'stable', 'gg-a2'])
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
        assert np.all((state.jumps > 0.0)
                      & (state.jumps < _support_end(spec)))


@pytest.mark.parametrize('n_start', [0, 2.5, -1],
                         ids=['zero', 'fraction', 'negative'])
def test_initial_state_rejects_n_start(n_start):
    data = Dataset([np.zeros(3), np.zeros(3)])
    spec = CoRMSpec.from_marginal(2, 1.0, GEN_GAMMA)
    with pytest.raises(ValueError, match='n_start'):
        initial_slice_state(data, spec, FlatKernel(),
                            np.random.default_rng(0), n_start=n_start)


def test_start_jumps_past_the_largest_group_are_pool_jumps():
    data = Dataset([np.zeros(3), np.zeros(3)])
    spec = CoRMSpec.from_marginal(2, 1.0, GEN_GAMMA)
    state = initial_slice_state(data, spec, FlatKernel(),
                                np.random.default_rng(0), n_start=5)
    state.check()
    assert state.counts.sum(axis=1).tolist() == [2, 2, 2, 0, 0]


def test_shape_step_needs_a_log_prior():
    data = Dataset([np.zeros(3), np.zeros(3)])
    spec = CoRMSpec.from_marginal(2, 1.0, GEN_GAMMA)
    rng = np.random.default_rng(6)
    state = initial_slice_state(data, spec, FlatKernel(), rng, n_start=2)
    generator = rng.bit_generator.state
    with pytest.raises(ValueError, match='log_prior'):
        slice_sweep(state, data, spec, FlatKernel(), rng,
                    [(AdaptiveStepSize(), AdaptiveStepSize())] * 2,
                    shape_step=AdaptiveStepSize())
    # raised up front: nothing was drawn
    assert rng.bit_generator.state == generator


@pytest.mark.parametrize('marginal', [GAMMA, GEN_GAMMA, STABLE,
                                      GEN_GAMMA_A2],
                         ids=['gamma', 'generalized-gamma', 'sigma-stable',
                              'gg-a2'])
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


# the update stages of slice_sweep in its order, one update_v_interweaving
# a group
SWEEP_STAGES = ('update_allocations_slice', 'update_atoms_slice',
                'update_jump_heights', 'update_scores', 'birth_death_move',
                'update_u_and_repopulate', 'update_v_interweaving',
                'update_v_interweaving', 'update_hyperparameters_slice')


@pytest.mark.parametrize('marginal', [GAMMA, GEN_GAMMA, STABLE,
                                      GEN_GAMMA_A2],
                         ids=['gamma', 'generalized-gamma', 'sigma-stable',
                              'gg-a2'])
def test_every_stage_keeps_invariants(monkeypatch, marginal):
    # each stage the sweep calls is wrapped to check the state after it,
    # so a stage that breaks an invariant is named, not the sweep
    ran = []

    def checked(name, stage):
        def run(state, *args):
            out = stage(state, *args)
            state.check()
            ran.append(name)
            return out
        return run

    rng = np.random.default_rng(23)
    data = _two_groups(rng, 20)
    kernel = UnivariateNormalGamma.from_data(data.stacked())
    spec = CoRMSpec.from_marginal(2, 1.0, marginal)
    # the start calls update_atoms_slice before its slice latents exist
    state = initial_slice_state(data, spec, kernel, rng, n_start=4)
    for name in set(SWEEP_STAGES):
        monkeypatch.setattr(slice_sampler, name,
                            checked(name, getattr(slice_sampler, name)))
    v_steps = [(AdaptiveStepSize(), AdaptiveStepSize()) for _ in range(2)]
    shape_step, cache = AdaptiveStepSize(), {}
    for _ in range(20):
        ran.clear()
        spec = slice_sweep(state, data, spec, kernel, rng, v_steps,
                           shape_step, lambda phi: -phi, cache)
        assert tuple(ran) == SWEEP_STAGES


@pytest.mark.parametrize('marginal', [GAMMA, GEN_GAMMA, STABLE,
                                      GEN_GAMMA_A2],
                         ids=['gamma', 'generalized-gamma', 'sigma-stable',
                              'gg-a2'])
def test_sweeps_at_a_small_shape_keep_jumps_inside(monkeypatch, marginal):
    # at shape 0.3, beta = 0.3 or 0.6 < 1 (1 for sigma-stable): every
    # redrawn jump lies strictly between its largest slice latent (or the
    # threshold) and the end 1/a of the support, inf for sigma-stable
    redraw = slice_sampler.update_jump_heights
    redrawn = []

    def checked(state, spec, rng):
        lows = np.full(state.n_jumps, state.threshold)
        for j, c in enumerate(state.allocations):
            np.maximum.at(lows, c, state.u[j])
        redraw(state, spec, rng)
        assert np.all((lows < state.jumps)
                      & (state.jumps < _support_end(spec)))
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
    spec = CoRMSpec(2, 0.4, GAMMA)
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



def test_chain_across_the_series_switch():
    # from shape 50 under the weak log prior -0.01 shape, the v and shape
    # moves evaluate psi_L on both sides of the series rate: each residual
    # in the memo matches a rule on fresh nodes, the memo's RuleNodes of a
    # spec lay out node terms only where one of its residuals took the
    # rule, and the state keeps its invariants after every sweep
    rng = np.random.default_rng(40)
    data = _two_groups(rng, 15)
    kernel = UnivariateNormalGamma.from_data(data.stacked())
    spec = CoRMSpec.from_marginal(2, 50.0, GEN_GAMMA)
    state = initial_slice_state(data, spec, kernel, rng, n_start=4)
    v_steps = [(AdaptiveStepSize(), AdaptiveStepSize()) for _ in range(2)]
    shape_step, cache = AdaptiveStepSize(), {}
    paths = []
    for _ in range(30):
        spec = slice_sweep(state, data, spec, kernel, rng, v_steps,
                           shape_step, lambda phi: -0.01 * phi, cache)
        state.check()
        L = cache['L']
        ruled = {}
        for key, value in cache.items():
            if key[0] == 'residual':
                _, sp, v = key
                v = np.frombuffer(v)
                assert value == pytest.approx(
                    TiltRule(sp, v, RuleNodes(sp, L)).psi(), rel=1e-13)
                rule = slice_sampler._series_rate(sp, v.tolist(), L) \
                    > slice_sampler._SERIES_RATE
                ruled[sp] = ruled.get(sp, False) or rule
                paths.append(rule)
        for sp, rule in ruled.items():
            assert bool(cache[('threshold', sp)][1]._terms) == rule
    assert 0 < sum(paths) < len(paths)


def _tail_chain(cache, sweeps=8):
    '''A generalized-gamma slice chain run with the cache dict given (None:
    none), with its tail_integral calls per sweep.'''
    rng = np.random.default_rng(33)
    data = _two_groups(rng, 30)
    kernel = UnivariateNormalGamma.from_data(np.concatenate(data.groups))
    spec = CoRMSpec.from_marginal(
        2, 1.0, MarginalFamily.generalized_gamma(0.3, 1.0))
    state = initial_slice_state(data, spec, kernel, rng, n_start=4)
    v_steps = [(AdaptiveStepSize(), AdaptiveStepSize()) for _ in range(2)]
    shape_step = AdaptiveStepSize()
    calls, per_sweep = [], []
    original = LevyIntensity.tail_integral

    def counted(nu, x):
        calls.append(x)
        return original(nu, x)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(LevyIntensity, 'tail_integral', counted)
        for _ in range(sweeps):
            before = len(calls)
            spec = slice_sweep(state, data, spec, kernel, rng, v_steps,
                               shape_step, lambda phi: -phi, cache)
            per_sweep.append(len(calls) - before)
    return state, spec, per_sweep


def test_birth_death_reads_the_shape_moves_tail_mass():
    # the shape move evaluates U(L) for the kept spec at the threshold
    # that the next sweep's birth-death move reads, since repopulation
    # comes before it: from the second sweep on, the birth-death move
    # takes it from the cache, and a sweep makes the shape move's two
    # tail_integral calls instead of three.  The value is the same
    # double, so the chain is the one run without a cache
    state, spec, per_sweep = _tail_chain({})
    assert per_sweep == [3] + [2] * (len(per_sweep) - 1)
    bare, bare_spec, bare_per_sweep = _tail_chain(None)
    assert bare_per_sweep == [3] * len(per_sweep)
    assert spec.shape == bare_spec.shape
    for name in ('jumps', 'scores', 'counts', 'v'):
        np.testing.assert_array_equal(getattr(state, name),
                                      getattr(bare, name))
    for u, bare_u in zip(state.u, bare.u):
        np.testing.assert_array_equal(u, bare_u)


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


def test_threshold_memo_is_emptied_when_the_threshold_moves():
    # the birth-death move leaves U(L) in the memo; a v move at a lower
    # threshold empties it and keeps its own residuals there
    state, _, kernel = _hand_state()
    spec = CoRMSpec.from_marginal(1, 1.0, MarginalFamily.gamma())
    rng, cache = np.random.default_rng(5), {}
    L = state.threshold
    slice_sampler.birth_death_move(state, spec, kernel, rng, cache)
    assert cache['L'] == L
    assert cache[('tail', spec)] == spec.directing.tail_integral(L)
    state.u[0][0] = 0.03
    update_v_interweaving(state, spec, 0, (AdaptiveStepSize(),
                                           AdaptiveStepSize()), rng, cache)
    assert cache['L'] == 0.03 and ('tail', spec) not in cache
    v = state.v.tobytes()
    assert cache[('residual', spec, v)] == residual_laplace(spec, state.v,
                                                            0.03)


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
