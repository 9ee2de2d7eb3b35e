'''Tests for TiltRule, the trapezoid rule behind log kappa and psi.

The oracle is mpmath.quad at 20 digits in the variable u of the rule
(z = U / (1 + e^-u) on a finite support (0, U), z = e^u on an infinite
one), with the directing densities written out here from their
formulas.  The range is broken at the integrand's peak plus and minus
powers of two times its width: a fixed breakpoint list silently loses
digits on a sharp peak that falls between two of its points.

The slice sampler's integrals below its threshold, and the mean count
of its repopulation births on a band, have their own oracle,
stretch_oracle: mpmath.quad's tanh-sinh claimed 1e-53 on such bands
while off by 1e-12.
'''

import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.special import gammaincc, gammaln

from corm import core
from corm import marginal_sampler as ms
from corm.core import (
    CoRMSpec,
    MarginalFamily,
    RuleNodes,
    TiltRule,
    directing_from_marginal,
    log_kappa,
    marginal_intensity,
)
from corm.kernels import Dataset, UnivariateNormalGamma
from corm.numerics import QuadratureError
from corm.slice_sampler import (
    _residual_weights,
    _tilted_births,
    residual_laplace,
)

SRC = str(Path(core.__file__).resolve().parent.parent)

FAMILIES = {
    'gamma': MarginalFamily.gamma(),
    'gg1': MarginalFamily.generalized_gamma(0.3, 1.0),
    'gg2': MarginalFamily.generalized_gamma(0.3, 2.0),
    'stable': MarginalFamily.sigma_stable(0.5),
    'gg9': MarginalFamily.generalized_gamma(0.9, 1.0),
}


def make_spec(family, shape, dimension=2):
    return CoRMSpec(dimension, shape, FAMILIES[family])


def directing_log_density(marginal, shape):
    '''(upper end, log nu*(z, gap, lib)) of the directing intensity.'''
    if marginal.kind == 'gamma':
        return 1.0, lambda z, gap, lib: (shape * lib.log(gap)
                                         - lib.log(gap) - lib.log(z))
    sigma = marginal.sigma
    lc = (math.log(sigma) + gammaln(shape) - gammaln(shape + sigma)
          - gammaln(1 - sigma))
    if marginal.kind == 'sigma-stable':
        return math.inf, lambda z, gap, lib: lc - (1 + sigma) * lib.log(z)
    rate, beta = marginal.a, sigma + shape
    return 1.0 / rate, lambda z, gap, lib: (
        lc - (1 + sigma) * lib.log(z) + (beta - 1) * lib.log(rate * gap))


def log_integral_oracle(spec, log_weight):
    '''log int weight(z) nu*(z) dz; log_weight(z, lib) with lib numpy
    or mpmath.'''
    upper, log_nu = directing_log_density(spec.marginal, spec.shape)

    def log_f(u, lib):
        if math.isinf(upper):
            z, gap, log_jac = lib.exp(u), None, u
        else:
            z = upper / (1 + lib.exp(-u))
            gap = upper / (1 + lib.exp(u))
            log_jac = lib.log(z) + lib.log(gap) - math.log(upper)
        return log_jac + log_nu(z, gap, lib) + log_weight(z, lib)

    grid = np.linspace(-160.0, 160.0, 6401)
    with np.errstate(all='ignore'):
        vals = log_f(grid, np)
    peak = float(grid[np.argmax(np.where(np.isfinite(vals), vals, -np.inf))])
    d = 1e-3
    curv = -(log_f(peak + d, np) - 2 * log_f(peak, np)
             + log_f(peak - d, np)) / d ** 2
    width = 1.0 / math.sqrt(curv) if curv > 1e-4 else 100.0
    breaks = [peak]
    k = 0.5
    while peak - k * width > -160.0 or peak + k * width < 160.0:
        breaks = [peak - k * width] + breaks + [peak + k * width]
        k *= 2.0
    with mpmath.workdps(20):
        top = log_f(mpmath.mpf(peak), mpmath)
        val = mpmath.quad(lambda u: mpmath.exp(log_f(u, mpmath) - top),
                          [-mpmath.inf] + [mpmath.mpf(b) for b in breaks]
                          + [mpmath.inf])
        return float(top + mpmath.log(val))


def log_kappa_oracle(spec, a, v):
    shape = spec.shape

    def log_weight(z, lib):
        out = sum(a) * lib.log(z)
        for aj, vj in zip(a, v):
            out = out - (aj + shape) * lib.log1p(vj * z)
        return out

    return log_integral_oracle(spec, log_weight) + float(
        np.sum(gammaln(np.asarray(a) + shape) - gammaln(shape)))


def psi_oracle(spec, v):
    def log_weight(z, lib):
        t = sum(lib.log1p(vj * z) for vj in v)
        return lib.log(-lib.expm1(-spec.shape * t))

    return math.exp(log_integral_oracle(spec, log_weight))


# (family, shape, v, counts): the corners of shape in {1e-5, 1, 50}, v
# from 1e-3 to 1e4 with zero entries, and counts up to 1e4 per group
CORNERS = [
    ('gamma', 1e-5, (1e-3, 0.0), (1, 0)),
    ('gamma', 1.0, (1e4, 1e4), (10000, 10000)),
    ('gamma', 50.0, (1e-3, 1e4), (3, 2)),
    ('gamma', 1.0, (0.0, 80.0), (60, 60)),
    ('gg1', 1e-5, (1e4, 0.0), (95, 95)),
    ('gg1', 1.0, (1000.0, 2000.0), (3, 2)),
    ('gg1', 50.0, (1e-3, 1e-3), (10000, 1)),
    ('gg2', 1e-5, (80.0, 3900.0), (1, 10000)),
    ('gg2', 1.0, (1e-3, 0.0), (0, 1)),
    ('gg2', 50.0, (1e4, 1e4), (95, 95)),
    ('stable', 1e-5, (1e-3, 1e4), (1, 0)),
    ('stable', 1.0, (1.0, 0.0), (3, 0)),
    ('stable', 50.0, (1e4, 1e-3), (10000, 10000)),
    ('stable', 1.0, (80.0, 3900.0), (60, 60)),
    ('stable', 1e-5, (1.0, 0.0), (2, 0)),
]


class TestTiltRuleOracle:

    @pytest.mark.parametrize('family, shape, v, a', CORNERS)
    def test_log_kappa(self, family, shape, v, a):
        spec = make_spec(family, shape)
        got = TiltRule(spec, v).log_kappa(a)
        assert abs(got - log_kappa_oracle(spec, a, v)) <= 1e-8

    @pytest.mark.parametrize('family, shape, v, a', CORNERS[::2])
    def test_psi(self, family, shape, v, a):
        spec = make_spec(family, shape)
        assert TiltRule(spec, v).psi() == pytest.approx(
            psi_oracle(spec, v), rel=1e-12)

    @pytest.mark.parametrize('shape', [1e-5, 1.0, 50.0])
    def test_psi_closed_forms(self, shape):
        # the marginal exponent in one coordinate: log(1 + v) for the
        # gamma, v^sigma for the sigma-stable.  The rule's mass near 1
        # scales as 1/shape, so its end series needs the exact rate
        # shape there, not (shape - 1) + 1 in doubles
        gamma = make_spec('gamma', shape, dimension=1)
        stable = make_spec('stable', shape, dimension=1)
        for v in (1e-3, 1.0, 1e4):
            assert TiltRule(gamma, [v]).psi() == pytest.approx(
                math.log1p(v), rel=1e-12)
            assert TiltRule(stable, [v]).psi() == pytest.approx(
                v ** 0.5, rel=1e-12)

    def test_coarse_step_raises(self, monkeypatch):
        # a wide peak width keeps the first step at _DE_STEP
        monkeypatch.setattr(core, '_DE_STEP', 1.0)
        monkeypatch.setattr(core, '_DE_WIDTH', 1.0)
        monkeypatch.setattr(core, '_DE_HALVINGS', 0)
        spec = make_spec('gg1', 0.01)
        rule = TiltRule(spec, [300.0, 500.0])
        assert rule.h == 1.0
        with pytest.raises(QuadratureError):
            rule.log_kappa((60, 60))
        with pytest.raises(QuadratureError):
            rule.psi()

    def test_coarse_step_general_weight_raises(self, monkeypatch):
        # a score survival factor Q(shape, x/z), as in the Levy copula,
        # on a rule built at the tilt 1/x that its scale x asks for
        monkeypatch.setattr(core, '_DE_STEP', 1.0)
        monkeypatch.setattr(core, '_DE_HALVINGS', 0)
        spec = make_spec('gg1', 0.01)
        x = 1e-3
        rule = TiltRule(spec, [1.0 / x, 1.0 / x])

        def log_weight(log_z):
            with np.errstate(divide='ignore'):
                return np.log(gammaincc(spec.shape, x * np.exp(-log_z)))

        with pytest.raises(QuadratureError) as err:
            rule.log_integral(log_weight, None)
        assert err.value.best.evaluations == rule.log_z.size

    def test_divergence_errors(self):
        stable = make_spec('stable', 1.0)
        with pytest.raises(ValueError, match='tail'):
            TiltRule(stable, [1.0, 0.0]).log_kappa((0, 2))
        with pytest.raises(ValueError, match='lower endpoint'):
            TiltRule(make_spec('gamma', 1.0), [1.0, 1.0]).log_kappa((0, 0))
        with pytest.raises(ValueError, match='length'):
            TiltRule(stable, [1.0])
        with pytest.raises(ValueError, match='nonnegative'):
            TiltRule(stable, [1.0, -1.0])

    @pytest.mark.parametrize('bad', [math.nan, math.inf])
    @pytest.mark.parametrize('family', ['gg1', 'stable'])
    def test_tilt_must_be_finite(self, family, bad):
        # a NaN tilt would reach the rule's error check as a misleading
        # QuadratureError, an infinite one an OverflowError in the node
        # shift
        with pytest.raises(ValueError, match='finite'):
            TiltRule(make_spec(family, 1.0), [1.0, bad])

    @pytest.mark.parametrize('family', ['gamma', 'gg1', 'stable'])
    def test_intensity_without_log_density(self, family):
        # an intensity without a log_density (the marginals' own) falls
        # back to log(density): the closed form where the density is a
        # normal double, and -inf, silently, where it rounds to 0
        marginal = FAMILIES[family]
        nu = marginal_intensity(marginal)
        s = np.geomspace(1e-6, 1e2, 30)
        if marginal.kind == 'gamma':
            want = -s - np.log(s)
        else:
            sigma = marginal.sigma
            want = (math.log(sigma) - gammaln(1.0 - sigma)
                    - (1.0 + sigma) * np.log(s) - (marginal.a or 0.0) * s)
        gap = np.full_like(s, np.inf)
        np.testing.assert_allclose(nu.log_density(s, gap), want, rtol=1e-13)
        if marginal.kind != 'sigma-stable':
            with np.errstate(divide='raise', invalid='raise'):
                assert nu.log_density(np.array([800.0]), gap[:1])[0] \
                    == -math.inf

    @pytest.mark.parametrize('family', sorted(FAMILIES))
    def test_log_density_matches_density(self, family):
        nu = directing_from_marginal(FAMILIES[family], 1.7)
        upper = nu.support[1]
        z = (np.geomspace(1e-6, 1e3, 40) if math.isinf(upper)
             else upper * np.linspace(0.001, 0.999, 40))
        got = nu.log_density(z, upper - z)
        assert np.allclose(got, np.log(nu.density(z)), rtol=1e-13,
                           atol=1e-13)



# (shape, v, counts) of kappa misses from marginal-400 chains on the
# generalized gamma (0.3, 1) whose peaks lie far from u = 0, where
# double-exponential nodes centred there fail the sub-rule check
HARD_KAPPA = [
    (26.17, (2.1, 43.7), (0, 92)),
    (26.17, (2.1, 43.7), (1, 21)),
    (0.749, (1.5, 2046.5), (0, 106)),
    (0.749, (1.5, 2046.5), (95, 0)),
    (14.77, (190.1, 162.7), (62, 0)),
    (1.20, (426.7, 1.4), (1, 124)),
]

# (family, shape) whose integrand decays slowly in u at an end: the
# upper rate beta = shape of the gamma, shape + 0.3 at the smallest shape
# of the marginal-400 chains, and psi's lower rate 1 - sigma = 0.1
SLOW_ENDS = [('gamma', 0.02), ('gamma', 0.05), ('gg1', 0.013), ('gg9', 1.0)]


class TestHardCases:
    '''log kappa and psi where the node layout is tested hardest,
    against mpmath.'''

    @pytest.mark.parametrize('shape, v, a', HARD_KAPPA)
    def test_chain_kappa(self, shape, v, a):
        spec = make_spec('gg1', shape)
        rule = TiltRule(spec, v)
        assert abs(rule.log_kappa(a) - log_kappa_oracle(spec, a, v)) <= 1e-12
        assert rule.psi() == pytest.approx(psi_oracle(spec, v), rel=1e-12)

    def test_failed_check_halves_the_step(self):
        # 400 members of the group at v = 1.5 put the peak near z = 1,
        # far from the nodes' centre at the large v = 3000 of the other;
        # at d shape <= 2.9 the first step is _DE_STEP itself
        spec = make_spec('gg1', 1.0)
        v, a = (1.5, 3000.0), (400, 0)
        rule = TiltRule(spec, v)
        with pytest.raises(QuadratureError):
            TiltRule.log_kappa.__wrapped__(rule, a)
        assert abs(rule.log_kappa(a) - log_kappa_oracle(spec, a, v)) <= 1e-12
        assert rule.finer.h == rule.h / 2

    def test_failed_check_halves_the_step_on_an_infinite_support(self):
        # at shape 5 the kappa integrand of a few members peaks near z =
        # 1/v_max = 1e-4, 16 units of u below the nodes' centre at 1/v_min,
        # where the base nodes are 0.28 apart
        spec = make_spec('stable', 5.0)
        v, a = (1e4, 1e-3), (3, 2)
        rule = TiltRule(spec, v)
        with pytest.raises(QuadratureError):
            TiltRule.log_kappa.__wrapped__(rule, a)
        assert rule.log_kappa(a) == pytest.approx(
            log_kappa_oracle(spec, a, v), rel=1e-14, abs=0.0)
        assert rule.finer.h == rule.h / 2

    def test_large_shape_on_an_infinite_support(self):
        # at shape 1e4 the kappa integrand peaks near z = 1/v_max within
        # about 0.02 in u, 16 units of u below the nodes' centre: the base
        # step shrinks as 1/sqrt(d shape)
        spec = make_spec('stable', 1e4)
        v, a = (1e4, 1e-3), (300, 300)
        assert abs(TiltRule(spec, v).log_kappa(a)
                   - log_kappa_oracle(spec, a, v)) <= 1e-8

    @pytest.mark.parametrize('family, shape', SLOW_ENDS)
    def test_slow_end_rate(self, family, shape):
        spec = make_spec(family, shape)
        v = (30.0, 100.0)
        rule = TiltRule(spec, v)
        for a in ((1, 0), (60, 45)):
            assert abs(rule.log_kappa(a)
                       - log_kappa_oracle(spec, a, v)) <= 1e-12
        assert rule.psi() == pytest.approx(psi_oracle(spec, v), rel=1e-12)


class TestLargeShapes:
    '''Finite supports at score shapes up to 1e4, where the kappa
    integrand's peak is about 1/sqrt(d shape) wide in u: the first step
    shrinks with it, as on (0, inf).'''

    @pytest.mark.parametrize('family', ['gamma', 'gg1'])
    @pytest.mark.parametrize('dimension', [1, 2])
    def test_no_cell_raises(self, family, dimension):
        # at a first step of _DE_STEP on a finite support, 52 of these 384
        # calls raise QuadratureError
        for shape in (30.0, 100.0, 177.0, 300.0, 1e3, 3e3):
            spec = make_spec(family, shape, dimension)
            for v in (1e2, 1e4, 1e6, 1e8):
                rule = TiltRule(spec, [v] * dimension)
                for first in (200, 5, 1000):
                    counts = [first] + [0 if first == 200 else first] * (
                        dimension - 1)
                    assert math.isfinite(rule.log_kappa(counts))
                assert 0.0 < rule.psi() < math.inf

    @pytest.mark.parametrize('shape', [0.3, 3.0, 30.0, 300.0, 3e3, 1e4])
    def test_gamma_closed_form(self, shape):
        # one coordinate of a gamma marginal: kappa_a(v) = Gamma(a) (1 +
        # v)^-a.  log kappa is a sum of terms up to 5e4, where a double's
        # ulp is 7e-12, so the bound grows by 1e-15 of them
        spec = make_spec('gamma', shape, dimension=1)
        for v in (1e-3, 1.0, 1e3, 1e6, 1e8):
            rule = TiltRule(spec, [v])
            for a in (1, 30, 1000, 5000):
                terms = math.lgamma(a), a * math.log1p(v)
                assert abs(rule.log_kappa((a,)) - (terms[0] - terms[1])) \
                    <= 1e-11 + 1e-15 * max(terms)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)


def stretch_oracle(spec, v, lo, hi, weights):
    '''int_lo^hi w(z) nu*(z) dz for each w in weights(z), 0 <= lo < hi
    < U, with the integrands in mpmath at 30 digits: 20-point
    Gauss-Legendre in s = log(z / hi) on pieces of width at most 4 over
    which the log of an integrand moves by at most about 4 (at 8 the
    oracle itself was off by 2e-13).  Below (0, hi) the pieces
    stop where the tilts and nu*'s factor at U move the integrand from
    a power of z, z^(1 - sigma) for the weights used here, by under
    1e-12, and the rest is summed as that power.  weights(z) takes an
    mpmath number and returns a list of them.'''
    upper, log_nu = directing_log_density(spec.marginal, spec.shape)
    shape = spec.shape
    rate = 1.0 - (spec.marginal.sigma or 0.0)
    reach = (len(v) + 1.0) * shape + 2.0

    def width(s):
        z = hi * math.exp(s)
        slope = (1.0 + shape * sum(vj * z / (1.0 + vj * z) for vj in v)
                 + (shape + 1.0) * z / (upper - z))
        return min(4.0, 4.0 / slope)

    with mpmath.workdps(30):
        s_lo = (mpmath.log(mpmath.mpf(lo) / hi) if lo > 0.0 else
                math.log(1e-12 / (reach * max(1.0, *v) * hi)))
        ends = [mpmath.mpf(0)]
        while ends[-1] > s_lo:
            ends.append(max(ends[-1] - width(float(ends[-1])), s_lo))

        def f(s):
            z = hi * mpmath.exp(s)
            density = z * mpmath.exp(log_nu(z, upper - z, mpmath))
            return np.array([density * w for w in weights(z)])

        total = 0
        for b, a in zip(ends, ends[1:]):
            half = (b - a) / 2
            total = total + half * sum(w * f(a + half * (1 + x))
                                       for x, w in zip(_GL_NODES,
                                                       _GL_WEIGHTS))
        if lo == 0.0:
            total = total + f(ends[-1]) / rate
        return [float(t) for t in total]


def _log_tilt(v, shape, z):
    return -shape * mpmath.fsum(mpmath.log1p(vj * z) for vj in v)


SUB_SHAPES = [0.05, 1.0, 2.0, 20.0]
SUB_TILTS = [(0.5, 2.0), (30.0, 100.0), (1e-3, 5.0)]
SUB_LEVELS = [1e-6, 1e-3, 0.05, 0.9]
# the repopulation band (new threshold, old threshold); lo / hi = 1e-4
SUB_BANDS = [(5e-5, 0.5), (0.2, 0.9), (0.1, 0.101)]


class TestSubThresholdRule:
    '''The slice sampler's integrals over (0, L), each one TiltRule on
    RuleNodes, and the count of its repopulation births on (lo, hi),
    against stretch_oracle.'''

    @pytest.mark.parametrize('family', ['gamma', 'gg1'])
    @pytest.mark.parametrize('shape', SUB_SHAPES)
    def test_residual_and_weights(self, family, shape):
        spec = make_spec(family, shape)
        def weights(z):
            # the residual's bracket, then each group's weight
            log_tilt = _log_tilt(v, shape, z)
            tilted = shape * z * mpmath.exp(log_tilt)
            return [-mpmath.expm1(log_tilt)] + [tilted / (1 + vj * z)
                                                for vj in v]

        for v in SUB_TILTS:
            for L in SUB_LEVELS:
                want = stretch_oracle(spec, v, 0.0, L, weights)
                got = [residual_laplace(spec, v, L)]
                got += list(_residual_weights(spec, v, L))
                assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize('family', ['gamma', 'gg1'])
    @pytest.mark.parametrize('shape', SUB_SHAPES)
    def test_tilted_mass(self, family, shape):
        # the births are a Poisson process of intensity M nu*(z) prod_j
        # (1 + v_j z)^-shape: the mean and variance of their count on the
        # widest band, over 1,000 repeats at the largest tilt, are each
        # within 4 standard errors of M times its integral
        spec = CoRMSpec(2, shape, FAMILIES[family], centring_mass=2.0)
        v, (lo, hi) = SUB_TILTS[1], SUB_BANDS[0]
        (mass,) = stretch_oracle(
            spec, v, lo, hi, lambda z: [mpmath.exp(_log_tilt(v, shape, z))])
        want = spec.centring_mass * mass
        rng = np.random.default_rng(4100)
        counts = np.array([_tilted_births(spec, v, lo, hi, rng).size
                           for _ in range(1000)], dtype=float)
        n = counts.size
        assert abs(counts.mean() - want) < 4.0 * math.sqrt(want / n)
        # the variance of the sample variance is (want + 2 want^2) / n
        assert abs(counts.var(ddof=1) - want) \
            < 4.0 * math.sqrt((want + 2.0 * want ** 2) / n)

    @pytest.mark.parametrize('family', ['gamma', 'gg1'])
    @pytest.mark.parametrize('shape', [0.05, 2.0])
    def test_truncated_at_the_support_end_is_psi(self, family, shape):
        # at L = U the upper end has nu*'s own rate: the residual is the
        # whole-support psi, by a rule on its own RuleNodes(spec, U)
        # rather than the spec's shared ones
        spec = make_spec(family, shape)
        v = (30.0, 100.0)
        assert residual_laplace(spec, v, 1.0) == pytest.approx(
            TiltRule(spec, v).psi(), rel=1e-13)

    def test_value_does_not_depend_on_earlier_tilts(self):
        # a large v_max lays out the shared nodes of another shift; a
        # smaller v evaluated afterwards takes only its own nodes and
        # gives the same double as on fresh nodes
        spec = make_spec('gg1', 1.0)
        L = 0.05
        shared = RuleNodes(spec, L)
        large, small = (1e6, 3e6), (0.5, 2.0)
        assert not np.array_equal(shared.terms(max(large))[0],
                                  shared.terms(max(small))[0])
        for v in (large, small):
            assert residual_laplace(spec, v, L, shared) \
                == residual_laplace(spec, v, L)
            assert np.array_equal(
                TiltRule(spec, v, shared).psi_gradient(),
                _residual_weights(spec, v, L))

    @pytest.mark.parametrize('family', ['gamma', 'gg2'])
    def test_whole_support_value_does_not_depend_on_earlier_tilts(
            self, family):
        # TiltRule(spec, v) runs on the spec's own whole-support nodes: a
        # large v_max lays out those of another shift, and a smaller v
        # afterwards gives the same doubles as on a fresh, equal spec
        spec, fresh = make_spec(family, 1.0), make_spec(family, 1.0)
        large, small = (1e6, 3e6), (0.5, 2.0)
        TiltRule(spec, large).psi()
        assert not np.array_equal(spec.rule_nodes.terms(max(large))[0],
                                  fresh.rule_nodes.terms(max(small))[0])
        rule, fresh_rule = TiltRule(spec, small), TiltRule(fresh, small)
        for a in ((1, 0), (3, 2), (40, 60)):
            assert rule.log_kappa(a) == fresh_rule.log_kappa(a)
        assert rule.psi() == fresh_rule.psi()

    def test_rules_of_one_spec_share_the_node_terms(self, monkeypatch):
        calls = []

        def counted(*args, _terms=core._sigmoid_terms):
            calls.append(args)
            return _terms(*args)

        monkeypatch.setattr(core, '_sigmoid_terms', counted)
        spec = make_spec('gg1', 1.0)
        # v_max U = 30 and 40 both take the shift -round(log(v_max U) / 2)
        # = -2, so the second rule reads the first one's node terms
        first = TiltRule(spec, (20.0, 30.0))
        second = TiltRule(spec, (40.0, 5.0))
        assert len(calls) == 1
        assert np.array_equal(first.log_w, second.log_w)
        TiltRule(spec, (0.5, 0.9))
        assert len(calls) == 2

    def test_coarse_step_raises(self, monkeypatch):
        monkeypatch.setattr(core, '_DE_STEP', 1.0)
        monkeypatch.setattr(core, '_DE_HALVINGS', 0)
        spec = make_spec('gg1', 0.01)
        v = (300.0, 500.0)
        with pytest.raises(QuadratureError):
            residual_laplace(spec, v, 0.05)
        with pytest.raises(QuadratureError):
            _residual_weights(spec, v, 0.05)

    def test_nodes_must_match(self):
        spec = make_spec('gg1', 1.0)
        nodes = RuleNodes(spec, 0.05)
        with pytest.raises(ValueError, match='another spec'):
            TiltRule(make_spec('gg1', 1.0), [1.0, 2.0], nodes)
        with pytest.raises(ValueError, match='not truncated'):
            residual_laplace(spec, [1.0, 2.0], 0.04, nodes)
        with pytest.raises(ValueError, match='stretch'):
            RuleNodes(spec, 1.5)


def log_kappa_as_weight(rule, a):
    '''log kappa by the rule's general weight: the tilt prod_j (1 +
    v_j z)^(-a_j - shape) as one log_integral weight, the formula
    TiltRule.log_kappa used before its slope form.'''
    a = np.asarray(a, dtype=float)
    shape = rule.spec.shape
    total = float(a.sum())
    tail_power = total - float((a + shape) @ rule.positive)

    def log_tilt(log_z):
        # a function of log z, which the rule of half the step
        # (TiltRule.finer) takes at its own nodes
        return -((a + shape) @ np.log1p(np.multiply.outer(
            rule.v, np.exp(log_z))))

    return (rule.log_integral(log_tilt, total, tail_power)
            + float(np.sum(gammaln(a + shape) - gammaln(shape))))


def slope_form_tolerance(rule, a, value):
    '''1e-12 absolute up to the urn's counts (a few hundred).  At
    counts of 1e4, log Gamma(a_j + shape) and the log integral are each
    about 1e5 and cancel, and one ulp of either is 1.5e-11: the two
    formulas round them apart by a few ulp, so the bound there is 8 ulp
    of the largest term.'''
    if max(a) <= 400:
        return 1e-12
    log_gamma = float(np.sum(gammaln(np.asarray(a) + rule.spec.shape)))
    return 8.0 * np.spacing(abs(log_gamma) + abs(value))


# counts of marginal-400-sized clusters (200 + 200 observations)
URN_COUNTS = [(200, 150), (400, 0), (1, 199)]


class TestSlopeForm:
    '''TiltRule.log_kappa builds its node terms from the zero-count
    terms and one slope per group; it must give what the general weight
    gives, whatever it evaluated before.'''

    @pytest.mark.parametrize('family, shape, v, a', CORNERS)
    def test_corners_match_general_weight(self, family, shape, v, a):
        rule = TiltRule(make_spec(family, shape), v)
        got = rule.log_kappa(a)
        assert abs(got - log_kappa_as_weight(rule, a)) \
            <= slope_form_tolerance(rule, a, got)

    @pytest.mark.parametrize('v', [1e-3, 1.0, 80.0])
    def test_urn_counts_match_general_weight(self, v):
        spec = CoRMSpec.from_marginal(
            2, 1.0, MarginalFamily.generalized_gamma(0.3, 1.0))
        rule = TiltRule(spec, (v, v))
        for a in URN_COUNTS:
            assert abs(rule.log_kappa(a) - log_kappa_as_weight(rule, a)) \
                <= 1e-12

    @pytest.mark.parametrize('family', ['gamma', 'gg1'])
    @pytest.mark.parametrize('shape', [0.05, 2.0])
    def test_interval_rule_matches_general_weight(self, family, shape):
        # the rules on an interval (0, L) inside the support, truncated at
        # each end of the slice sampler's repopulation bands
        spec = make_spec(family, shape)
        for v in SUB_TILTS:
            for L in sorted(set(x for band in SUB_BANDS for x in band)):
                rule = TiltRule(spec, v, RuleNodes(spec, L))
                for a in ((1, 0), (3, 2)):
                    assert abs(rule.log_kappa(a)
                               - log_kappa_as_weight(rule, a)) <= 1e-12

    def test_counts_must_match_the_dimension(self):
        rule = TiltRule(make_spec('gg1', 1.0), (1.0, 2.0))
        with pytest.raises(ValueError, match='length 2'):
            rule.log_kappa((3,))

    @pytest.mark.parametrize('family, shape', [('gg1', 1.0),
                                               ('stable', 5.5)],
                             ids=['gg1', 'stable'])
    def test_value_does_not_depend_on_earlier_counts(self, family, shape):
        # log kappa, psi and its gradient at one (spec, v, a) are the same
        # doubles on a fresh rule, after the rule evaluated 50 other count
        # tuples, and in a fresh process: neither the matrix products nor
        # their rounding depend on history or on where the arrays lie.  On
        # (0, inf) at shape 5.5 the walk's (10000, 10000) is taken on the
        # rule of half the step, whose nodes the spec then holds
        spec = make_spec(family, shape)
        v = (300.0, 500.0)
        rng = np.random.default_rng(11)
        walk = [tuple(int(x) for x in rng.integers(0, 400, size=2))
                for _ in range(48)] + [(0, 1), (10000, 10000)]
        targets = [(1, 0), (60, 45), (200, 150), (0, 399)]
        fresh = [TiltRule(spec, v).log_kappa(a) for a in targets]
        fresh_psi = TiltRule(spec, v).psi()
        fresh_gradient = TiltRule(spec, v).psi_gradient().tolist()
        rule = TiltRule(spec, v)
        table = ms.KappaTable(spec, v)
        for a in walk:
            rule.log_kappa(a)
            table.log_kappa(a)
        assert [rule.log_kappa(a) for a in targets] == fresh
        assert rule.psi() == fresh_psi
        assert rule.psi_gradient().tolist() == fresh_gradient
        assert [table.log_kappa(a) for a in targets] == fresh
        assert [ms.KappaTable(spec, v).log_kappa(a) for a in targets] \
            == fresh
        program = '\n'.join((
            'from corm.core import CoRMSpec, MarginalFamily, TiltRule',
            'spec = CoRMSpec(2, %r, %r)'
            % (shape, FAMILIES[family]),
            'rule = TiltRule(spec, %r)' % (v,),
            'print([float.hex(rule.log_kappa(a)) for a in %r])' % targets,
            'print(float.hex(rule.psi()))',
            'print([float.hex(x) for x in rule.psi_gradient().tolist()])'))
        env = dict(os.environ)
        env['PYTHONPATH'] = os.pathsep.join(
            [SRC] + [p for p in [env.get('PYTHONPATH')] if p])
        out = subprocess.run([sys.executable, '-c', program], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split('\n')[:3] == [
            str([float.hex(x) for x in fresh]), float.hex(fresh_psi),
            str([float.hex(x) for x in fresh_gradient])]

    def test_table_counts_rule_evaluations(self):
        # a hand-built walk: every count tuple the table has not seen is
        # one evaluation, a repeat is a memo hit
        spec = make_spec('gg1', 1.0)
        table = ms.KappaTable(spec, (3.0, 5.0))
        assert table.evaluations == 0
        table.log_new_cluster(0)              # (1, 0)
        assert table.evaluations == 1
        table.log_ratio((1, 0), 1)            # (1, 1); (1, 0) seen
        assert table.evaluations == 2
        table.log_ratio((1, 1), 0)            # (2, 1); (1, 1) seen
        table.log_ratio((1, 0), 1)
        table.log_kappa((2, 1))
        assert table.evaluations == 3
        table.log_new_cluster(1)              # (0, 1)
        assert table.evaluations == 4
        assert table.evaluations == len(table._memo)
        # a one-group gamma table evaluates its closed form instead
        closed = ms.KappaTable(make_spec('gamma', 1.0, dimension=1), (2.0,))
        closed.log_ratio((3,), 0)
        closed.log_ratio((3,), 0)
        assert closed.evaluations == 2


def unclamped_log_sum(rule, log_f, rate_lo, rate_hi, low):
    '''TiltRule._log_sum without the clamp of the shifted log terms at
    -700: every term goes through exp as it is.  low collects the
    smallest shifted log term of each call.'''
    top = float(log_f.max())
    f = log_f - top
    low.append(float(f.min()))
    f = np.exp(f)
    full, half = rule._rule_pair(f, np.dot(rule._pair, f).tolist(), rate_lo,
                                 rate_hi)
    assert abs(math.log(full) - math.log(half)) <= 1e-9
    return top + math.log(full)


def test_clamped_terms_do_not_move_the_sum(monkeypatch):
    # _log_sum clamps the shifted log terms at -700 before exp; a term
    # below 1e-304 cannot move a sum that holds the top term 1.0, so
    # log kappa and log_integral are the very doubles the unclamped
    # formula gives, on a grid where terms underflow to 0
    cases = []
    for family, shape in (('gg1', 1.0), ('gg2', 0.3), ('gamma', 2.0),
                          ('stable', 0.5)):
        spec = make_spec(family, shape)
        for v in ((0.5, 2.0), (5.0, 5.0), (80.0, 3900.0)):
            rule = TiltRule(spec, v)
            for a in URN_COUNTS + [(1, 0), (0, 1), (30, 2)]:
                cases.append(lambda rule=rule, a=a: rule.log_kappa(a))
            for scale in (1e-3, 1.0):
                cases.append(lambda rule=rule, scale=scale: rule.log_integral(
                    lambda log_z: -np.exp(log_z) / scale, 1.0))
    clamped = [case() for case in cases]
    low = []
    monkeypatch.setattr(TiltRule, '_log_sum', lambda rule, *args:
                        unclamped_log_sum(rule, *args, low))
    assert [case() for case in cases] == clamped
    # exp underflows to 0 below about -745
    assert sum(x < -745.0 for x in low) > len(cases) // 2


class TestChainRegimes:
    '''Values where the marginal sampler's chains go, on the benchmark
    model: two groups, generalized-gamma marginal (sigma 0.3, a 1),
    score shape 1, at v reached by the 400-observation chains.'''

    V = (300.0, 500.0)

    @pytest.fixture(scope='class')
    def spec(self):
        return CoRMSpec.from_marginal(
            2, 1.0, MarginalFamily.generalized_gamma(0.3, 1.0))

    def test_kappa_table_small_counts(self, spec):
        # adaptive quadrature was off by 2.3e-2 here
        table = ms.KappaTable(spec, self.V)
        assert abs(table.log_kappa((3, 2))
                   - log_kappa_oracle(spec, (3, 2), self.V)) <= 1e-8

    def test_kappa_table_large_counts(self, spec):
        # the adaptive integrand turned non-finite here (ValueError)
        table = ms.KappaTable(spec, self.V)
        assert abs(table.log_kappa((60, 60))
                   - log_kappa_oracle(spec, (60, 60), self.V)) <= 1e-8

    @pytest.mark.parametrize('a', [(95, 95), (10000, 10000)])
    def test_log_kappa_past_double_range(self, spec, a):
        got = log_kappa(spec, a, self.V)
        assert math.isfinite(got)
        assert abs(got - log_kappa_oracle(spec, a, self.V)) <= 1e-8

    def test_table_psi_is_laplace_exponent(self, spec):
        table = ms.KappaTable(spec, self.V)
        assert table.psi == pytest.approx(psi_oracle(spec, self.V),
                                          rel=1e-12)

    def test_400_observation_chain(self, spec):
        # the data recipe of the benchmark's marginal-400 workload; with
        # adaptive quadrature this chain raised ValueError in sweep 8
        rng = np.random.default_rng(0)
        groups = []
        for means in ((-2.0, 2.0), (2.0, 5.0)):
            pick = rng.integers(2, size=200)
            groups.append(np.asarray(means)[pick]
                          + 0.5 * rng.standard_normal(200))
        data = Dataset(groups)
        kernel = UnivariateNormalGamma.from_data(data.stacked())
        state = ms.initial_state(data, spec, kernel, rng, n_start=4)
        v_steps = [ms.AdaptiveStepSize() for _ in range(2)]
        shape_step = ms.AdaptiveStepSize()
        current, table = spec, None
        for _ in range(10):
            current, table = ms.marginal_sweep(
                state, data, current, kernel, rng, v_steps, shape_step,
                lambda phi: -phi, table=table)
            state.check()
        assert state.counts.max() >= 60
