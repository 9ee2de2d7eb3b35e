'''Tests for TiltRule, the trapezoid rule behind log kappa and psi.

The oracle is mpmath.quad at 20 digits in the variable u of the rule
(z = U / (1 + e^-u) on a finite support (0, U), z = e^u on an infinite
one), with the directing densities written out here from their
formulas.  The range is broken at the integrand's peak plus and minus
powers of two times its width: a fixed breakpoint list silently loses
digits on a sharp peak that falls between two of its points.

The rules on a stretch of the support (the slice sampler's integrals
below its threshold and over its repopulation band) have their own
oracle, stretch_oracle: mpmath.quad's tanh-sinh claimed 1e-53 on such
bands while off by 1e-12.
'''

import math

import mpmath
import numpy as np
import pytest
from scipy.special import gammaincc, gammaln

from corm import core
from corm import marginal_sampler as ms
from corm.core import (
    CoRMSpec,
    LevyIntensity,
    MarginalFamily,
    RuleNodes,
    TiltRule,
    directing_from_marginal,
    log_kappa,
)
from corm.kernels import Dataset, UnivariateNormalGamma
from corm.numerics import QuadratureError
from corm.slice_sampler import (
    _residual_weights,
    _tilted_mass,
    residual_laplace,
)

FAMILIES = {
    'gamma': MarginalFamily.gamma(),
    'gg1': MarginalFamily.generalized_gamma(0.3, 1.0),
    'gg2': MarginalFamily.generalized_gamma(0.3, 2.0),
    'stable': MarginalFamily.sigma_stable(0.5),
}


def make_spec(family, shape, dimension=2):
    return CoRMSpec.from_marginal(dimension, shape, FAMILIES[family],
                                  verify=False)


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
        monkeypatch.setattr(core, '_STEP', 1.0)
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
        monkeypatch.setattr(core, '_STEP', 1.0)
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

    @pytest.mark.parametrize('family', ['gamma', 'gg1', 'stable'])
    def test_intensity_without_log_density(self, family):
        # a hand-built intensity falls back to log(density)
        spec = make_spec(family, 1.5)
        nu = spec.directing
        bare = CoRMSpec(2, spec.score, spec.marginal, LevyIntensity(
            nu.density, nu.support, nu.singularity_exponents))
        v = [3.0, 0.5]
        assert TiltRule(bare, v).psi() == pytest.approx(
            TiltRule(spec, v).psi(), rel=1e-12)
        assert TiltRule(bare, v).log_kappa((4, 2)) == pytest.approx(
            TiltRule(spec, v).log_kappa((4, 2)), abs=1e-12)

    @pytest.mark.parametrize('family', sorted(FAMILIES))
    def test_log_density_matches_density(self, family):
        nu = directing_from_marginal(FAMILIES[family], 1.7)
        upper = nu.support[1]
        z = (np.geomspace(1e-6, 1e3, 40) if math.isinf(upper)
             else upper * np.linspace(0.001, 0.999, 40))
        got = nu.log_density(z, upper - z)
        assert np.allclose(got, np.log(nu.density(z)), rtol=1e-13,
                           atol=1e-13)


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
    '''The slice sampler's integrals over (0, L) and (lo, hi), each one
    TiltRule on RuleNodes, against stretch_oracle.'''

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
        spec = make_spec(family, shape)
        for v in SUB_TILTS:
            for lo, hi in SUB_BANDS:
                (want,) = stretch_oracle(
                    spec, v, lo, hi,
                    lambda z: [mpmath.exp(_log_tilt(v, shape, z))])
                assert _tilted_mass(spec, v, lo, hi) == pytest.approx(
                    want, rel=1e-12)

    @pytest.mark.parametrize('family', ['gamma', 'gg1'])
    @pytest.mark.parametrize('shape', [0.05, 2.0])
    def test_truncated_at_the_support_end_is_psi(self, family, shape):
        # at L = U the upper end has nu*'s own rate: the residual is the
        # whole-support psi, by a rule with its nodes laid out from the
        # other end
        spec = make_spec(family, shape)
        v = (30.0, 100.0)
        assert residual_laplace(spec, v, 1.0) == pytest.approx(
            TiltRule(spec, v).psi(), rel=1e-13)

    def test_value_does_not_depend_on_earlier_tilts(self):
        # a large v_max grows the shared lattice; a smaller v evaluated
        # afterwards takes only its own nodes and gives the same double
        # as on fresh nodes
        spec = make_spec('gg1', 1.0)
        L = 0.05
        shared = RuleNodes(spec, L)
        large, small = (1e6, 3e6), (0.5, 2.0)
        assert shared.terms(max(large))[0].size \
            > shared.terms(max(small))[0].size
        for v in (large, small):
            assert residual_laplace(spec, v, L, shared) \
                == residual_laplace(spec, v, L)
            assert np.array_equal(
                TiltRule(spec, v, shared).psi_gradient(),
                _residual_weights(spec, v, L))

    def test_coarse_step_raises(self, monkeypatch):
        monkeypatch.setattr(core, '_STEP', 4.0)
        spec = make_spec('gg1', 0.01)
        v = (300.0, 500.0)
        with pytest.raises(QuadratureError):
            residual_laplace(spec, v, 0.05)
        with pytest.raises(QuadratureError):
            _residual_weights(spec, v, 0.05)
        with pytest.raises(QuadratureError):
            _tilted_mass(spec, v, 1e-4, 0.05)

    def test_nodes_must_match(self):
        spec = make_spec('gg1', 1.0)
        nodes = RuleNodes(spec, 0.05)
        with pytest.raises(ValueError, match='another spec'):
            TiltRule(make_spec('gg1', 1.0), [1.0, 2.0], nodes)
        with pytest.raises(ValueError, match='not truncated'):
            residual_laplace(spec, [1.0, 2.0], 0.04, nodes)
        with pytest.raises(ValueError, match='stretch'):
            RuleNodes(spec, 1.5)


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
