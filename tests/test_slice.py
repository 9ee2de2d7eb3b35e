'''Slice sampler: the sub-threshold integrals against closed forms, and
short chains that keep the state invariants.'''

import math

import numpy as np
import pytest
from scipy import stats

from corm.core import CoRMSpec, MarginalFamily
from corm.kernels import Dataset, UnivariateNormalGamma
from corm.marginal_sampler import AdaptiveStepSize
from corm.slice_sampler import (
    _residual_weight,
    _tilted_mass,
    initial_slice_state,
    residual_laplace,
    sample_tilted_z,
    slice_sweep,
)


@pytest.fixture(scope='module')
def unit_gamma_2d():
    return CoRMSpec.from_marginal(2, 1.0, MarginalFamily.gamma())


class TestSubThresholdIntegrals:
    '''With v = (v1, 0) the second group drops out, so the d = 2
    quadratures must equal the unit-shape gamma d = 1 closed forms: the
    directing density is 1/z on (0, 1).'''

    V1 = 1.7

    @pytest.mark.parametrize('L', [1e-6, 0.01, 0.4, 1.0])
    def test_residual_laplace(self, unit_gamma_2d, L):
        # int_0^L (1 - 1/(1 + v z)) / z dz = log(1 + v L)
        got = residual_laplace(unit_gamma_2d, [self.V1, 0.0], L)
        assert got == pytest.approx(math.log1p(self.V1 * L), rel=1e-10)

    @pytest.mark.parametrize('lo, hi', [(1e-7, 1e-3), (0.01, 0.02),
                                        (0.2, 0.9)])
    def test_tilted_mass(self, unit_gamma_2d, lo, hi):
        # int_lo^hi 1 / (z (1 + v z)) dz
        v = self.V1
        want = math.log(hi * (1.0 + v * lo) / (lo * (1.0 + v * hi)))
        got = _tilted_mass(unit_gamma_2d, [v, 0.0], lo, hi)
        assert got == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize('L', [1e-6, 0.01, 0.4, 1.0])
    def test_residual_weight(self, unit_gamma_2d, L):
        # int_0^L (1 + v z)^-2 dz = L / (1 + v L)
        got = _residual_weight(unit_gamma_2d, [self.V1, 0.0], 0, L)
        assert got == pytest.approx(L / (1.0 + self.V1 * L), rel=1e-10)


_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)
TILTED_CASES = [(marginal, phi, lo, hi)
                for marginal in (MarginalFamily.gamma(),
                                 MarginalFamily.generalized_gamma(0.3, 1.0))
                for phi in (0.4, 2.0)
                for lo, hi in ((1e-4, 1e-2), (0.2, 0.9), (0.1, 0.101))]


class TestTiltedDraw:
    '''sample_tilted_z against the CDF of nu*(z) prod_j (1 + v_j z)^-phi
    on (lo, hi): a Kolmogorov-Smirnov test on 2,000 draws per case.'''

    V = np.array([0.5, 2.0])

    @staticmethod
    def tilted_cdf(spec, v, lo, hi, xs):
        # 16-point Gauss-Legendre in log z between consecutive sorted
        # draws; the total is checked against _tilted_mass
        ends = np.log(np.concatenate([[lo], xs, [hi]]))
        half = 0.5 * np.diff(ends)[:, None]
        z = np.exp(ends[:-1, None] + half * (1.0 + _GL_X))
        tilt = np.prod((1.0 + v[:, None, None] * z) ** -spec.shape, axis=0)
        cum = np.cumsum(half[:, 0] * ((spec.directing.density(z) * z
                                       * tilt) @ _GL_W))
        assert cum[-1] == pytest.approx(_tilted_mass(spec, v, lo, hi),
                                        rel=1e-8)
        return cum[:-1] / cum[-1]

    @pytest.mark.parametrize('case', range(len(TILTED_CASES)))
    def test_kolmogorov_smirnov(self, case):
        marginal, phi, lo, hi = TILTED_CASES[case]
        spec = CoRMSpec.from_marginal(2, phi, marginal, verify=False)
        rng = np.random.default_rng(1000 + case)
        xs = np.sort([sample_tilted_z(spec, lo, hi, self.V, rng)
                      for _ in range(2000)])
        assert lo <= xs[0] and xs[-1] <= hi
        cdf = self.tilted_cdf(spec, self.V, lo, hi, xs)
        n = xs.size
        k = np.arange(1, n + 1)
        d = max(np.max(k / n - cdf), np.max(cdf - (k - 1) / n))
        assert stats.kstwo.sf(d, n) > 0.01


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
