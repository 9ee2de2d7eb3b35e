'''Tests for the urn-style marginal sampler.

Oracles are independent of the package quadrature: the closed kappa
forms are re-derived here from the Laplace-exponent derivatives, the
quadrature fallback is checked against QUADPACK on the defining
integrand, and the urn conditional is checked against brute-force
enumeration of the partition posterior on tiny datasets.
'''

import itertools
import math

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import gammaln

from corm import marginal_sampler as ms
from corm.core import CoRMSpec, MarginalFamily
from corm.kernels import (
    Dataset,
    FlatKernel,
    MultivariateNormalNIW,
    UnivariateNormalGamma,
)
from corm.marginal_sampler import (
    AdaptiveStepSize,
    KappaTable,
    MarginalState,
    initial_state,
    marginal_sweep,
    update_allocation_conjugate,
    update_allocation_nonconjugate,
    update_atoms,
    update_shape_marginal,
    update_v_marginal,
)


def gamma_spec(dimension, shape, mass=1.0):
    return CoRMSpec.from_marginal(dimension, shape, MarginalFamily.gamma(),
                                  centring_mass=mass)


def kappa_quad_gamma(a, v, shape):
    '''QUADPACK oracle for the one-group gamma-marginal kappa integral,
    algebraic endpoint weights z^(a-1) (1-z)^(shape-1).'''
    const = math.exp(gammaln(shape + a) - gammaln(shape))

    def g(z):
        return (1.0 + v * z) ** -(shape + a)

    val, _ = integrate.quad(g, 0.0, 1.0, weight='alg',
                            wvar=(a - 1.0, shape - 1.0))
    return const * val


def kappa_quad_gamma_d2(a, v, shape):
    '''QUADPACK oracle for the two-group gamma-marginal kappa integral.'''
    a = np.asarray(a, dtype=float)
    v = np.asarray(v, dtype=float)
    const = math.exp(float(np.sum(gammaln(shape + a) - gammaln(shape))))

    def g(z):
        out = 1.0
        for aj, vj in zip(a, v):
            out = out * (1.0 + vj * z) ** -(shape + aj)
        return out

    val, _ = integrate.quad(g, 0.0, 1.0, weight='alg',
                            wvar=(float(a.sum()) - 1.0, shape - 1.0))
    return const * val


def kappa_quad_stable(a, v, shape, sigma):
    '''QUADPACK oracle for the one-group sigma-stable kappa integral.'''
    const = math.exp(gammaln(shape + a) - gammaln(shape)
                     + math.log(sigma) + gammaln(shape)
                     - gammaln(shape + sigma) - gammaln(1.0 - sigma))

    def f(z):
        return z ** (a - sigma - 1.0) * (1.0 + v * z) ** -(shape + a)

    val = integrate.quad(f, 0.0, 1.0)[0] + integrate.quad(f, 1.0, np.inf)[0]
    return const * val


def kappa_quad_gg(a, v, shape, sigma, rate):
    '''QUADPACK oracle for the one-group generalized-gamma kappa
    integral, weights z^(a-sigma-1) (1/rate - z)^(sigma+shape-1).'''
    beta = sigma + shape
    const = math.exp(gammaln(shape + a) - gammaln(shape)
                     + math.log(sigma) + gammaln(shape)
                     - gammaln(shape + sigma) - gammaln(1.0 - sigma)
                     + (beta - 1.0) * math.log(rate))

    def g(z):
        return (1.0 + v * z) ** -(shape + a)

    val, _ = integrate.quad(g, 0.0, 1.0 / rate, weight='alg',
                            wvar=(a - sigma - 1.0, beta - 1.0))
    return const * val


def ng_log_marginal(y, m0, k0, a0, b0):
    '''Closed normal-gamma marginal likelihood, written out directly.'''
    y = np.asarray(y, dtype=float)
    n = y.size
    kn = k0 + n
    an = a0 + 0.5 * n
    ybar = float(y.mean())
    ss = float(np.sum((y - ybar) ** 2))
    bn = b0 + 0.5 * ss + 0.5 * k0 * n * (ybar - m0) ** 2 / kn
    return (-0.5 * n * math.log(2.0 * math.pi)
            + 0.5 * (math.log(k0) - math.log(kn))
            + gammaln(an) - gammaln(a0)
            + a0 * math.log(b0) - an * math.log(bn))


class TestKappaTable:

    def test_gamma_closed_form_vs_quadrature(self):
        for shape in (1.0, 2.5):
            spec = gamma_spec(1, shape)
            for v in (0.4, 1.0, 3.7):
                table = KappaTable(spec, np.array([v]))
                for a in (1, 2, 5):
                    got = table.log_kappa((a,))
                    closed = gammaln(a) - a * math.log1p(v)
                    oracle = math.log(kappa_quad_gamma(a, v, shape))
                    assert got == pytest.approx(closed, rel=1e-12)
                    assert got == pytest.approx(oracle, rel=1e-9)

    def test_gamma_closed_form_is_shape_free(self):
        # the shape dependence cancels exactly in the gamma marginal
        for shape in (0.7, 1.0, 4.0):
            oracle = math.log(kappa_quad_gamma(3, 1.2, shape))
            closed = gammaln(3) - 3.0 * math.log1p(1.2)
            assert oracle == pytest.approx(closed, rel=1e-9)

    def test_stable_closed_form_vs_quadrature(self):
        for sigma in (0.3, 0.5):
            for shape in (1.0, 2.0):
                spec = CoRMSpec.from_marginal(
                    1, shape, MarginalFamily.sigma_stable(sigma))
                for v in (0.5, 2.0):
                    table = KappaTable(spec, np.array([v]))
                    for a in (1, 3):
                        got = table.log_kappa((a,))
                        closed = (math.log(sigma) + gammaln(a - sigma)
                                  - gammaln(1.0 - sigma)
                                  + (sigma - a) * math.log(v))
                        oracle = math.log(
                            kappa_quad_stable(a, v, shape, sigma))
                        assert got == pytest.approx(closed, rel=1e-12)
                        assert got == pytest.approx(oracle, rel=1e-8)

    def test_gg_quadrature_path_vs_closed_derivative(self):
        # kappa_n(v) = sigma Gamma(n-sigma)/Gamma(1-sigma) (a+v)^(sigma-n)
        # from the n-th derivative of the marginal exponent
        sigma, rate, shape = 0.4, 2.0, 1.5
        spec = CoRMSpec.from_marginal(
            1, shape, MarginalFamily.generalized_gamma(sigma, rate))
        for v in (0.7, 1.3):
            table = KappaTable(spec, np.array([v]))
            for n in (1, 2, 4):
                got = table.log_kappa((n,))
                closed = (math.log(sigma) + gammaln(n - sigma)
                          - gammaln(1.0 - sigma)
                          + (sigma - n) * math.log(rate + v))
                assert got == pytest.approx(closed, rel=1e-8)

    def test_gg_quadrature_path_vs_quadpack(self):
        sigma, rate, shape = 0.4, 2.0, 1.5
        spec = CoRMSpec.from_marginal(
            1, shape, MarginalFamily.generalized_gamma(sigma, rate))
        table = KappaTable(spec, np.array([0.9]))
        for n in (1, 4):
            got = table.log_kappa((n,))
            oracle = math.log(kappa_quad_gg(n, 0.9, shape, sigma, rate))
            assert got == pytest.approx(oracle, rel=1e-7)

    def test_two_group_quadrature_vs_quadpack(self):
        shape = 1.8
        spec = gamma_spec(2, shape)
        v = np.array([0.5, 1.5])
        table = KappaTable(spec, v)
        for a in ((2, 1), (0, 3), (1, 1)):
            got = table.log_kappa(a)
            oracle = math.log(kappa_quad_gamma_d2(a, v, shape))
            assert got == pytest.approx(oracle, rel=1e-7)

    def test_ratio_and_new_cluster_consistency(self):
        # the ratio memo keeps the very difference of the two memoised
        # log kappas, so the doubles are equal
        spec = gamma_spec(2, 1.3, mass=2.0)
        table = KappaTable(spec, np.array([0.8, 1.1]))
        a = (2, 1)
        assert table.log_ratio(a, 0) == \
            table.log_kappa((3, 1)) - table.log_kappa(a)
        assert table.log_ratio(a, 1) == \
            table.log_kappa((2, 2)) - table.log_kappa(a)
        assert table.log_new_cluster(0) == table.log_kappa((1, 0))
        assert table.log_new_cluster(1) == table.log_kappa((0, 1))
        # read first, a ratio computes both ends; read after them, it
        # takes them from the log kappa memo: the same double.  A list of
        # counts reads the tuple's memo entry
        first, second = (KappaTable(spec, np.array([0.8, 1.1]))
                         for _ in range(2))
        for a, j in (((0, 4), 0), ((5, 0), 1), ((3, 3), 1)):
            plus = list(a)
            plus[j] += 1
            early = first.log_ratio(a, j)
            want = second.log_kappa(tuple(plus)) - second.log_kappa(a)
            assert second.log_ratio(a, j) == early == want
            assert first.log_ratio(list(a), j) == early
        assert first.evaluations == second.evaluations == len(first._memo)

    def test_memoization_returns_same_value(self):
        spec = gamma_spec(1, 1.0)
        table = KappaTable(spec, np.array([1.0]))
        first = table.log_kappa((3,))
        assert table.log_kappa((3,)) == first
        assert (3,) in table._memo


def make_state_d1(labels, v, shape, kernel, data):
    '''Build a one-group state from labels.'''
    labels = np.asarray(labels)
    K = int(labels.max()) + 1
    counts = np.bincount(labels, minlength=K)[:, None]
    state = MarginalState([labels.copy()], counts, np.array([float(v)]),
                          shape)
    state.stats = []
    for k in range(K):
        s = kernel.stats_empty()
        for i, lab in enumerate(labels):
            if lab == k:
                s = kernel.stats_add(s, data.groups[0][i, 0])
        state.stats.append(s)
    return state


def redraw_logs(monkeypatch, state, data, spec, kernel, j, i, table):
    '''The log urn weights that _UrnRows.redraw of the attached
    observation i of group j hands to _pick: one per cluster of the view
    once the observation is out (a singleton's cluster dropped, the
    later ones shifted down), and one for a new cluster.'''
    seen = []
    pick = ms._pick

    def record(logs, u, j, i):
        seen.append(np.array(logs))
        return pick(logs, u, j, i)

    with monkeypatch.context() as patch:
        patch.setattr(ms, '_pick', record)
        ms._UrnRows(state, data, spec, kernel, table, j).redraw(i, 0.5)
    (logs,) = seen
    return logs


def normalised(logs):
    w = np.exp(logs - logs.max())
    return w / w.sum()


class TestUrnWeights:

    def test_gamma_urn_reduces_to_classic_weights(self, monkeypatch):
        # with a gamma marginal and a flat kernel the urn weights are
        # (n_1, ..., n_K, M) up to a common factor, whatever v is; the
        # observation starts in cluster 0 (which keeps 3 members) or
        # alone in cluster 2 (which is dropped)
        kernel = FlatKernel()
        data = Dataset([np.zeros(6)])
        for shape, home in itertools.product((1.0, 2.3), (0, 2)):
            for mass in (0.7, 1.0, 4.0):
                spec = gamma_spec(1, shape, mass=mass)
                reference = None
                for v in (0.25, 1.0, 9.0):
                    state = make_state_d1([0, 0, 0, 1, 1, home], v, shape,
                                          kernel, data)
                    table = KappaTable(spec, state.v)
                    w = normalised(redraw_logs(monkeypatch, state, data,
                                               spec, kernel, 0, 5, table))
                    expected = np.array([3.0, 2.0, mass])
                    expected /= expected.sum()
                    assert np.allclose(w, expected, rtol=1e-12)
                    if reference is None:
                        reference = w
                    assert np.allclose(w, reference, rtol=1e-12)

    def test_conditional_matches_enumeration_one_group(self, monkeypatch):
        # Gibbs weights for the last observation against the exact
        # conditional computed from the partition posterior
        shape, mass, v = 1.6, 1.3, 0.8
        m0, k0, a0, b0 = 0.0, 0.5, 2.0, 1.5
        kernel = UnivariateNormalGamma(m0, k0, a0, b0)
        spec = gamma_spec(1, shape, mass=mass)
        y = np.array([-0.5, 0.1, 2.0])
        data = Dataset([y])

        def kap(n):
            return math.exp(gammaln(n) - n * math.log1p(v))

        def m(idx):
            return math.exp(ng_log_marginal(y[list(idx)], m0, k0, a0, b0))

        # first two observations share a cluster; the last, alone in
        # cluster 0, is dropped, and their cluster becomes 0
        state = make_state_d1([1, 1, 0], v, shape, kernel, data)
        table = KappaTable(spec, state.v)
        w = normalised(redraw_logs(monkeypatch, state, data, spec, kernel,
                                   0, 2, table))
        joint = np.array([
            mass * kap(3) * m((0, 1, 2)),
            mass ** 2 * kap(2) * kap(1) * m((0, 1)) * m((2,)),
        ])
        assert np.allclose(w, joint / joint.sum(), rtol=1e-9)

        # first two observations apart; the last, alone in cluster 1, is
        # dropped, and the second's cluster 2 becomes 1
        state = make_state_d1([0, 2, 1], v, shape, kernel, data)
        table = KappaTable(spec, state.v)
        w = normalised(redraw_logs(monkeypatch, state, data, spec, kernel,
                                   0, 2, table))
        joint = np.array([
            mass ** 2 * kap(2) * kap(1) * m((0, 2)) * m((1,)),
            mass ** 2 * kap(1) * kap(2) * m((0,)) * m((1, 2)),
            mass ** 3 * kap(1) ** 3 * m((0,)) * m((1,)) * m((2,)),
        ])
        assert np.allclose(w, joint / joint.sum(), rtol=1e-9)

    def test_conditional_matches_enumeration_two_groups(self, monkeypatch):
        # same check across groups, with the kappa oracle on QUADPACK
        shape, mass = 2.0, 1.0
        v = np.array([0.6, 1.4])
        m0, k0, a0, b0 = 0.0, 0.5, 2.0, 1.5
        kernel = UnivariateNormalGamma(m0, k0, a0, b0)
        spec = gamma_spec(2, shape, mass=mass)
        y0 = np.array([0.3, -1.0])
        y1 = np.array([1.1])
        data = Dataset([y0, y1])

        # y1[0] alone in cluster 1 is dropped, and y0[1]'s cluster 2
        # becomes 1
        labels = [np.array([0, 2]), np.array([1])]
        counts = np.array([[1, 0], [0, 1], [1, 0]])
        state = MarginalState(labels, counts, v.copy(), shape)
        state.stats = [kernel.stats_add(kernel.stats_empty(), y)
                       for y in (y0[0], y1[0], y0[1])]
        table = KappaTable(spec, state.v)
        w = normalised(redraw_logs(monkeypatch, state, data, spec, kernel,
                                   1, 0, table))

        def kap(a):
            return kappa_quad_gamma_d2(a, v, shape)

        def m(values):
            return math.exp(ng_log_marginal(values, m0, k0, a0, b0))

        joint = np.array([
            mass ** 2 * kap((1, 1)) * kap((1, 0))
            * m([y0[0], y1[0]]) * m([y0[1]]),
            mass ** 2 * kap((1, 0)) * kap((1, 1))
            * m([y0[0]]) * m([y0[1], y1[0]]),
            mass ** 3 * kap((1, 0)) ** 2 * kap((0, 1))
            * m([y0[0]]) * m([y0[1]]) * m([y1[0]]),
        ])
        assert np.allclose(w, joint / joint.sum(), rtol=1e-6)

    def test_weights_with_many_clusters_match_student_t(self, monkeypatch):
        # 6 clusters over two groups, cluster 4 occupied only in group 1:
        # each weight is the KappaTable ratio plus the Student-t log
        # predictive that scipy gives for the cluster's members.  The
        # observation starts in cluster 5, which keeps two members
        from test_kernels import ng_student_t
        rng = np.random.default_rng(31)
        y0 = rng.normal(-1.0, 1.0, size=10)
        y1 = rng.normal(1.0, 1.0, size=7)
        data = Dataset([y0, y1])
        kernel = UnivariateNormalGamma.from_data(data.stacked())
        spec = CoRMSpec.from_marginal(
            2, 1.3, MarginalFamily.generalized_gamma(0.3, 1.0),
            centring_mass=1.7)
        labels = [np.array([0, 0, 1, 2, 2, 2, 3, 1, 5, -1]),
                  np.array([4, 4, 0, 3, 4, 1, 5])]
        counts = np.array([[np.sum(c == k) for c in labels]
                           for k in range(6)])
        assert counts[4].tolist() == [0, 3]
        members = [np.concatenate([g[c == k] for g, c in
                                   zip(data.groups, labels)])
                   for k in range(6)]
        y = y0[9]
        attached = [labels[0].copy(), labels[1]]
        attached[0][9] = 5
        attached_counts = counts.copy()
        attached_counts[5, 0] += 1
        state = MarginalState(attached, attached_counts,
                              np.array([0.7, 1.9]), 1.3)
        state.stats = []
        for k, rows in enumerate(members):
            stats_now = kernel.stats_empty()
            for x in rows[:, 0].tolist() + [y] * (k == 5):
                stats_now = kernel.stats_add(stats_now, x)
            state.stats.append(stats_now)
        table = KappaTable(spec, state.v)
        logs = redraw_logs(monkeypatch, state, data, spec, kernel, 0, 9,
                           table)
        assert logs.shape == (7,)
        w = np.exp(logs - logs.max())
        want = []
        for k, rows in enumerate(members + [np.empty((0, 1))]):
            df, loc, scale = ng_student_t(kernel, rows[:, 0])
            if k < 6:
                log_kappa = table.log_ratio(tuple(counts[k].tolist()), 0)
            else:
                log_kappa = math.log(spec.centring_mass) \
                    + table.log_kappa((1, 0))
            want.append(log_kappa
                        + stats.t.logpdf(y, df, loc=loc, scale=scale))
        want = np.array(want)
        assert np.allclose(w, np.exp(want - want.max()), rtol=1e-12,
                           atol=0.0)

    def test_gibbs_update_frequencies_match_conditional(self):
        # repeated single-site updates are iid draws from the urn
        # conditional; hold the rest of the partition fixed
        shape, mass, v = 1.0, 1.5, 0.9
        m0, k0, a0, b0 = 0.0, 0.5, 2.0, 1.5
        kernel = UnivariateNormalGamma(m0, k0, a0, b0)
        spec = gamma_spec(1, shape, mass=mass)
        y = np.array([-0.4, 0.6, 0.2])
        data = Dataset([y])

        def kap(n):
            return math.exp(gammaln(n) - n * math.log1p(v))

        def m(idx):
            return math.exp(ng_log_marginal(y[list(idx)], m0, k0, a0, b0))

        joint = np.array([
            mass ** 2 * kap(2) * kap(1) * m((0, 2)) * m((1,)),
            mass ** 2 * kap(1) * kap(2) * m((0,)) * m((1, 2)),
            mass ** 3 * kap(1) ** 3 * m((0,)) * m((1,)) * m((2,)),
        ])
        probs = joint / joint.sum()

        state = make_state_d1([0, 1, 0], v, shape, kernel, data)
        table = KappaTable(spec, state.v)
        rng = np.random.default_rng(11)
        n_iter = 20000
        hits = np.zeros(3)
        for t in range(n_iter):
            update_allocation_conjugate(state, data, spec, kernel, 0, 2,
                                        table, rng)
            c = state.allocations[0]
            if c[2] == c[0]:
                hits[0] += 1
            elif c[2] == c[1]:
                hits[1] += 1
            else:
                hits[2] += 1
            if t % 1000 == 0:
                state.check()
        freq = hits / n_iter
        se = np.sqrt(probs * (1.0 - probs) / n_iter)
        assert np.all(np.abs(freq - probs) < 5.0 * se)

    def test_nonconjugate_update_frequencies_flat_kernel(self):
        # with a flat kernel the auxiliary-atom scheme must reproduce the
        # classic urn probabilities exactly, including the 1/n_aux split
        shape, mass, v = 1.0, 2.0, 1.3
        kernel = FlatKernel()
        spec = gamma_spec(1, shape, mass=mass)
        y = np.zeros(4)
        data = Dataset([y])
        probs = np.array([2.0, 1.0, mass])
        probs /= probs.sum()

        labels = np.array([0, 0, 1, 0])
        counts = np.array([[3], [1]])
        state = MarginalState([labels], counts, np.array([v]), shape,
                              atoms=[0.1, 0.2])
        rng = np.random.default_rng(5)
        table = KappaTable(spec, state.v)
        n_iter = 12000
        hits = np.zeros(3)
        for t in range(n_iter):
            update_allocation_nonconjugate(state, data, spec, kernel, 0, 3,
                                           table, rng, n_aux=3)
            c = state.allocations[0]
            if c[3] == c[0]:
                hits[0] += 1
            elif c[3] == c[2]:
                hits[1] += 1
            else:
                hits[2] += 1
            if t % 1000 == 0:
                state.check()
                assert len(state.atoms) == state.n_clusters
        freq = hits / n_iter
        se = np.sqrt(probs * (1.0 - probs) / n_iter)
        assert np.all(np.abs(freq - probs) < 5.0 * se)


class _NaNAtRow(FlatKernel):
    '''Flat kernel whose log predictive is NaN against one row.'''

    def __init__(self, bad):
        self.bad = bad

    def log_predictive(self, y, rows):
        out = super().log_predictive(y, rows)
        out[self.bad] = math.nan
        return out


def shifted_pick(logs, u):
    '''The index ms._pick draws, from the running sums of exp(l - max l)
    in numpy, and the boundaries of its cells on the unit interval.'''
    cum = np.cumsum(np.exp(np.asarray(logs) - max(logs)))
    index = int(np.searchsorted(cum, u * cum[-1], side='right'))
    return min(index, len(logs) - 1), cum / cum[-1]


class TestNonFiniteWeights:

    @pytest.mark.parametrize('shift', [-800.0, -740.0, -500.0, 0.0, 500.0,
                                       800.0])
    def test_pick_is_shift_free(self, shift):
        # at -800 every exp underflows, at -740 the weights are
        # subnormal, with a few digits each, and at +800 the first
        # overflows, so the pick takes the shifted sums; at -500 and
        # +500 the plain sums stay within range: the same index either
        # way
        base = [-1.3, 0.2, -4.0, 1.1, -0.5, -2.2]
        logs = [l + shift for l in base]
        for u in np.linspace(0.0, 1.0, 401, endpoint=False):
            want, edges = shifted_pick(base, u)
            if np.min(np.abs(edges - u)) > 1e-9:
                assert ms._pick(logs, float(u), 0, 4) == want

    @pytest.mark.parametrize('logs', [[-math.inf] * 3,
                                      [0.0, math.inf, -1.0],
                                      [math.inf, 900.0]])
    def test_pick_names_the_observation(self, logs):
        with pytest.raises(FloatingPointError,
                           match='observation 5 of group 2'):
            ms._pick(logs, 0.5, 1, 4)

    def test_pick_matches_the_shifted_sums(self):
        # a property test: hypothesis is needed here alone, so the
        # module's other tests run without it
        pytest.importorskip('hypothesis')
        from hypothesis import assume, given
        from hypothesis import strategies as st

        @given(st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=12),
               st.floats(0.0, 1.0, exclude_max=True))
        def check(logs, u):
            want, edges = shifted_pick(logs, u)
            assume(np.min(np.abs(edges - u)) > 1e-9)
            assert ms._pick(logs, u, 0, 0) == want

        check()

    @pytest.mark.parametrize('bad', [0, 1, 2])
    def test_nan_predictive_raises(self, bad):
        # max() over a list passes over a NaN that is not first, and a
        # draw on NaN running sums picks an index silently; either way
        # the redraw must stop with the observation named
        kernel = _NaNAtRow(bad)
        data = Dataset([np.zeros(6)])
        spec = gamma_spec(1, 1.0)
        state = make_state_d1([0, 0, 0, 1, 1, 1], 1.0, 1.0, kernel, data)
        table = KappaTable(spec, state.v)
        with pytest.raises(FloatingPointError,
                           match='observation 6 of group 1'):
            update_allocation_conjugate(state, data, spec, kernel, 0, 5,
                                        table, np.random.default_rng(0))

    def test_infinite_log_weight_raises(self):
        # the observation is alone in cluster 2, so once it is out every
        # row left is one of the infinite ones
        kernel = FlatKernel()
        data = Dataset([np.zeros(3)])
        spec = gamma_spec(1, 1.0)
        state = make_state_d1([0, 1, 2], 1.0, 1.0, kernel, data)
        table = KappaTable(spec, state.v)
        for value in (math.inf, -math.inf):
            rows = ms._UrnRows(state, data, spec, kernel, table, 0)
            rows.log_ratios = [value] * 4
            with pytest.raises(FloatingPointError,
                               match='observation 3 of group 1'):
                rows.redraw(2, 0.5)

    @pytest.mark.parametrize('bad', [0, 1, 2])
    def test_nan_predictive_stops_a_sweep(self, bad):
        # the pass path, with the pass's uniforms: the sweep's first
        # redraw meets the NaN row and names its observation
        kernel = _NaNAtRow(bad)
        data = Dataset([np.zeros(6)])
        spec = gamma_spec(1, 1.0)
        rng = np.random.default_rng(0)
        state = initial_state(data, spec, kernel, rng, n_start=2)
        with pytest.raises(FloatingPointError,
                           match='observation 1 of group 1'):
            marginal_sweep(state, data, spec, kernel, rng,
                           [AdaptiveStepSize()])


class TestUrnRows:

    def test_rows_match_fresh_after_every_allocation(self):
        # a 3-sweep 30+30 conjugate chain run through the sweep's loop
        # by hand: after every allocation, once written back, the kept
        # rows equal rows built afresh from the state, whose ratios are
        # the kappa ratios
        rng = np.random.default_rng(17)
        data = Dataset([np.concatenate([rng.normal(-2.0, 0.5, 15),
                                        rng.normal(2.0, 0.5, 15)]),
                        rng.normal(2.0, 0.5, 30)])
        kernel = UnivariateNormalGamma.from_data(data.stacked())
        spec = CoRMSpec.from_marginal(
            2, 1.0, MarginalFamily.generalized_gamma(0.3, 1.0))
        state = initial_state(data, spec, kernel, rng, n_start=4)
        v_steps = [AdaptiveStepSize(), AdaptiveStepSize()]
        table = KappaTable(spec, state.v)
        for _ in range(3):
            for j in range(2):
                rows = ms._UrnRows(state, data, spec, kernel, table, j)
                for i in range(30):
                    update_allocation_conjugate(state, data, spec, kernel,
                                                j, i, table, rng, rows)
                    rows.write_back()
                    fresh = ms._UrnRows(state, data, spec, kernel, table, j)
                    assert np.allclose(rows.log_ratios, fresh.log_ratios,
                                       rtol=1e-12, atol=0.0)
                    assert np.allclose(rows.predictive, fresh.predictive,
                                       rtol=1e-12, atol=0.0)
                K = state.n_clusters
                e_j = np.eye(2, dtype=int)[j]
                want = [table.log_kappa(tuple(a + e_j))
                        - table.log_kappa(tuple(a)) for a in state.counts]
                want.append(math.log(spec.centring_mass)
                            + table.log_kappa(tuple(e_j)))
                assert len(rows.log_ratios) == K + 1
                assert np.allclose(rows.log_ratios, want, rtol=1e-12,
                                   atol=0.0)
            for j in range(2):
                table = update_v_marginal(state, spec, j, v_steps[j], rng,
                                          table)
            state.check()

    def test_redraw_into_own_cluster_restores_conjugate(self):
        # a 2-sweep 30+30 chain: whenever an observation goes back to a
        # cluster its detach kept, the cluster's statistics are the very
        # tuple from before the detach (not a remove-then-add round
        # trip) and the kept rows equal rows built afresh
        rng = np.random.default_rng(23)
        data = Dataset([np.concatenate([rng.normal(-2.0, 0.5, 15),
                                        rng.normal(2.0, 0.5, 15)]),
                        rng.normal(2.0, 0.5, 30)])
        kernel = UnivariateNormalGamma.from_data(data.stacked())
        spec = CoRMSpec.from_marginal(
            2, 1.0, MarginalFamily.generalized_gamma(0.3, 1.0))
        state = initial_state(data, spec, kernel, rng, n_start=4)
        table = KappaTable(spec, state.v)
        undone = 0
        for _ in range(2):
            for j in range(2):
                rows = ms._UrnRows(state, data, spec, kernel, table, j)
                for i in range(30):
                    home, K = int(state.allocations[j][i]), state.n_clusters
                    stats = state.stats[home]
                    update_allocation_conjugate(state, data, spec, kernel,
                                                j, i, table, rng, rows)
                    rows.write_back()
                    if state.allocations[j][i] == home \
                            and state.n_clusters == K:
                        undone += 1
                        assert state.stats[home] is stats
                    fresh = ms._UrnRows(state, data, spec, kernel, table, j)
                    assert np.array_equal(rows.log_ratios, fresh.log_ratios)
                    assert np.array_equal(rows.predictive, fresh.predictive)
                state.check()
        assert undone > 20

    def test_redraw_into_own_cluster_restores_nonconjugate(self):
        rng = np.random.default_rng(29)
        g0 = np.vstack([rng.normal(-1.5, 0.5, size=(8, 2)),
                        rng.normal(1.5, 0.5, size=(8, 2))])
        g1 = rng.normal(1.5, 0.5, size=(10, 2))
        data = Dataset([g0, g1])
        kernel = MultivariateNormalNIW.from_data(np.vstack([g0, g1]))
        spec = gamma_spec(2, 1.0)
        state = initial_state(data, spec, kernel, rng, n_start=3)
        table = KappaTable(spec, state.v)
        undone = 0
        for j, n_j in enumerate((16, 10)):
            rows = ms._UrnRows(state, data, spec, kernel, table, j)
            for i in range(n_j):
                home = int(state.allocations[j][i])
                counts, atoms = state.counts.copy(), list(state.atoms)
                update_allocation_nonconjugate(state, data, spec, kernel, j,
                                               i, table, rng, rows=rows)
                rows.write_back()
                if state.allocations[j][i] == home \
                        and len(state.atoms) == len(atoms):
                    undone += 1
                    assert np.array_equal(state.counts, counts)
                    assert all(a is b for a, b in zip(state.atoms, atoms))
                fresh = ms._UrnRows(state, data, spec, kernel, table, j)
                assert np.array_equal(rows.log_ratios, fresh.log_ratios)
            state.check()
        assert undone > 5

    @pytest.mark.parametrize('conjugate', [True, False])
    def test_singleton_redrawn_as_new_cluster(self, conjugate,
                                              monkeypatch):
        # observation (0, 2) is the only member of the last cluster, so
        # its new-cluster index after the drop is its old index; the
        # update must still open a cluster: empty statistics plus the
        # observation, or the recycled atom
        y = np.array([-1.0, -1.2, 3.0])
        if conjugate:
            data = Dataset([y])
            kernel = UnivariateNormalGamma.from_data(y)
        else:
            data = Dataset([y[:, None]])
            kernel = MultivariateNormalNIW.from_data(y[:, None])
        spec = gamma_spec(1, 1.0)
        state = MarginalState([np.array([0, 0, 1])], np.array([[2], [1]]),
                              np.array([1.0]), 1.0)
        if conjugate:
            state.stats = [kernel.stats_add(kernel.stats_add(
                kernel.stats_empty(), y[0]), y[1]),
                kernel.stats_add(kernel.stats_empty(), y[2])]
        else:
            state.atoms = [(np.array([-1.1]), np.eye(1)),
                           (np.array([3.0]), np.eye(1))]
        singleton = state.stats[1] if conjugate else state.atoms[1]
        table = KappaTable(spec, state.v)
        rows = ms._UrnRows(state, data, spec, kernel, table, 0)
        # the first new-cluster slot: index 1 once the singleton's
        # cluster is dropped
        monkeypatch.setattr(ms, '_pick', lambda logs, u, j, i: 1)
        rng = np.random.default_rng(1)
        if conjugate:
            update_allocation_conjugate(state, data, spec, kernel, 0, 2,
                                        table, rng, rows)
            rows.write_back()
            want = kernel.stats_add(kernel.stats_empty(), y[2])
            assert state.stats[1] == want
            assert state.stats[1] is not singleton
        else:
            update_allocation_nonconjugate(state, data, spec, kernel, 0, 2,
                                           table, rng, rows=rows)
            rows.write_back()
            assert state.atoms[1] is singleton
        assert state.allocations[0].tolist() == [0, 0, 1]
        assert state.counts.tolist() == [[2], [1]]
        fresh = ms._UrnRows(state, data, spec, kernel, table, 0)
        assert np.array_equal(rows.log_ratios, fresh.log_ratios)
        if conjugate:
            assert np.array_equal(rows.predictive, fresh.predictive)
        state.check()

    def test_pass_uniforms_run_on_past_a_pass(self):
        # one group's 30 observations redrawn twice through the same
        # view: the second round draws a second batch of uniforms, and
        # the chain, and the generator at its end, equal per-redraw
        # rng.random() calls (one-off redraws)
        rng = np.random.default_rng(43)
        data = Dataset([np.concatenate([rng.normal(-2.0, 0.5, 15),
                                        rng.normal(2.0, 0.5, 15)]),
                        rng.normal(2.0, 0.5, 30)])
        kernel = UnivariateNormalGamma.from_data(data.stacked())
        spec = CoRMSpec.from_marginal(
            2, 1.0, MarginalFamily.generalized_gamma(0.3, 1.0))
        table = KappaTable(spec, np.ones(2))
        states = [initial_state(data, spec, kernel, rng, n_start=4)
                  for _ in range(2)]
        rngs = [np.random.default_rng(47) for _ in range(3)]
        rows = ms._UrnRows(states[0], data, spec, kernel, table, 1)
        for _ in range(2):
            for i in range(30):
                update_allocation_conjugate(states[0], data, spec, kernel,
                                            1, i, table, rngs[0], rows)
                update_allocation_conjugate(states[1], data, spec, kernel,
                                            1, i, table, rngs[1])
        rows.write_back()
        _same_state(*states)
        for _ in range(60):
            rngs[2].random()
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state \
            == rngs[2].bit_generator.state
        states[0].check()

    def test_members_group_rows_by_label(self):
        rng = np.random.default_rng(3)
        data = Dataset([rng.normal(size=(7, 2)), rng.normal(size=(5, 2))])
        allocations = [rng.integers(4, size=7), rng.integers(4, size=5)]
        got = ms._members(data, allocations, 5)
        assert len(got) == 5
        for k in range(5):
            want = np.concatenate([g[c == k] for g, c in
                                   zip(data.groups, allocations)])
            assert np.array_equal(got[k], want)


class TestAuxiliaryUpdate:

    def test_log_target_matches_closed_form(self):
        # one-group gamma marginal: the v target collapses to
        # (n-1) log v - (M+n) log(1+v) plus a v-free constant
        shape, mass = 2.2, 1.7
        spec = gamma_spec(1, shape, mass=mass)
        kernel = FlatKernel()
        data = Dataset([np.zeros(5)])
        state = make_state_d1([0, 0, 1, 1, 1], 1.0, shape, kernel, data)
        n_sizes = state.group_sizes().astype(float)
        shift = None
        for v in (0.3, 1.0, 5.0):
            state.v = np.array([v])
            table = KappaTable(spec, state.v)
            got = ms._log_target_v(state, spec, table, n_sizes)
            closed = 4.0 * math.log(v) - (mass + 5.0) * math.log1p(v)
            if shift is None:
                shift = got - closed
            assert got - closed == pytest.approx(shift, abs=1e-10)

    def test_v_chain_matches_beta_transform(self):
        # at a fixed partition, v/(1+v) is Beta(n, M); run the
        # random-walk update alone and test the transformed samples
        shape, mass = 1.0, 1.7
        spec = gamma_spec(1, shape, mass=mass)
        kernel = FlatKernel()
        data = Dataset([np.zeros(5)])
        state = make_state_d1([0, 0, 1, 1, 1], 1.0, shape, kernel, data)
        table = KappaTable(spec, state.v)
        step = AdaptiveStepSize()
        rng = np.random.default_rng(7)
        for _ in range(500):
            table = update_v_marginal(state, spec, 0, step, rng, table)
        step.frozen = True
        draws = []
        for t in range(12000):
            table = update_v_marginal(state, spec, 0, step, rng, table)
            if t % 4 == 0:
                draws.append(state.v[0])
        w = np.asarray(draws) / (1.0 + np.asarray(draws))
        result = stats.kstest(w, stats.beta(5.0, mass).cdf)
        assert result.pvalue > 1e-3

    def test_v_update_keeps_state_consistent(self):
        spec = gamma_spec(2, 1.5)
        kernel = FlatKernel()
        data = Dataset([np.zeros(3), np.zeros(2)])
        rng = np.random.default_rng(3)
        state = initial_state(data, spec, kernel, rng, n_start=2)
        table = KappaTable(spec, state.v)
        steps = [AdaptiveStepSize(), AdaptiveStepSize()]
        for _ in range(200):
            for j in range(2):
                table = update_v_marginal(state, spec, j, steps[j], rng,
                                          table)
        assert np.all(state.v > 0.0)
        assert np.array_equal(table.v, state.v)
        assert steps[0].proposed == 200


class TestShapeUpdate:

    def test_shape_chain_recovers_prior(self):
        # gamma marginal with a flat kernel: the shape drops out of the
        # target entirely, so the chain must sample the prior, Jacobian
        # included
        mass = 1.2
        spec = gamma_spec(1, 1.0, mass=mass)
        kernel = FlatKernel()
        data = Dataset([np.zeros(3)])
        state = make_state_d1([0, 0, 1], 0.8, 1.0, kernel, data)
        table = KappaTable(spec, state.v)

        def log_prior(phi):
            return math.log(phi) - phi - gammaln(2.0)

        step = AdaptiveStepSize()
        rng = np.random.default_rng(19)
        for _ in range(1000):
            spec, table = update_shape_marginal(state, spec, log_prior,
                                                step, rng, table)
        step.frozen = True
        draws = []
        for t in range(16000):
            spec, table = update_shape_marginal(state, spec, log_prior,
                                                step, rng, table)
            if t % 4 == 0:
                draws.append(state.shape)
        result = stats.kstest(np.asarray(draws), stats.gamma(2.0).cdf)
        assert result.pvalue > 1e-3

    def test_shape_move_keeps_spec_in_sync(self):
        spec = gamma_spec(1, 1.5)
        kernel = FlatKernel()
        data = Dataset([np.zeros(4)])
        state = make_state_d1([0, 1, 0, 1], 1.0, 1.5, kernel, data)
        table = KappaTable(spec, state.v)
        step = AdaptiveStepSize()
        rng = np.random.default_rng(2)

        def log_prior(phi):
            return -phi

        for _ in range(50):
            spec, table = update_shape_marginal(state, spec, log_prior,
                                                step, rng, table)
            assert spec.shape == state.shape
            assert table.spec is spec
        assert step.proposed == 50


    def test_nan_log_ratio_raises(self):
        # min(1, exp(min(nan, 0))) is 1.0: a NaN target used to accept
        # the move and record it as accepted
        spec = gamma_spec(1, 1.5)
        kernel = FlatKernel()
        data = Dataset([np.zeros(4)])
        state = make_state_d1([0, 1, 0, 1], 1.0, 1.5, kernel, data)
        table = KappaTable(spec, state.v)
        step = AdaptiveStepSize()
        with pytest.raises(FloatingPointError, match='nan'):
            update_shape_marginal(state, spec, lambda phi: math.nan, step,
                                  np.random.default_rng(2), table)
        assert state.shape == 1.5 and step.proposed == 0


def test_accept_probability_is_min_one_exp():
    for log_alpha in (-math.inf, -800.0, -3.25, -1e-300, 0.0, 1e-300,
                      2.5, 800.0, math.inf):
        assert ms._accept_probability(log_alpha) \
            == min(1.0, math.exp(min(log_alpha, 0.0)))
    with pytest.raises(FloatingPointError):
        ms._accept_probability(math.nan)


class TestAdaptiveStepSize:

    def test_records_tally_acceptance(self):
        s = AdaptiveStepSize()
        s.record(1.0)
        s.record(0.5)
        s.record(0.0)
        assert s.proposed == 3
        assert s.acceptance_rate == pytest.approx(0.5)

    def test_adapts_toward_target(self):
        up = AdaptiveStepSize()
        before = up.log_step
        up.record(1.0)
        assert up.log_step > before
        down = AdaptiveStepSize()
        before = down.log_step
        down.record(0.0)
        assert down.log_step < before

    def test_frozen_keeps_scale_fixed(self):
        s = AdaptiveStepSize(frozen=True)
        before = s.log_step
        for _ in range(10):
            s.record(1.0)
        assert s.log_step == before
        assert s.proposed == 10

    def test_log_step_is_clamped(self):
        s = AdaptiveStepSize(log_step=5.99)
        s.record(1.0)
        assert s.log_step <= 6.0
        s = AdaptiveStepSize(log_step=-11.99)
        s.record(0.0)
        assert s.log_step >= -12.0


class TestStateAndSweep:

    def test_initial_state_round_robin(self):
        kernel = UnivariateNormalGamma(0.0, 0.5, 2.0, 1.0)
        data = Dataset([np.arange(5.0), np.arange(4.0)])
        spec = gamma_spec(2, 1.0)
        rng = np.random.default_rng(0)
        state = initial_state(data, spec, kernel, rng, n_start=3)
        state.check()
        assert state.n_clusters == 3
        assert state.counts.sum() == 9
        assert np.array_equal(state.counts[:, 0], [2, 2, 1])
        assert np.array_equal(state.counts[:, 1], [2, 1, 1])
        # stats tally the right members
        n_in_stats = sum(s[0] for s in state.stats)
        assert n_in_stats == 9

    def test_initial_state_nonconjugate(self):
        kernel = MultivariateNormalNIW(np.zeros(2), 0.01, 12.0, np.eye(2))
        data = Dataset([np.random.default_rng(1).normal(size=(6, 2))])
        spec = gamma_spec(1, 1.0)
        rng = np.random.default_rng(4)
        state = initial_state(data, spec, kernel, rng, n_start=2)
        state.check()
        assert state.stats is None
        assert len(state.atoms) == 2

    def test_sweep_invariants_conjugate(self):
        rng = np.random.default_rng(42)
        y0 = np.concatenate([rng.normal(-2.0, 0.4, 12),
                             rng.normal(2.0, 0.4, 13)])
        y1 = rng.normal(2.0, 0.4, 15)
        data = Dataset([y0, y1])
        kernel = UnivariateNormalGamma.from_data(np.concatenate([y0, y1]))
        spec = gamma_spec(2, 1.0)
        state = initial_state(data, spec, kernel, rng)
        v_steps = [AdaptiveStepSize(), AdaptiveStepSize()]
        shape_step = AdaptiveStepSize()

        def log_prior(phi):
            return -phi

        table = None
        for t in range(60):
            spec, table = marginal_sweep(state, data, spec, kernel, rng,
                                         v_steps, shape_step=shape_step,
                                         log_prior=log_prior, table=table)
            if t % 10 == 0:
                state.check()
        state.check()
        assert spec.shape == state.shape
        assert 1 <= state.n_clusters <= 40
        # stats must still tally the allocations exactly
        rebuilt = []
        for k in range(state.n_clusters):
            s = kernel.stats_empty()
            for j in range(2):
                for i, lab in enumerate(state.allocations[j]):
                    if lab == k:
                        s = kernel.stats_add(s, data.groups[j][i, 0])
            rebuilt.append(s)
        for got, want in zip(state.stats, rebuilt):
            assert got[0] == want[0]
            assert got[1] == pytest.approx(want[1], rel=1e-9, abs=1e-9)
            assert got[2] == pytest.approx(want[2], rel=1e-9, abs=1e-9)

    def test_sweep_invariants_nonconjugate(self):
        rng = np.random.default_rng(8)
        g0 = np.vstack([rng.normal(-1.5, 0.5, size=(8, 2)),
                        rng.normal(1.5, 0.5, size=(8, 2))])
        g1 = rng.normal(1.5, 0.5, size=(10, 2))
        data = Dataset([g0, g1])
        kernel = MultivariateNormalNIW.from_data(np.vstack([g0, g1]))
        spec = gamma_spec(2, 1.0)
        state = initial_state(data, spec, kernel, rng)
        v_steps = [AdaptiveStepSize(), AdaptiveStepSize()]
        table = None
        for t in range(30):
            spec, table = marginal_sweep(state, data, spec, kernel, rng,
                                         v_steps, table=table)
            if t % 10 == 0:
                state.check()
                assert len(state.atoms) == state.n_clusters
        state.check()

    def test_update_atoms_redraws_every_cluster(self):
        kernel = MultivariateNormalNIW(np.zeros(1), 0.01, 11.0, np.eye(1))
        rng = np.random.default_rng(13)
        data = Dataset([rng.normal(size=(6, 1))])
        spec = gamma_spec(1, 1.0)
        state = initial_state(data, spec, kernel, rng, n_start=3)
        old = [a for a in state.atoms]
        update_atoms(state, data, kernel, rng)
        assert len(state.atoms) == 3
        assert all(new is not prev for new, prev in zip(state.atoms, old))


def test_check_catches_desynced_statistics():
    # the invariants a wrong write-back of a pass would break: one
    # statistic or atom per cluster, and a conjugate cluster's count
    # (the statistics' first entry) equal to its total count
    kernel = UnivariateNormalGamma(0.0, 0.5, 2.0, 1.0)
    data = Dataset([np.arange(5.0), np.arange(4.0)])
    state = initial_state(data, gamma_spec(2, 1.0), kernel,
                          np.random.default_rng(0), n_start=3)
    state.check()
    good = list(state.stats)
    state.stats = good[:2]
    with pytest.raises(AssertionError, match='out of sync with the clusters'):
        state.check()
    state.stats = [good[0], kernel.stats_add(good[1], 0.5), good[2]]
    with pytest.raises(AssertionError, match='statistics out of sync'):
        state.check()
    state.stats = [good[1], good[0], good[2]]     # counts 4, 3, 2
    with pytest.raises(AssertionError, match='statistics out of sync'):
        state.check()
    state.stats = None
    state.atoms = [0.1, 0.2]
    with pytest.raises(AssertionError, match='out of sync with the clusters'):
        state.check()
    state.atoms.append(0.3)
    state.check()


def _one_off_sweep(state, data, spec, kernel, rng, v_steps, shape_step,
                   log_prior, table):
    '''marginal_sweep with every allocation a one-off redraw (rows=None),
    checking the state after each group's pass.'''
    for j in range(data.n_groups):
        for i in range(data.groups[j].shape[0]):
            if kernel.conjugate:
                update_allocation_conjugate(state, data, spec, kernel, j, i,
                                            table, rng)
            else:
                update_allocation_nonconjugate(state, data, spec, kernel, j,
                                               i, table, rng, n_aux=3)
        state.check()
    if not kernel.conjugate:
        update_atoms(state, data, kernel, rng)
    for j in range(data.n_groups):
        table = update_v_marginal(state, spec, j, v_steps[j], rng, table)
    if shape_step is not None:
        spec, table = update_shape_marginal(state, spec, log_prior,
                                            shape_step, rng, table)
    return spec, table


def _same_state(a, b):
    assert np.array_equal(a.counts, b.counts)
    assert all(np.array_equal(x, y)
               for x, y in zip(a.allocations, b.allocations))
    assert np.array_equal(a.v, b.v) and a.shape == b.shape
    if a.stats is not None:
        assert a.stats == b.stats
    else:
        assert len(a.atoms) == len(b.atoms)
        for (mu_a, cov_a), (mu_b, cov_b) in zip(a.atoms, b.atoms):
            assert np.array_equal(mu_a, mu_b)
            assert np.array_equal(cov_a, cov_b)


@pytest.mark.parametrize('conjugate', [True, False])
def test_sweep_and_one_off_redraws_agree(conjugate, monkeypatch):
    # marginal_sweep keeps one view per group's pass and writes it back
    # at the end; a redraw with rows=None builds a view and writes it
    # back at once.  Over 3 sweeps both give the same states, the same
    # chain of v and shape, and leave the generators at the same place.
    rng = np.random.default_rng(37)
    if conjugate:
        data = Dataset([np.concatenate([rng.normal(-2.0, 0.5, 15),
                                        rng.normal(2.0, 0.5, 15)]),
                        rng.normal(2.0, 0.5, 30)])
        kernel = UnivariateNormalGamma.from_data(data.stacked())
        spec = CoRMSpec.from_marginal(
            2, 1.0, MarginalFamily.generalized_gamma(0.3, 1.0),
            centring_mass=5.0)
        n_start = 8
    else:
        data = Dataset([np.vstack([rng.normal(-1.5, 0.5, size=(8, 2)),
                                   rng.normal(1.5, 0.5, size=(8, 2))]),
                        rng.normal(1.5, 0.5, size=(10, 2))])
        kernel = MultivariateNormalNIW.from_data(data.stacked())
        spec = gamma_spec(2, 1.0)
        n_start = 3

    def log_prior(phi):
        return -phi

    chains = []
    for _ in range(2):
        chain_rng = np.random.default_rng(41)
        chains.append({'rng': chain_rng, 'spec': spec, 'table': None,
                       'state': initial_state(data, spec, kernel, chain_rng,
                                              n_start=n_start),
                       'v_steps': [AdaptiveStepSize(), AdaptiveStepSize()],
                       'shape_step': AdaptiveStepSize() if conjugate
                       else None})
    sweep, one_off = chains
    write_back = ms._UrnRows.write_back

    def checked_write_back(rows):
        write_back(rows)
        rows.state.check()

    # count the clusters the passes open and drop
    moves = {'open': 0, 'drop': 0}
    detach, open_cluster = ms._UrnRows.detach, ms._UrnRows.open

    def counted_detach(rows, i):
        before = len(rows.counts)
        recycled = detach(rows, i)
        moves['drop'] += len(rows.counts) < before
        return recycled

    def counted_open(rows, *atom):
        moves['open'] += 1
        open_cluster(rows, *atom)

    monkeypatch.setattr(ms._UrnRows, 'write_back', checked_write_back)
    monkeypatch.setattr(ms._UrnRows, 'detach', counted_detach)
    monkeypatch.setattr(ms._UrnRows, 'open', counted_open)
    for _ in range(3):
        sweep['spec'], sweep['table'] = marginal_sweep(
            sweep['state'], data, sweep['spec'], kernel, sweep['rng'],
            sweep['v_steps'], sweep['shape_step'], log_prior,
            table=sweep['table'])
        table = one_off['table'] or KappaTable(one_off['spec'],
                                               one_off['state'].v)
        one_off['spec'], one_off['table'] = _one_off_sweep(
            one_off['state'], data, one_off['spec'], kernel, one_off['rng'],
            one_off['v_steps'], one_off['shape_step'], log_prior, table)
        _same_state(sweep['state'], one_off['state'])
        assert sweep['spec'].shape == one_off['spec'].shape
        assert np.array_equal(sweep['table'].v, one_off['table'].v)
        assert sweep['rng'].bit_generator.state \
            == one_off['rng'].bit_generator.state
    assert moves['drop'] > 0 and moves['open'] > 0
