'''Tests for the observation models: conjugate normal-gamma, NIW,
the flat prior-recovery kernel, grouped data handling, and the
Rao-Blackwellized predictive assembler.

Oracles are closed forms (Student-t predictives) or scipy quadratures,
never the package's own integration or sampling code.
'''

import inspect
import math

import mpmath
import numpy as np
import pytest
from scipy import integrate as sci
from scipy import stats

from corm.kernels import (
    Dataset,
    FlatKernel,
    MultivariateNormalNIW,
    PredictiveSnapshot,
    UnivariateNormalGamma,
    predictive_density,
)


# ---------------------------------------------------------------------------
# Dataset
# ---------------------------------------------------------------------------

def test_dataset_promotes_vectors_to_columns():
    data = Dataset([np.arange(5.0), [1.0, 2.0]])
    assert data.groups[0].shape == (5, 1)
    assert data.groups[1].shape == (2, 1)
    assert data.dimension == 1
    assert data.n_groups == 2
    assert list(data.counts) == [5, 2]


def test_dataset_keeps_matrix_groups():
    data = Dataset([np.zeros((4, 3)), np.ones((2, 3))])
    assert data.dimension == 3
    assert data.stacked().shape == (6, 3)


def test_dataset_rejects_bad_input():
    with pytest.raises(ValueError):
        Dataset([])
    with pytest.raises(ValueError):
        Dataset([np.zeros((0, 2))])
    with pytest.raises(ValueError):
        Dataset([np.array([1.0, np.nan])])
    with pytest.raises(ValueError):
        Dataset([np.zeros((3, 2)), np.zeros((3, 4))])
    with pytest.raises(ValueError):
        Dataset([np.zeros((2, 2, 2))])


# ---------------------------------------------------------------------------
# Univariate conjugate kernel
# ---------------------------------------------------------------------------

KERN = UnivariateNormalGamma(m0=0.5, kappa0=2.0, a0=3.0, b0=1.5)


def brute_marginal(kernel, rows):
    '''Direct double quadrature of the integrated likelihood, with the
    normal and gamma densities written out in math.'''
    rows = [float(y) for y in rows]

    def normal_pdf(x, mean, prec):
        return math.sqrt(prec / (2.0 * math.pi)) \
            * math.exp(-0.5 * prec * (x - mean) ** 2)

    def inner(tau):
        def over_mu(mu):
            like = math.prod(normal_pdf(y, mu, tau) for y in rows)
            return like * normal_pdf(mu, kernel.m0, kernel.kappa0 * tau)

        val, _ = sci.quad(over_mu, -30.0, 30.0, limit=200)
        a, b = kernel.a0, kernel.b0
        return val * math.exp(a * math.log(b) - math.lgamma(a)
                              + (a - 1.0) * math.log(tau) - b * tau)

    val, _ = sci.quad(inner, 1e-9, 60.0, limit=200)
    return val


def test_single_observation_marginal_is_student_t():
    scale = math.sqrt(KERN.b0 * (KERN.kappa0 + 1.0)
                      / (KERN.a0 * KERN.kappa0))
    for y in (-1.3, 0.5, 2.7):
        want = stats.t.logpdf(y, 2.0 * KERN.a0, loc=KERN.m0, scale=scale)
        assert KERN.log_marginal([y]) == pytest.approx(want, rel=1e-12)


def test_marginal_matches_brute_quadrature():
    rows = [0.2, -0.7, 1.1, 0.4]
    want = brute_marginal(KERN, rows)
    assert math.exp(KERN.log_marginal(rows)) == pytest.approx(want, rel=1e-6)


def test_empty_set_has_unit_marginal():
    assert KERN.log_marginal_stats(KERN.stats_empty()) == 0.0
    assert KERN.log_marginal([]) == 0.0


def test_predictive_is_marginal_ratio():
    rows = [0.2, -0.7, 1.1]
    stats_now = KERN.stats_empty()
    for y in rows:
        stats_now = KERN.stats_add(stats_now, y)
    for y in (-2.0, 0.0, 0.9):
        want = KERN.log_marginal(rows + [y]) - KERN.log_marginal(rows)
        row = KERN.predictive_row(stats_now)
        got, = KERN.log_predictive(y, [row])
        assert got == pytest.approx(want, rel=1e-10)


def _stats_of(values):
    stats_now = KERN.stats_empty()
    for y in values:
        stats_now = KERN.stats_add(stats_now, y)
    return stats_now


def ng_posterior(kernel, rows):
    '''(m_n, k_n, a_n, b_n) of the normal-gamma posterior after the
    observations in rows.'''
    rows = np.asarray(rows, dtype=float)
    n = rows.size
    kn = kernel.kappa0 + n
    mean = rows.mean() if n else 0.0
    bn = kernel.b0 + 0.5 * np.sum((rows - mean) ** 2) \
        + 0.5 * kernel.kappa0 * n * (mean - kernel.m0) ** 2 / kn
    loc = (kernel.kappa0 * kernel.m0 + rows.sum()) / kn
    return loc, kn, kernel.a0 + 0.5 * n, bn


def ng_student_t(kernel, rows):
    '''Degrees of freedom, location and scale of the normal-gamma
    posterior predictive after the observations in rows.'''
    loc, kn, an, bn = ng_posterior(kernel, rows)
    return 2.0 * an, loc, math.sqrt(bn * (kn + 1.0) / (an * kn))


def test_predictive_rows_match_student_t():
    # clusters from empty to 5,000 members, against 5 observations; the
    # seven equal values leave a sum of squared deviations that rounds
    # below zero, the branch where b_n clips it to zero
    rng = np.random.default_rng(3)
    equal = [0.7] * 7
    n, s, q = _stats_of(equal)
    assert q - s * s / n < 0.0
    clusters = [[], [0.2], [0.2, -0.7, 1.1], [3.0, 3.4, 2.9, 3.1], equal,
                rng.normal(1.0, 0.8, 50).tolist(),
                rng.normal(-0.5, 1.3, 5000).tolist()]
    rows = [KERN.predictive_row(_stats_of(c)) for c in clusters]
    assert all(len(row) == 4 and all(type(x) is float for x in row)
               for row in rows)
    y = np.array([-2.0, 0.0, 0.9, 3.2, 7.5])
    # one list of K values per observation, a float or a numpy scalar
    got = np.array([KERN.log_predictive(yi, rows) for yi in y])
    assert np.array_equal(got, [KERN.log_predictive(yi, rows)
                                for yi in y.tolist()])
    for k, c in enumerate(clusters):
        df, loc, scale = ng_student_t(KERN, c)
        if len(c) < 1000:
            want = stats.t.logpdf(y, df, loc=loc, scale=scale)
            rtol = 1e-12
        else:
            # lgamma(a_n + 1/2) - lgamma(a_n) at a_n = 2,505.5 cancels to
            # 8.7e-13 relative; the row's asymptotic series does not
            want = [t_logpdf_40_digits(yi, df, loc, scale) for yi in y]
            rtol = 1e-14
        assert np.allclose(got[:, k], want, rtol=rtol, atol=0.0)
        # one row alone
        alone = [KERN.log_predictive(yi, [rows[k]])[0] for yi in y]
        assert np.allclose(alone, want, rtol=rtol, atol=0.0)
    # at b0 = 1e-20 and m0 on the values, b_n is b0 with the clip and
    # negative without it
    sharp = UnivariateNormalGamma(m0=0.7, kappa0=2.0, a0=3.0, b0=1e-20)
    row = sharp.predictive_row(_stats_of(equal))
    df, loc, scale = ng_student_t(sharp, equal)
    assert np.allclose([sharp.log_predictive(yi, [row])[0] for yi in y],
                       stats.t.logpdf(y, df, loc=loc, scale=scale),
                       rtol=1e-12, atol=0.0)


def t_logpdf_40_digits(y, df, loc, scale):
    '''Student-t log density in mpmath at 40 digits.  At df near 10,000
    scipy.stats.t.logpdf is about 2e-12 off in relative terms, as its
    two log-gammas of about 2e4 cancel.'''
    with mpmath.workdps(40):
        df, z = mpmath.mpf(df), (mpmath.mpf(y) - loc) / scale
        return float(mpmath.loggamma((df + 1) / 2) - mpmath.loggamma(df / 2)
                     - mpmath.log(df * mpmath.pi * scale ** 2) / 2
                     - (df + 1) / 2 * mpmath.log1p(z * z / df))


def test_hyperparameters_are_read_only():
    # the table of count terms derives from them, so none may change;
    # the methods the benchmark's tracer wraps stay plain functions in
    # the class dict
    kern = UnivariateNormalGamma(m0=0.5, kappa0=2.0, a0=3.0, b0=1.5)
    row = kern.predictive_row(_stats_of([0.2, -0.7]))
    for name in ('m0', 'kappa0', 'a0', 'b0'):
        with pytest.raises(AttributeError):
            setattr(kern, name, 1.0)
    assert (kern.m0, kern.kappa0, kern.a0, kern.b0) == (0.5, 2.0, 3.0, 1.5)
    assert kern.predictive_row(_stats_of([0.2, -0.7])) == row
    for name in ('log_predictive', 'log_density', 'atom_posterior_draw',
                 'stats_empty', 'stats_add', 'stats_remove'):
        assert inspect.isfunction(vars(UnivariateNormalGamma)[name])


def test_stats_add_remove_roundtrip():
    stats_now = KERN.stats_empty()
    for y in (0.3, -1.2, 2.2):
        stats_now = KERN.stats_add(stats_now, y)
    stats_now = KERN.stats_remove(stats_now, -1.2)
    stats_ref = KERN.stats_add(KERN.stats_add(KERN.stats_empty(), 0.3), 2.2)
    assert stats_now[0] == stats_ref[0]
    assert stats_now[1] == pytest.approx(stats_ref[1])
    assert stats_now[2] == pytest.approx(stats_ref[2])


def test_atom_posterior_draw_moments():
    rng = np.random.default_rng(5)
    rows = np.array([1.0, 1.4, 0.8, 1.2])
    mn, _, an, bn = ng_posterior(KERN, rows)
    draws = np.array([KERN.atom_posterior_draw(rows, rng)
                      for _ in range(4000)])
    mus, taus = draws[:, 0], draws[:, 1]
    assert mus.mean() == pytest.approx(mn, abs=4.0 * mus.std() / 63.0)
    assert taus.mean() == pytest.approx(an / bn, abs=4.0 * taus.std() / 63.0)


def test_log_density_matches_norm():
    mu, tau = 0.7, 2.5
    for y in (-1.0, 0.7, 3.0):
        want = stats.norm.logpdf(y, mu, 1.0 / math.sqrt(tau))
        assert KERN.log_density(y, (mu, tau)) == pytest.approx(want,
                                                               rel=1e-12)
    # a batch (n, 1) against K stacked atoms gives (n, K)
    atoms = [(0.7, 2.5), (-1.2, 0.3), (4.0, 11.0)]
    stacked = KERN.stack_atoms(atoms)
    y = np.array([[-1.0], [0.7], [3.0], [5.5]])
    want = np.stack([stats.norm.logpdf(y[:, 0], m, 1.0 / math.sqrt(t))
                     for m, t in atoms], axis=1)
    got = KERN.log_density(y, stacked)
    assert got.shape == (4, 3)
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)
    assert np.allclose(KERN.log_density(y[2], stacked), want[2],
                       rtol=1e-12, atol=0.0)
    assert np.allclose(KERN.log_density(y, atoms[1]), want[:, 1],
                       rtol=1e-12, atol=0.0)


def test_density_on_grid_consistent_with_log_density():
    grid = np.linspace(-3.0, 3.0, 7)
    vals = KERN.density_on_grid((0.7, 2.5), grid)
    want = [math.exp(KERN.log_density(x, (0.7, 2.5))) for x in grid]
    assert np.allclose(vals, want, rtol=1e-12)


def test_prior_predictive_integrates_to_one():
    grid = np.linspace(-40.0, 41.0, 4001)
    vals = KERN.prior_predictive_on_grid(grid)
    assert np.trapezoid(vals, grid) == pytest.approx(1.0, abs=2e-4)


def test_from_data_recipe():
    y = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    kern = UnivariateNormalGamma.from_data(y)
    assert kern.m0 == pytest.approx(2.0)
    assert kern.kappa0 == pytest.approx(0.01)
    assert kern.a0 == pytest.approx(5.5)
    assert kern.b0 == pytest.approx((2.0 / 9.0) * y.var(ddof=1))
    with pytest.raises(ValueError):
        UnivariateNormalGamma.from_data([1.0])


def test_hyperparameter_validation():
    for bad in ({'kappa0': 0.0}, {'a0': -1.0}, {'b0': 0.0}):
        args = dict(m0=0.0, kappa0=1.0, a0=1.0, b0=1.0)
        args.update(bad)
        with pytest.raises(ValueError):
            UnivariateNormalGamma(**args)


# ---------------------------------------------------------------------------
# Multivariate NIW kernel
# ---------------------------------------------------------------------------

def test_niw_from_data_recipe():
    rng = np.random.default_rng(0)
    rows = rng.normal(size=(40, 2)) @ np.array([[1.0, 0.3], [0.0, 0.8]])
    kern = MultivariateNormalNIW.from_data(rows)
    assert np.allclose(kern.m0, rows.mean(axis=0))
    assert kern.lambda0 == pytest.approx(0.01)
    assert kern.nu0 == pytest.approx(12.0)
    cov = np.cov(rows, rowvar=False, ddof=1)
    assert np.allclose(kern.psi0, (4.0 / 9.0) * cov)
    # no closed marginal likelihood: the urn runs the auxiliary-atom scheme
    assert kern.conjugate is False


def test_niw_validation():
    with pytest.raises(ValueError):
        MultivariateNormalNIW(np.zeros(2), 0.0, 5.0, np.eye(2))
    with pytest.raises(ValueError):
        MultivariateNormalNIW(np.zeros(2), 1.0, 1.0, np.eye(2))
    with pytest.raises(ValueError):
        MultivariateNormalNIW(np.zeros(2), 1.0, 5.0,
                              np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ValueError):
        MultivariateNormalNIW(np.zeros(2), 1.0, 5.0, np.eye(3))


def test_niw_posterior_draw_moments():
    rng = np.random.default_rng(9)
    kern = MultivariateNormalNIW(np.zeros(2), 2.0, 10.0, np.eye(2))
    rows = rng.multivariate_normal([1.0, -1.0], 0.3 * np.eye(2), 25)
    n = rows.shape[0]
    ln = kern.lambda0 + n
    nun = kern.nu0 + n
    ybar = rows.mean(axis=0)
    mn = (kern.lambda0 * kern.m0 + n * ybar) / ln
    centred = rows - ybar
    psin = kern.psi0 + centred.T @ centred \
        + (kern.lambda0 * n / ln) * np.outer(ybar - kern.m0, ybar - kern.m0)
    mus = np.array([kern.atom_posterior_draw(rows, rng)[0]
                    for _ in range(3000)])
    want_cov = psin / (nun - 2.0 - 1.0)
    se = np.sqrt(np.diag(want_cov) / ln / 3000.0)
    assert np.all(np.abs(mus.mean(axis=0) - mn) < 5.0 * se)


def _niw_law_case(p, posterior, rng):
    '''A p-dimensional NIW kernel and its parameters (m, lambda, nu,
    Psi) for a posterior given 20 rows, or for the centring.'''
    a = np.tril(0.3 * np.ones((p, p))) + np.diag(np.arange(1.0, p + 1.0))
    kern = MultivariateNormalNIW(np.linspace(-1.0, 1.0, p), 2.0, p + 9.0,
                                 a @ a.T)
    if not posterior:
        return kern, None, (kern.m0, kern.lambda0, kern.nu0, kern.psi0)
    rows = rng.normal(0.5, 1.5, size=(20, p))
    n = rows.shape[0]
    ln = kern.lambda0 + n
    ybar = rows.mean(axis=0)
    centred = rows - ybar
    drift = ybar - kern.m0
    psin = kern.psi0 + centred.T @ centred \
        + (kern.lambda0 * n / ln) * np.outer(drift, drift)
    mn = (kern.lambda0 * kern.m0 + n * ybar) / ln
    return kern, rows, (mn, ln, kern.nu0 + n, psin)


@pytest.mark.parametrize('p', [1, 2, 3])
@pytest.mark.parametrize('posterior', [True, False],
                         ids=['posterior', 'prior_batch'])
def test_niw_draw_law(p, posterior):
    # Sigma ~ IW(nu, Psi): its mean is Psi / (nu - p - 1) and Sigma_11 is
    # inverse gamma ((nu - p + 1)/2, Psi_11 / 2); mu | Sigma ~ N(m,
    # Sigma / lambda), so sqrt(lambda) L^-1 (mu - m) is standard normal
    # for L the Cholesky factor of the drawn Sigma
    rng = np.random.default_rng(40 + p)
    kern, rows, (m, lam, nu, psi) = _niw_law_case(p, posterior, rng)
    if posterior:
        atoms = [kern.atom_posterior_draw(rows, rng) for _ in range(3000)]
    else:
        batches = [kern.prior_draws(3, rng) for _ in range(1500)]
        assert all(len(b) == 3 for b in batches)
        atoms = [atom for b in batches for atom in b]
    mu, cov = kern.stack_atoms(atoms)
    n = len(atoms)

    se = cov.std(axis=0) / math.sqrt(n)
    assert np.all(np.abs(cov.mean(axis=0) - psi / (nu - p - 1.0)) < 4.0 * se)

    law = stats.invgamma(0.5 * (nu - p + 1.0), scale=0.5 * psi[0, 0])
    assert stats.kstest(cov[:, 0, 0], law.cdf).pvalue > 1e-3

    white = np.linalg.solve(np.linalg.cholesky(cov),
                            (mu - m)[..., None])[..., 0] * math.sqrt(lam)
    assert stats.kstest(white.ravel(), stats.norm.cdf).pvalue > 1e-3

    if not posterior:
        # the atoms of one batch are independent: rank correlation of
        # Sigma_11 between each batch's first and second atom
        first = np.array([b[0][1][0, 0] for b in batches])
        second = np.array([b[1][1][0, 0] for b in batches])
        r = stats.spearmanr(first, second).statistic
        assert abs(r) < 4.0 / math.sqrt(len(batches) - 1)


def test_niw_prior_predictive_is_multivariate_t():
    # the centring's predictive is t with nu - p + 1 degrees of freedom
    # and shape Psi (lambda + 1) / (lambda (nu - p + 1))
    kern = MultivariateNormalNIW(np.array([0.5, -1.0]), 2.0, 8.0,
                                 np.array([[1.5, 0.4], [0.4, 0.8]]))
    df = kern.nu0 - 1.0
    shape = kern.psi0 * (kern.lambda0 + 1.0) / (kern.lambda0 * df)
    points = np.array([[0.5, -1.0], [1.2, -0.6], [-0.4, -1.5]])
    got = kern.prior_predictive_on_grid(points, np.random.default_rng(3),
                                        draws=20000)
    want = stats.multivariate_t(kern.m0, shape, df=df).pdf(points)
    assert np.allclose(got, want, rtol=0.06)


def test_niw_log_density_matches_scipy():
    kern = MultivariateNormalNIW(np.zeros(2), 1.0, 5.0, np.eye(2))
    cov = np.array([[0.8, 0.2], [0.2, 1.1]])
    mu = np.array([0.4, -0.9])
    for y in ([0.0, 0.0], [1.0, -2.0]):
        want = stats.multivariate_normal.logpdf(y, mu, cov)
        assert kern.log_density(y, (mu, cov)) == pytest.approx(want,
                                                               rel=1e-10)
    # a batch (n, 2) against K stacked atoms gives (n, K)
    atoms = [(mu, cov), (np.array([2.0, 1.0]), np.diag([0.5, 3.0])),
             (np.zeros(2), np.array([[2.0, -0.9], [-0.9, 0.6]]))]
    stacked = kern.stack_atoms(atoms)
    assert stacked[0].shape == (3, 2) and stacked[1].shape == (3, 2, 2)
    y = np.array([[0.0, 0.0], [1.0, -2.0], [2.5, 0.4], [-3.0, 1.0]])
    want = np.stack([stats.multivariate_normal.logpdf(y, m, c)
                     for m, c in atoms], axis=1)
    got = kern.log_density(y, stacked)
    assert got.shape == (4, 3)
    assert np.allclose(got, want, rtol=1e-10, atol=0.0)
    assert np.allclose(kern.log_density(y[3], stacked), want[3],
                       rtol=1e-10, atol=0.0)
    assert np.allclose(kern.log_density(y, atoms[2]), want[:, 2],
                       rtol=1e-10, atol=0.0)


# ---------------------------------------------------------------------------
# Flat kernel
# ---------------------------------------------------------------------------

def test_flat_kernel_is_unit():
    kern = FlatKernel()
    stats_now = kern.stats_add(kern.stats_empty(), 3.0)
    assert kern.log_marginal_stats(stats_now) == 0.0
    assert kern.log_predictive(1.0, [kern.predictive_row(stats_now)]) \
        == [0.0]
    assert kern.log_density(1.0, 0.5) == 0.0
    assert kern.log_marginal([1.0, 2.0]) == 0.0
    assert np.all(kern.density_on_grid(0.5, np.zeros(4)) == 1.0)
    # zeros of the broadcast shape: obs shape + atom shape, and one
    # zero per predictive row
    stacked = kern.stack_atoms([0.1, 0.5, 0.9])
    batch = np.ones((5, 2))
    for got, shape in ((kern.log_density(batch, stacked), (5, 3)),
                       (kern.log_density(batch[0], stacked), (3,)),
                       (kern.log_density(batch, 0.5), (5,))):
        assert got.shape == shape and np.all(got == 0.0)
    rows = [kern.predictive_row(stats_now)] * 4
    assert kern.log_predictive(1.0, rows) == [0.0] * 4


# ---------------------------------------------------------------------------
# Predictive assembly
# ---------------------------------------------------------------------------

def test_predictive_density_weights_and_residual():
    kern = UnivariateNormalGamma(0.0, 1.0, 2.0, 1.0)
    grid = np.linspace(-25.0, 25.0, 2501)
    snaps = [
        PredictiveSnapshot(np.array([2.0, 1.0]),
                           [(-1.0, 4.0), (1.5, 4.0)], 0.5),
        PredictiveSnapshot(np.array([1.0, 0.0]),
                           [(-1.0, 4.0), (1.5, 4.0)], 0.0),
    ]
    dens = predictive_density(snaps, kern, 0, grid)
    assert dens.group == 0
    # hand-built mixture with the same weights
    comp = [kern.density_on_grid(atom, grid)
            for atom in [(-1.0, 4.0), (1.5, 4.0)]]
    prior = kern.prior_predictive_on_grid(grid)
    sweep1 = (2.0 * comp[0] + 1.0 * comp[1] + 0.5 * prior) / 3.5
    sweep2 = comp[0]
    assert np.allclose(dens.values, 0.5 * (sweep1 + sweep2), rtol=1e-10)
    assert np.trapezoid(dens.values, grid) == pytest.approx(1.0, abs=2e-4)


def test_predictive_density_skips_empty_sweeps():
    kern = UnivariateNormalGamma(0.0, 1.0, 2.0, 1.0)
    grid = np.linspace(-5.0, 5.0, 51)
    good = PredictiveSnapshot(np.array([1.0]), [(0.0, 1.0)], 0.0)
    dead = PredictiveSnapshot(np.array([0.0]), [(0.0, 1.0)], 0.0)
    dens = predictive_density([dead, good], kern, 0, grid)
    ref = predictive_density([good], kern, 0, grid)
    assert np.allclose(dens.values, ref.values)
    with pytest.raises(ValueError):
        predictive_density([dead], kern, 0, grid)
