'''Observation models for normalized-CoRM mixtures.

Two kernel families are provided: a conjugate univariate normal with
normal-gamma centring (closed-form marginal likelihoods, suitable for
the conjugate urn sampler) and a non-conjugate multivariate normal with
normal-inverse-Wishart centring (atom draws only).  A flat kernel with
unit density supports prior-recovery and joint-correctness checks.
Posterior predictive density estimation averages per-sweep mixtures.

Array shapes.  An observation is a scalar or a (p,) row; a batch is an
(n, p) array, as in a Dataset group.  ``stack_atoms`` turns a list of K
atoms into one stacked atom:

    UnivariateNormalGamma   (mu, tau), each of shape (K,)
    MultivariateNormalNIW   (mu, cov) of shapes (K, p) and (K, p, p)
    FlatKernel              an array of shape (K,)

``log_density(y, atoms)`` returns one value per (observation, atom)
pair, of shape obs + atom: obs is () for one observation and (n,) for a
batch, atom is () for one atom and (K,) for stacked atoms.

A conjugate kernel scores a new observation against a cluster through
the cluster's predictive row, ``predictive_row(stats)``, a tuple of
floats.  ``log_predictive(y, rows)`` takes one observation y (a float,
or a numpy scalar that float() converts) and a sequence of K rows, and
returns a list of K floats.  Rows and values are Python floats, not
arrays, because the urn sampler scores one observation at a time
against the K + 1 rows of its clusters, about ten, where numpy's fixed
cost per call outweighs the arithmetic.  The normal-gamma row is
(location, 1/(df scale^2), (df + 1)/2, log normaliser) of its Student-t
predictive; the flat kernel's row is (0.0,).  The normal-gamma kernel
keeps the row's terms that depend on the count alone, log-gammas among
them, in a table indexed by the count, so a row costs one log.

The non-conjugate urn scores against atoms instead, which a kernel
draws: ``atom_posterior_draw(rows, rng)`` one atom given a cluster's
rows, and ``prior_draws(size, rng)`` a list of size independent atoms
from the centring, which also gives the slice sampler's new jumps their
atoms.  ``atom_posterior_draws(y, labels, n_labels, rng)`` redraws every
atom of a labelling at once: given the (n, p) rows y and their labels,
it returns one atom per label 0..n_labels-1, in label order, from the
random draws atom_posterior_draw would make label by label (a prior draw
for a label no row carries).  The normal-gamma kernel takes every
label's sufficient statistics from three bincount calls, so its atoms
may differ from atom_posterior_draw's in the last bits, the sums being
taken in another order; the others split the rows by label.  Every
kernel gives all three.
'''

import math
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

__all__ = [
    'Dataset',
    'DensityGrid',
    'FlatKernel',
    'MultivariateNormalNIW',
    'PredictiveSnapshot',
    'UnivariateNormalGamma',
    'predictive_density',
]

LOG_2PI = math.log(2.0 * math.pi)


def _univariate(y, stacked):
    '''A univariate observation as a scalar, or a batch (n, 1) as an (n,)
    vector with a trailing axis when it meets stacked atoms.'''
    y = np.asarray(y, dtype=float)
    if y.ndim == 2:
        return y[:, :1] if stacked else y[:, 0]
    return y.reshape(())


def _batch_shape(y):
    return np.shape(y)[:1] if np.ndim(y) == 2 else ()


def _members(y, labels, n_labels):
    '''The rows of y carrying each label 0..n_labels-1, from one argsort
    and bincount pass, in the order of y within a label.'''
    order = np.argsort(labels, kind='stable')
    ends = np.cumsum(np.bincount(labels, minlength=n_labels))
    return np.split(y[order], ends[:-1])


@dataclass
class Dataset:
    '''Grouped observations: group j holds an (n_j, p) array.'''
    groups: list

    def __post_init__(self):
        if not self.groups:
            raise ValueError('dataset needs at least one group')
        cleaned = []
        for j, y in enumerate(self.groups):
            y = np.asarray(y, dtype=float)
            if y.ndim == 1:
                y = y[:, None]
            if y.ndim != 2:
                raise ValueError('group %d must be a vector or an '
                                 '(n, p) array' % (j + 1))
            if y.shape[0] < 1:
                raise ValueError('group %d is empty' % (j + 1))
            if not np.all(np.isfinite(y)):
                raise ValueError('group %d has non-finite values' % (j + 1))
            cleaned.append(y)
        p = cleaned[0].shape[1]
        for j, y in enumerate(cleaned):
            if y.shape[1] != p:
                raise ValueError('group %d has dimension %d, expected %d'
                                 % (j + 1, y.shape[1], p))
        self.groups = cleaned

    @property
    def n_groups(self):
        return len(self.groups)

    @property
    def dimension(self):
        return self.groups[0].shape[1]

    @property
    def counts(self):
        return np.array([y.shape[0] for y in self.groups])

    def stacked(self):
        return np.concatenate(self.groups, axis=0)


@dataclass
class DensityGrid:
    '''Posterior predictive density of one group on evaluation points.'''
    group: int
    points: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape[0] != self.points.shape[0]:
            raise ValueError('points and values disagree in length')
        if np.any(self.values < 0.0):
            raise ValueError('density values must be nonnegative')


@dataclass
class PredictiveSnapshot:
    '''One sweep's mixture for one group: cluster weights, their atoms,
    and the leftover mass attached to the prior predictive.'''
    weights: np.ndarray
    atoms: list
    residual: float


def _log_gamma_half_ratio(a):
    '''log Gamma(a + 1/2) - log Gamma(a).  Past a = 50 the difference of
    lgamma values cancels (8.7e-13 relative in a Student-t row at a =
    2,505.5), and the asymptotic series, whose next term 31 / (18432 a^9)
    is below 9e-19, takes over.'''
    if a < 50.0:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    r = 1.0 / (a * a)
    return 0.5 * math.log(a) - (0.125 - r * (1.0 / 192.0 - r * (
        1.0 / 640.0 - r * (17.0 / 14336.0)))) / a


class _CountTerms(dict):
    '''The normal-gamma row's terms that depend on the count n alone,
    computed on the first lookup of each n: a_n + 1/2, k_n / (2 (k_n +
    1)) and lgamma(a_n + 1/2) - lgamma(a_n) - log(2 pi (k_n + 1) / k_n)
    / 2.'''

    def __init__(self, kappa0, a0):
        super().__init__()
        self.kappa0, self.a0 = kappa0, a0

    def __missing__(self, n):
        kn, an = self.kappa0 + n, self.a0 + 0.5 * n
        terms = self[n] = (an + 0.5, kn / (2.0 * (kn + 1.0)),
                           _log_gamma_half_ratio(an)
                           - 0.5 * math.log(2.0 * math.pi * (kn + 1.0) / kn))
        return terms


class UnivariateNormalGamma:
    '''Conjugate normal kernel: y ~ N(mu, 1/tau) with centring
    mu | tau ~ N(m0, 1/(kappa0 tau)), tau ~ Ga(a0, b0).  The table of
    count terms derives from m0, kappa0, a0 and b0, which are read-only.'''

    conjugate = True

    m0, kappa0, a0, b0 = (property(attrgetter('_' + name))
                          for name in ('m0', 'kappa0', 'a0', 'b0'))

    def __init__(self, m0, kappa0, a0, b0):
        if not (kappa0 > 0.0 and a0 > 0.0 and b0 > 0.0):
            raise ValueError('kappa0, a0, b0 must be positive')
        self._m0, self._kappa0, self._a0, self._b0 = map(
            float, (m0, kappa0, a0, b0))
        self._k0m0 = self._kappa0 * self._m0
        self._terms = _CountTerms(self._kappa0, self._a0)

    @classmethod
    def from_data(cls, y):
        '''Empirical centring: m0 the data mean, kappa0 = 0.01, a0 = 5.5,
        b0 (2/9) of the sample variance.  Others go through cls(...).'''
        y = np.asarray(y, dtype=float).ravel()
        if y.size < 2:
            raise ValueError('need at least two observations')
        return cls(y.mean(), 0.01, 5.5, (2.0 / 9.0) * y.var(ddof=1))

    # sufficient statistics are (count, sum, sum of squares)
    def stats_empty(self):
        return (0, 0.0, 0.0)

    def stats_add(self, stats, y):
        n, s, q = stats
        y = float(y)
        return (n + 1, s + y, q + y * y)

    def stats_remove(self, stats, y):
        n, s, q = stats
        y = float(y)
        return (n - 1, s - y, q - y * y)

    def _posterior(self, stats):
        n, s, q = stats
        kn = self._kappa0 + n
        m = n or 1      # an empty set's sums are 0, and its b_n is b0
        c, d = q - s * s / m, s / m - self._m0
        bn = self._b0 + 0.5 * (0.0 if c < 0.0 else c) \
            + self._kappa0 * n * (d * d) / (2.0 * kn)
        return (self._k0m0 + s) / kn, kn, self._a0 + 0.5 * n, bn

    def log_marginal_stats(self, stats):
        '''log of g(y set) = int prod_i k(y_i | mu, tau) dNG(mu, tau).'''
        _, kn, an, bn = self._posterior(stats)
        return (-0.5 * stats[0] * LOG_2PI
                + 0.5 * (math.log(self._kappa0) - math.log(kn))
                + math.lgamma(an) - math.lgamma(self._a0)
                + self._a0 * math.log(self._b0) - an * math.log(bn))

    def log_marginal(self, rows):
        rows = np.asarray(rows, dtype=float).ravel()
        stats = (rows.size, float(rows.sum()), float(np.square(rows).sum()))
        return self.log_marginal_stats(stats)

    def predictive_row(self, stats):
        '''The cluster's Student-t posterior predictive as (location,
        1/(df scale^2), (df + 1)/2, log normaliser).'''
        mn, _, _, bn = self._posterior(stats)
        half, ratio, c_n = self._terms[stats[0]]
        return mn, ratio / bn, half, c_n - 0.5 * math.log(bn)

    def log_predictive(self, y, rows):
        '''Student-t log predictive of one observation y under each
        predictive row in rows, as a list.'''
        y = float(y)
        return [log_norm - half * math.log1p((y - loc) * (y - loc) * inv)
                for loc, inv, half, log_norm in rows]

    @staticmethod
    def _draw(posterior, rng):
        mn, kn, an, bn = posterior
        tau = rng.gamma(an) / bn
        mu = rng.normal(mn, 1.0 / math.sqrt(kn * tau))
        return (mu, tau)

    def atom_posterior_draw(self, rows, rng):
        rows = np.asarray(rows, dtype=float).ravel()
        stats = (rows.size, float(rows.sum()), float(np.square(rows).sum()))
        return self._draw(self._posterior(stats), rng)

    def atom_posterior_draws(self, y, labels, n_labels, rng):
        '''One posterior draw per label, each label's (n, sum y, sum y^2)
        from a bincount over the rows y.'''
        y = np.asarray(y, dtype=float).ravel()
        stats = zip(np.bincount(labels, minlength=n_labels).tolist(),
                    np.bincount(labels, y, n_labels).tolist(),
                    np.bincount(labels, y * y, n_labels).tolist())
        return [self._draw(self._posterior(s), rng) for s in stats]

    def prior_draws(self, size, rng):
        '''size independent atoms from the centring, as a list: one
        posterior draw given no rows each.'''
        return [self.atom_posterior_draw((), rng) for _ in range(size)]

    def stack_atoms(self, atoms):
        mu, tau = np.asarray(atoms, dtype=float).reshape(-1, 2).T
        return mu, tau

    def log_density(self, y, atoms):
        mu, tau = atoms
        y = _univariate(y, np.ndim(mu))
        return 0.5 * (np.log(tau) - LOG_2PI) - 0.5 * tau * (y - mu) ** 2

    def density_on_grid(self, atom, points):
        points = np.asarray(points, dtype=float).ravel()
        return np.exp(self.log_density(points[:, None], atom))

    def prior_predictive_on_grid(self, points):
        points = np.asarray(points, dtype=float).ravel()
        rows = [self.predictive_row(self.stats_empty())]
        return np.exp([self.log_predictive(y, rows)[0]
                       for y in points.tolist()])


class MultivariateNormalNIW:
    '''Multivariate normal kernel with normal-inverse-Wishart centring,
    used through explicit atom draws (the urn treats it as
    non-conjugate).

    An atom is (mu, cov) with cov ~ IW(nu, Psi) and mu | cov ~ N(m,
    cov / lambda).  atom_posterior_draw draws one atom given a cluster's
    rows; prior_draws(size, rng) draws size independent atoms from the
    centring, as the auxiliary atoms of a non-conjugate urn redraw.  Both
    go through one routine, which draws every cov of the batch in one
    scipy.stats.invwishart call and every mu from one batched Cholesky
    factor times standard normals.  scipy.stats is imported there, on the
    first draw, not with the module: it takes about 0.3 s, most of a
    fresh corm process's start, and nothing else in corm uses it.
    '''

    conjugate = False

    def __init__(self, m0, lambda0, nu0, psi0):
        self.m0 = np.asarray(m0, dtype=float).ravel()
        p = self.m0.size
        self.lambda0 = float(lambda0)
        self.nu0 = float(nu0)
        self.psi0 = np.asarray(psi0, dtype=float)
        if self.lambda0 <= 0.0:
            raise ValueError('lambda0 must be positive')
        if self.psi0.shape != (p, p):
            raise ValueError('psi0 must be %d x %d' % (p, p))
        if not self.nu0 > p - 1:
            raise ValueError('degrees of freedom must exceed p - 1')
        try:
            np.linalg.cholesky(self.psi0)
        except np.linalg.LinAlgError:
            raise ValueError('psi0 must be positive definite') from None

    @classmethod
    def from_data(cls, rows):
        '''Empirical centring: m0 the data mean, lambda0 = 0.01, nu0 = p +
        10, psi0 (4/9) of the sample covariance.  Others go through
        cls(...).'''
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        p = rows.shape[1]
        if rows.shape[0] < p + 1:
            raise ValueError('need more observations than dimensions')
        cov = np.cov(rows, rowvar=False, ddof=1).reshape(p, p)
        return cls(rows.mean(axis=0), 0.01, p + 10, (4.0 / 9.0) * cov)

    def _posterior(self, rows):
        '''(m_n, lambda_n, nu_n, Psi_n) given the (n, p) rows.'''
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        if rows.size == 0:
            return self.m0, self.lambda0, self.nu0, self.psi0
        n = rows.shape[0]
        ln = self.lambda0 + n
        ybar = rows.mean(axis=0)
        centred = rows - ybar
        drift = np.outer(ybar - self.m0, ybar - self.m0)
        psin = self.psi0 + centred.T @ centred \
            + (self.lambda0 * n / ln) * drift
        return (self.lambda0 * self.m0 + n * ybar) / ln, ln, self.nu0 + n, psin

    @staticmethod
    def _draws(mean, lam, df, scale, size, rng):
        '''size independent atoms (mu, cov) from NIW(mean, lam, df,
        scale): one inverse-Wishart call for every cov, then each mu is
        mean + chol(cov) z / sqrt(lam) with z standard normal.'''
        from scipy.stats import invwishart  # on first use: see the class

        p = mean.size
        cov = invwishart.rvs(df=df, scale=scale, size=size,
                             random_state=rng).reshape(size, p, p)
        white = rng.standard_normal((size, p, 1))
        mu = mean + (np.linalg.cholesky(cov) @ white)[..., 0] / math.sqrt(lam)
        return list(zip(mu, cov))

    def atom_posterior_draw(self, rows, rng):
        return self._draws(*self._posterior(rows), 1, rng)[0]

    def atom_posterior_draws(self, y, labels, n_labels, rng):
        '''One posterior draw per label, given the rows of y carrying it.'''
        return [self.atom_posterior_draw(rows, rng)
                for rows in _members(y, labels, n_labels)]

    def prior_draws(self, size, rng):
        '''size independent atoms from the centring, as a list.'''
        return self._draws(self.m0, self.lambda0, self.nu0, self.psi0, size,
                           rng)

    def stack_atoms(self, atoms):
        p = self.m0.size
        mu = np.array([a[0] for a in atoms], dtype=float).reshape(-1, p)
        cov = np.array([a[1] for a in atoms], dtype=float).reshape(-1, p, p)
        return mu, cov

    def log_density(self, y, atoms):
        mu, cov = atoms
        y = np.asarray(y, dtype=float)
        if y.ndim == 2 and np.ndim(mu) == 2:
            y = y[:, None, :]
        diff = y - mu
        chol = np.linalg.cholesky(cov)
        white = np.linalg.solve(chol, diff[..., None])[..., 0]
        return -0.5 * (self.m0.size * LOG_2PI
                       + np.sum(white * white, axis=-1)) \
            - np.log(np.diagonal(chol, axis1=-2, axis2=-1)).sum(axis=-1)

    def density_on_grid(self, atom, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return np.exp(self.log_density(points, atom))

    def prior_predictive_on_grid(self, points, rng=None, draws=200):
        '''Monte Carlo prior predictive from fixed quasi-draws of the
        centring; exact enough for residual-mass plumbing.'''
        rng = np.random.default_rng(0) if rng is None else rng
        atoms = self.stack_atoms(self.prior_draws(draws, rng))
        return self.density_on_grid(atoms, points).mean(axis=1)


class FlatKernel:
    '''Unit-density kernel on a dummy atom space; every marginal and
    predictive equals one.  Supports prior-recovery checks.'''

    conjugate = True

    def stats_empty(self):
        return (0,)

    def stats_add(self, stats, y):
        return (stats[0] + 1,)

    def stats_remove(self, stats, y):
        return (stats[0] - 1,)

    def log_marginal_stats(self, stats):
        return 0.0

    def log_marginal(self, rows):
        return 0.0

    def predictive_row(self, stats):
        return (0.0,)

    def log_predictive(self, y, rows):
        return [0.0] * len(rows)

    def atom_posterior_draw(self, rows, rng):
        return float(rng.uniform())

    def atom_posterior_draws(self, y, labels, n_labels, rng):
        return self.prior_draws(n_labels, rng)

    def prior_draws(self, size, rng):
        return rng.uniform(size=size).tolist()

    def stack_atoms(self, atoms):
        return np.asarray(atoms, dtype=float)

    def log_density(self, y, atoms):
        return np.zeros(_batch_shape(y) + np.shape(atoms))

    def density_on_grid(self, atom, points):
        return np.ones(np.atleast_1d(points).shape[0])

    def prior_predictive_on_grid(self, points):
        return np.ones(np.atleast_1d(points).shape[0])


def predictive_density(snapshots, kernel, group, points):
    '''Rao-Blackwellized posterior predictive for one group: average of
    per-sweep normalized mixtures of kernel densities at cluster atoms
    plus residual mass times the prior predictive.'''
    points = np.asarray(points, dtype=float)
    flat = points.ravel() if points.ndim == 1 else points
    prior_curve = None
    total = np.zeros(np.atleast_1d(flat).shape[0]
                     if points.ndim == 1 else points.shape[0])
    count = 0
    for snap in snapshots:
        weights = np.asarray(snap.weights, dtype=float)
        mass = weights.sum() + snap.residual
        if not mass > 0.0:
            continue
        sweep = np.zeros_like(total)
        for w, atom in zip(weights, snap.atoms):
            if w > 0.0:
                sweep += w * kernel.density_on_grid(atom, points)
        if snap.residual > 0.0:
            if prior_curve is None:
                prior_curve = kernel.prior_predictive_on_grid(points)
            sweep += snap.residual * prior_curve
        total += sweep / mass
        count += 1
    if count == 0:
        raise ValueError('no usable sweeps in the trace')
    return DensityGrid(group, points, total / count)
