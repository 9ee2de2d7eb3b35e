'''Convergence diagnostics for the benchmark's chains.

Rank-normalised bulk effective sample size and split R-hat, following
Vehtari, Gelman, Simpson, Carpenter and Buerkner (2021), "Rank-
normalization, folding, and localization: an improved R-hat for
assessing convergence of MCMC", arXiv:1903.08008.  Draws are passed as an
(M, N) array: M chains of N draws each.
'''

import math

import numpy as np
from scipy.special import ndtri
from scipy.stats import rankdata

__all__ = ['ess', 'bulk_ess', 'split_rhat']


def _as_chains(draws):
    draws = np.asarray(draws, dtype=float)
    if draws.ndim == 1:
        draws = draws[None, :]
    if draws.ndim != 2:
        raise ValueError('draws must be an (M, N) array')
    if not np.all(np.isfinite(draws)):
        raise ValueError('draws must be finite')
    return draws


def _split(draws):
    '''Split each chain into halves, dropping the middle draw of odd N.'''
    half = draws.shape[1] // 2
    return np.concatenate([draws[:, :half], draws[:, -half:]], axis=0)


def _rank_normalize(draws):
    '''Average ranks over all chains pooled, mapped through the normal
    quantile function with the Blom offset 3/8.'''
    ranks = rankdata(draws, method='average').reshape(draws.shape)
    return ndtri((ranks - 0.375) / (draws.size + 0.25))


def _autocovariance(x):
    '''Biased autocovariance of each row at every lag, by FFT.'''
    n = x.shape[1]
    centred = x - x.mean(axis=1, keepdims=True)
    size = 1 << (2 * n - 1).bit_length()
    spectrum = np.fft.rfft(centred, n=size, axis=1)
    power = spectrum * np.conj(spectrum)
    return np.fft.irfft(power, n=size, axis=1)[:, :n] / n


def ess(draws):
    '''Effective sample size of the (M, N) draws as given, with Geyer's
    initial positive and monotone sequence estimators over the combined
    chains.  Returns nan when fewer than 4 draws per chain or when every
    draw is equal.'''
    draws = _as_chains(draws)
    m, n = draws.shape
    if n < 4:
        return math.nan
    acov = _autocovariance(draws)
    mean_var = float(acov[:, 0].mean() * n / (n - 1.0))
    var_plus = mean_var * (n - 1.0) / n
    if m > 1:
        var_plus += float(draws.mean(axis=1).var(ddof=1))
    if not var_plus > 0.0:
        return math.nan
    rho = 1.0 - (mean_var - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0
    # Geyer: sum autocorrelations in consecutive pairs while the pair
    # sums stay positive
    t = 0
    while t + 1 < n and rho[t] + rho[t + 1] > 0.0:
        t += 2
    pairs = rho[:t].reshape(-1, 2).sum(axis=1) if t else np.zeros(0)
    # ... then force the pair sums to be non-increasing
    pairs = np.minimum.accumulate(pairs)
    tau = -1.0 + 2.0 * float(pairs.sum())
    tau = max(tau, 1.0 / math.log10(m * n))
    return m * n / tau


def bulk_ess(draws):
    '''Bulk ESS: the ESS of rank-normalised split chains.'''
    draws = _as_chains(draws)
    if draws.shape[1] < 8:
        return math.nan
    return ess(_rank_normalize(_split(draws)))


def _rhat(chains):
    n = chains.shape[1]
    within = float(chains.var(axis=1, ddof=1).mean())
    between = n * float(chains.mean(axis=1).var(ddof=1))
    if not within > 0.0:
        return math.nan
    return math.sqrt(((n - 1.0) / n * within + between / n) / within)


def split_rhat(draws):
    '''Rank-normalised split R-hat: the larger of the bulk R-hat and the
    R-hat of the folded draws |x - median|.'''
    draws = _as_chains(draws)
    if draws.shape[1] < 8:
        return math.nan
    split = _split(draws)
    folded = np.abs(split - np.median(split))
    return max(_rhat(_rank_normalize(split)), _rhat(_rank_normalize(folded)))
