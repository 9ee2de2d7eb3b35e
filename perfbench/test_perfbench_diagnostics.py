'''Closed-form checks of the benchmark's ESS and split R-hat.'''

import numpy as np
import pytest

from diagnostics import bulk_ess, ess, split_rhat


def _ar1(rng, rho, chains, draws):
    out = np.empty((chains, draws))
    x = rng.normal(size=chains) / np.sqrt(1.0 - rho * rho)
    noise = rng.normal(size=(chains, draws))
    for t in range(draws):
        x = rho * x + noise[:, t]
        out[:, t] = x
    return out


def test_iid_ess_is_the_draw_count():
    rng = np.random.default_rng(11)
    draws = rng.normal(size=(4, 2000))
    assert ess(draws) == pytest.approx(8000, rel=0.1)
    assert bulk_ess(draws) == pytest.approx(8000, rel=0.1)


@pytest.mark.parametrize('rho', [0.5, 0.9])
def test_ar1_ess_matches_closed_form(rho):
    rng = np.random.default_rng(12)
    draws = _ar1(rng, rho, 4, 20_000)
    want = draws.size * (1.0 - rho) / (1.0 + rho)
    assert ess(draws) == pytest.approx(want, rel=0.1)
    assert bulk_ess(draws) == pytest.approx(want, rel=0.1)


def test_bulk_ess_ignores_monotone_transforms():
    rng = np.random.default_rng(13)
    draws = _ar1(rng, 0.7, 4, 5000)
    assert bulk_ess(np.exp(draws)) == pytest.approx(bulk_ess(draws),
                                                    rel=1e-12)


def test_antithetic_chain_is_capped():
    # a negatively correlated chain has ESS above N, bounded by the
    # N log10(N) cap on 1 / tau
    draws = _ar1(np.random.default_rng(14), -0.5, 4, 5000)
    got = ess(draws)
    assert draws.size < got <= draws.size * np.log10(draws.size)


def test_rhat_near_one_for_mixed_chains():
    draws = np.random.default_rng(15).normal(size=(4, 1000))
    assert split_rhat(draws) == pytest.approx(1.0, abs=0.01)


def test_rhat_flags_separated_chains():
    draws = np.random.default_rng(16).normal(size=(4, 1000))
    draws[0] += 3.0
    assert split_rhat(draws) > 1.1


def test_rhat_flags_a_trend_within_chains():
    # split chains catch drift that whole-chain means would not
    draws = np.random.default_rng(17).normal(size=(4, 1000))
    draws += np.linspace(0.0, 4.0, 1000)
    assert split_rhat(draws) > 1.1


def test_rhat_flags_unequal_scales():
    # the folded draws catch chains that differ only in spread
    draws = np.random.default_rng(18).normal(size=(4, 1000))
    draws[0] *= 4.0
    assert split_rhat(draws) > 1.05


def test_degenerate_inputs():
    assert np.isnan(ess(np.ones((2, 50))))
    assert np.isnan(bulk_ess(np.zeros((2, 5))))
    with pytest.raises(ValueError):
        ess(np.array([[0.0, np.nan, 1.0, 2.0]]))
