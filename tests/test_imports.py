'''The modules a fresh corm process loads, and each module's public names.

Importing corm loads numpy only.  A spec build, the marginal (urn)
sampler, a prior draw, and the slice sampler's start state and sweeps
load no scipy either, and rho_d of a gamma spec and the beta-directed
marginal density, mixtures on TiltRule nodes, load no scipy.integrate.
scipy.special loads on the first call that needs one of its functions
(the marginals' own tails, the beta-directed marginal's tail, Levy
copulas), scipy.integrate (QUADPACK) on the first numerics.integrate
call, which covariance_normalized makes, and scipy.stats on the first
inverse-Wishart draw, because importing them takes longer than the rest
of a fresh process's start.  The checks run in a fresh interpreter:
pytest's warning filters import scipy.integrate into the test process.

Every corm module's `from corm.<module> import *` works, so every name
its __all__ lists exists.
'''

import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import corm

SRC = str(Path(corm.__file__).resolve().parent.parent)

PROGRAM = '''
import json, math, pkgutil, sys
import numpy as np
import corm
for module in pkgutil.iter_modules(corm.__path__):
    __import__('corm.' + module.name)
from corm import core, kernels, marginal_sampler, numerics, prior
from corm import slice_sampler


def loaded(prefix):
    return sorted(name for name in sys.modules
                  if name == prefix or name.startswith(prefix + '.'))


out = {'on_import': loaded('scipy') + loaded('sympy') + loaded('mpmath')}
# a generalized-gamma spec, one urn sweep and one default prior draw
rng = np.random.default_rng(3)
data = kernels.Dataset([rng.normal(-1.0, 1.0, 15), rng.normal(1.0, 1.0, 15)])
spec = core.CoRMSpec.from_marginal(
    2, 1.0, core.MarginalFamily.generalized_gamma(0.3, 1.0))
kernel = kernels.UnivariateNormalGamma.from_data(data.stacked())
state = marginal_sampler.initial_state(data, spec, kernel, rng, n_start=4)
marginal_sampler.marginal_sweep(
    state, data, spec, kernel, rng,
    [marginal_sampler.AdaptiveStepSize() for _ in range(2)],
    marginal_sampler.AdaptiveStepSize(), lambda phi: -phi)
state.check()
draw = prior.sample_corm(spec, rng)
out['urn_and_prior'] = loaded('scipy')
out['jumps'] = int(draw.jump_count)
# a slice start state and one slice sweep
slice_state = slice_sampler.initial_slice_state(data, spec, kernel, rng,
                                                n_start=4)
slice_sampler.slice_sweep(
    slice_state, data, spec, kernel, rng,
    [(marginal_sampler.AdaptiveStepSize(),
      marginal_sampler.AdaptiveStepSize()) for _ in range(2)],
    marginal_sampler.AdaptiveStepSize(), lambda phi: -phi, {})
slice_state.check()
out['slice'] = loaded('scipy')
out['slice_jumps'] = int(slice_state.n_jumps)
# rho_d of a gamma spec and the beta-directed marginal density, mixtures
# on TiltRule nodes
gamma_spec = core.CoRMSpec.from_marginal(2, 2.5, core.MarginalFamily.gamma())
out['rho'] = core.rho_density(gamma_spec, [0.5, 1.5])
out['rho_loads'] = loaded('scipy.integrate')
out['beta'] = core.beta_directed_marginal(1.3, 2.2).density(0.8)
out['beta_loads'] = loaded('scipy.integrate')
# the first-use imports: a Levy copula, a quadrature and an
# inverse-Wishart draw
out['copula'] = core.levy_copula(spec, 0.5, 2.0)
out['integral'] = numerics.integrate(math.exp, 0.0, 1.0).value
niw = kernels.MultivariateNormalNIW(np.zeros(2), 1.0, 5.0, np.eye(2))
mu, cov = niw.atom_posterior_draw(np.ones((3, 2)), np.random.default_rng(0))
out['mu'], out['cov'] = mu.tolist(), cov.tolist()
print(json.dumps(out))
'''


def test_fresh_import_loads_no_heavy_scipy_subpackage():
    env = dict(os.environ)
    env['PYTHONPATH'] = os.pathsep.join(
        [SRC] + [p for p in [env.get('PYTHONPATH')] if p])
    out = subprocess.run([sys.executable, '-c', PROGRAM], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    got = json.loads(out.stdout)
    assert got['on_import'] == []
    assert got['urn_and_prior'] == []
    assert got['jumps'] > 0
    assert got['slice'] == []
    assert got['slice_jumps'] > 0
    assert got['rho_loads'] == [] and 0.0 < got['rho'] < math.inf
    assert got['beta_loads'] == [] and 0.0 < got['beta'] < math.inf
    # and the deferred imports work once used
    assert 0.0 < got['copula'] < 0.5
    assert abs(got['integral'] - (math.e - 1.0)) < 1e-14
    mu, cov = np.array(got['mu']), np.array(got['cov'])
    assert mu.shape == (2,) and np.all(np.isfinite(mu))
    assert np.allclose(cov, cov.T)
    assert np.all(np.linalg.eigvalsh(cov) > 0.0)


@pytest.mark.parametrize('name', sorted(
    m.name for m in pkgutil.iter_modules(corm.__path__)))
def test_star_import_resolves_all(name):
    # a star import raises AttributeError on an __all__ entry the module
    # lacks
    namespace = {}
    exec('from corm.%s import *' % name, namespace)
    module = importlib.import_module('corm.' + name)
    assert set(module.__all__) <= namespace.keys()
