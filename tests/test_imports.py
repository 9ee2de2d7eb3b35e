'''The set of modules a fresh corm process loads.

Importing corm loads numpy and scipy.special only.  scipy.integrate
(QUADPACK) and scipy.stats (the inverse-Wishart draw) load on first use,
because importing them takes longer than the rest of a fresh process's
start.  The check runs in a fresh interpreter: pytest's warning filters
import scipy.integrate into the test process.
'''

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import corm

SRC = str(Path(corm.__file__).resolve().parent.parent)

PROGRAM = '''
import json, math, sys
import numpy as np
import corm.core, corm.kernels, corm.marginal_sampler, corm.numerics
import corm.prior, corm.slice_sampler
heavy = ('scipy.stats', 'scipy.integrate', 'scipy.optimize',
         'scipy.interpolate', 'scipy.linalg', 'sympy', 'mpmath')
loaded = [name for name in heavy if name in sys.modules]
integral = corm.numerics.integrate(math.exp, 0.0, 1.0).value
kernel = corm.kernels.MultivariateNormalNIW(np.zeros(2), 1.0, 5.0, np.eye(2))
mu, cov = kernel.atom_posterior_draw(np.ones((3, 2)),
                                     np.random.default_rng(0))
print(json.dumps({'loaded': loaded, 'integral': integral,
                  'mu': mu.tolist(), 'cov': cov.tolist()}))
'''


def test_fresh_import_loads_no_heavy_scipy_subpackage():
    env = dict(os.environ)
    env['PYTHONPATH'] = os.pathsep.join(
        [SRC] + [p for p in [env.get('PYTHONPATH')] if p])
    out = subprocess.run([sys.executable, '-c', PROGRAM], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    got = json.loads(out.stdout)
    assert got['loaded'] == []
    # and the two deferred imports still work once used
    assert abs(got['integral'] - (math.e - 1.0)) < 1e-14
    mu, cov = np.array(got['mu']), np.array(got['cov'])
    assert mu.shape == (2,) and np.all(np.isfinite(mu))
    assert np.allclose(cov, cov.T)
    assert np.all(np.linalg.eigvalsh(cov) > 0.0)
