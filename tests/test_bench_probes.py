'''The benchmark's tracer must find every library attribute it wraps,
and its workloads must build and step on the library's current calls.

perfbench/tracing.py wraps corm functions and methods by name, and
perfbench/workloads.py calls the samplers with fixed arguments; a renamed
or deleted target would otherwise only fail the benchmark run.
'''

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]
                       / 'perfbench'))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from corm import marginal_sampler, prior, slice_sampler  # noqa: E402
from corm.core import CoRMSpec, MarginalFamily  # noqa: E402
from corm.kernels import Dataset, UnivariateNormalGamma  # noqa: E402
from corm.marginal_sampler import AdaptiveStepSize  # noqa: E402


def test_install_wraps_and_uninstall_restores():
    targets = [(owner, attr) for owner, attr, _ in
               tracing._probes(tracing.Tracer())]
    originals = [owner.__dict__[attr] for owner, attr in targets]
    uninstall = tracing.install(tracing.Tracer())
    try:
        wrapped = [owner.__dict__[attr] for owner, attr in targets]
    finally:
        uninstall()
    assert all(w is not o for w, o in zip(wrapped, originals))
    assert all(owner.__dict__[attr] is o
               for (owner, attr), o in zip(targets, originals))


def test_traced_slice_sweep_counts_residual_calls():
    # the sweep reaches residual_laplace through the module attribute the
    # tracer wraps; a rewrite that bound the function elsewhere (say, in
    # a closure) would leave the probe reading 0
    rng = np.random.default_rng(3)
    data = Dataset([rng.normal(size=12), rng.normal(2.0, 1.0, size=12)])
    kernel = UnivariateNormalGamma.from_data(data.stacked())
    spec = CoRMSpec.from_marginal(
        2, 1.0, MarginalFamily.generalized_gamma(0.3, 1.0))
    state = slice_sampler.initial_slice_state(data, spec, kernel, rng,
                                              n_start=3)
    v_steps = [(AdaptiveStepSize(), AdaptiveStepSize()) for _ in range(2)]
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        slice_sampler.slice_sweep(state, data, spec, kernel, rng, v_steps,
                                  AdaptiveStepSize(), lambda phi: -phi, {})
    finally:
        uninstall()
    assert tracer.calls['slice_sampler.sweep'] == 1
    assert tracer.calls['slice_sampler.residual_laplace'] > 0


def test_traced_marginal_sweep_counts_log_predictive():
    # each of the 24 conjugate redraws scores its observation through
    # one call of the class attribute the tracer wraps; a bound-method
    # shortcut or a rename would leave the kernel probe reading 0
    rng = np.random.default_rng(3)
    data = Dataset([rng.normal(size=12), rng.normal(2.0, 1.0, size=12)])
    kernel = UnivariateNormalGamma.from_data(data.stacked())
    spec = CoRMSpec.from_marginal(
        2, 1.0, MarginalFamily.generalized_gamma(0.3, 1.0))
    state = marginal_sampler.initial_state(data, spec, kernel, rng,
                                           n_start=3)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        marginal_sampler.marginal_sweep(
            state, data, spec, kernel, rng,
            [AdaptiveStepSize(), AdaptiveStepSize()])
    finally:
        uninstall()
    assert tracer.calls['marginal_sampler.sweep'] == 1
    assert tracer.calls['marginal_sampler.allocation'] == 24
    assert tracer.calls['kernels.log_predictive'] == 24
    assert tracer.counts['marginal_sampler.kappa_table.log_kappa_calls'] > 0


def test_draws_and_sweeps_never_invert_the_tail():
    # prior draws, the slice start state and slice sweeps take their
    # points from the power envelope in closed form: a traced prior-gg
    # draw (d = 2, generalized gamma (0.3, 1), shape 2, centring mass 10),
    # a traced slice start state and traced slice sweeps call
    # core.inverse_tail 0 times.  Each sweep repopulates once, where the
    # births thin the envelope; sample_tilted_z is no longer on the path
    rng = np.random.default_rng(5)
    prior_spec = CoRMSpec.from_marginal(
        2, 2.0, MarginalFamily.generalized_gamma(0.3, 1.0),
        centring_mass=10.0)
    data = Dataset([rng.normal(size=12), rng.normal(2.0, 1.0, size=12)])
    kernel = UnivariateNormalGamma.from_data(data.stacked())
    spec = CoRMSpec.from_marginal(
        2, 0.5, MarginalFamily.generalized_gamma(0.3, 1.0))
    v_steps = [(AdaptiveStepSize(), AdaptiveStepSize()) for _ in range(2)]
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        state = slice_sampler.initial_slice_state(data, spec, kernel, rng,
                                                  n_start=3)
        for _ in range(3):
            prior.sample_corm(prior_spec, rng)
            spec = slice_sampler.slice_sweep(
                state, data, spec, kernel, rng, v_steps, AdaptiveStepSize(),
                lambda phi: -phi, {})
    finally:
        uninstall()
    assert tracer.calls['prior.sample_corm'] == 3
    assert tracer.calls['slice_sampler.initial_state'] == 1
    assert tracer.calls['slice_sampler.sweep'] == 3
    assert tracer.calls['slice_sampler.jump_heights'] == 3
    assert tracer.calls['slice_sampler.repopulate'] == 3
    assert tracer.calls['core.inverse_tail'] == 0


def test_traced_spec_builds_count_directing_derivations():
    # a spec derives nu* in __post_init__ through the core module's
    # attribute the tracer wraps: from_marginal and with_shape each build
    # one spec, so the probe reads 2, and would read 0 if the derivation
    # were bound elsewhere
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        spec = CoRMSpec.from_marginal(
            2, 1.0, MarginalFamily.generalized_gamma(0.3, 1.0))
        spec.with_shape(0.5)
    finally:
        uninstall()
    assert tracer.calls['core.directing_from_marginal'] == 2


def test_every_workload_takes_two_checked_steps():
    # perfbench is frozen against the library's calls: marginal_sweep's
    # table=, slice_sweep's positional cache, from_marginal's
    # centring_mass= and initial_state's n_start=.  A change to any of
    # them would otherwise only fail the benchmark run.  Each workload,
    # at its smallest size, takes two sweeps of every chain or two prior
    # draws, each followed by its correctness check
    for name in sorted(workloads.WORKLOADS):
        wl = workloads.prepare(name, 1, 0.05)
        assert wl.chains, name
        for chain in wl.chains:
            for _ in range(2):
                if wl.kind == 'prior':
                    chain.check(*chain.draw())
                else:
                    chain.sweep()
                    chain.check()
