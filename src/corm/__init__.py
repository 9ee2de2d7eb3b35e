'''Compound random measures.

Entry points, with the options they still take:
- core.CoRMSpec(dimension, shape, marginal, centring_mass=1.0):
  Ga(shape) scores, a core.MarginalFamily marginal (gamma, sigma_stable,
  generalized_gamma) and a centring measure centring_mass times
  Uniform(0, 1).  CoRMSpec.from_marginal, on the same arguments, checks
  the directing intensity against the marginal; with_shape does not.
- core.laplace_exponent, rho_density, kappa, levy_copula and the like
  take a spec and points, mixed_moment an exponent vector of any integer
  order and a region mass, and covariance_normalized four region masses.
- prior.sample_corm(spec, rng, n_jumps=None, tail_mass=None,
  max_jumps=100_000), then prior.normalize(draw); the jumps' locations
  are Uniform(0, 1).
- kernels.Dataset(groups); FlatKernel(); UnivariateNormalGamma and
  MultivariateNormalNIW by their constructors or .from_data(observations);
  predictive_density(snapshots, kernel, group, points).
- marginal_sampler.initial_state(data, spec, kernel, rng, n_start=1) and
  marginal_sweep(state, data, spec, kernel, rng, v_steps, shape_step=None,
  log_prior=None, table=None), which returns the next (spec, table).
  n_start is an integer from 1 to the largest group's size (ValueError
  otherwise), so that no start cluster is empty.
- slice_sampler.initial_slice_state(..., n_start=1) and slice_sweep(...,
  v_steps, shape_step=None, log_prior=None, cache=None), which returns the
  next spec; slice_snapshots(state, spec) for predictive_density.  Here
  n_start is any integer of at least 1: start jumps past the largest group
  are pool jumps.  cache holds values at the slice threshold L (U(L), rule
  nodes, residuals); kept across sweeps it saves a tail mass a sweep, with
  the same chain.
- marginal_sampler.AdaptiveStepSize(log_step=log 0.5, frozen=False):
  v_steps holds one a group, a pair for the slice sampler.  The score
  shape moves only given a shape_step, which needs its log_prior: either
  sweep raises ValueError up front on a shape_step without one (a
  log_prior alone is allowed).  AdaptiveStepSize.move(x, log_target, rng),
  which replaces the former propose and accept, makes every v and shape
  update: the log-scale random walk x exp(step N(0, 1)),
  accepted at log_target(x_new) - log_target(x) + log x_new - log x by
  one uniform.  A proposal that is not a positive finite double (exp
  over- or underflows) is refused: it keeps x, records probability 0 and
  draws no uniform.
'''
