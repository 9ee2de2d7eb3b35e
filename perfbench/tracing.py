'''Timing spans around the public calls the benchmark makes into corm.

The wrappers are installed from here, onto module attributes and class
attributes, and removed afterwards; no library file is edited.  A name
bound with ``from ... import`` lives on in the importing module, so it
is wrapped there too (``corm.core.integrate`` as well as
``corm.numerics.integrate``).

Three kinds of probe:

span     a timed interval with a parent span and a chain id, kept in
         memory and written out at the end;
leaf     per-observation calls (the kernel methods), aggregated as a
         call count and total time with no span each;
counter  a bare call count.

Self time of a span is its duration minus the time its child spans and
leaf calls cover.  Calls run on one thread, so spans nest properly.
'''

import functools
import time
from collections import Counter, defaultdict

import numpy as np

__all__ = ['Tracer', 'install']

_clock = time.perf_counter


class Tracer:
    '''Span and counter store for one traced run.'''

    def __init__(self):
        self.chain = -1
        self.names = []
        self._name_ids = {}
        self.spans = []          # (id, name id, start, end, parent id, chain)
        self._stack = []         # open spans: [id, name, start, covered]
        self._next_id = 0
        self.calls = Counter()
        self.failures = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.nested_calls = Counter()   # (name, enclosing span name)
        self.counts = Counter()

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name):
        parent = self._stack[-1][1] if self._stack else None
        self.calls[name] += 1
        self.nested_calls[(name, parent)] += 1
        self._stack.append([self._next_id, name, _clock(), 0.0])
        self._next_id += 1

    def close(self, failed):
        end = _clock()
        sid, name, start, covered = self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - covered
        self.total_s[name] += duration
        if failed:
            self.failures[name] += 1
        parent = -1
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        self.spans.append((sid, self._name_id(name), start, end, parent,
                           self.chain))

    def leaf(self, name, seconds):
        self.calls[name] += 1
        self.self_s[name] += seconds
        if self._stack:
            self._stack[-1][3] += seconds

    def span_table(self):
        '''Spans as columns, ordered by span id.'''
        rows = sorted(self.spans)
        cols = list(zip(*rows)) if rows else [()] * 6
        return {
            'id': np.asarray(cols[0], dtype=np.int64),
            'name': np.asarray(cols[1], dtype=np.int32),
            'start': np.asarray(cols[2], dtype=float),
            'end': np.asarray(cols[3], dtype=float),
            'parent': np.asarray(cols[4], dtype=np.int64),
            'chain': np.asarray(cols[5], dtype=np.int32),
            'names': np.asarray(self.names, dtype=str),
        }


def _span(tracer, name, fn, on_result=None):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        tracer.open(name)
        failed = True
        try:
            out = fn(*args, **kwargs)
            failed = False
        finally:
            tracer.close(failed)
        if on_result is not None:
            on_result(out)
        return out
    return wrapped


def _leaf(tracer, name, fn):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        start = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.leaf(name, _clock() - start)
    return wrapped


def _counter(tracer, name, fn):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        tracer.counts[name] += 1
        return fn(*args, **kwargs)
    return wrapped


def _probes(tracer):
    '''(owner, attribute, wrapper factory) for every probe.'''
    from corm import core, kernels, marginal_sampler, numerics, prior
    from corm import slice_sampler

    def add_evals(result):
        tracer.counts['numerics.integrate.evals'] += result.evaluations

    def add_redrawn(state):
        tracer.counts['slice_sampler.jump_heights.redrawn'] += state.n_jumps

    def span(name, on_result=None):
        return lambda fn: _span(tracer, name, fn, on_result)

    def leaf(name):
        return lambda fn: _leaf(tracer, name, fn)

    def counter(name):
        return lambda fn: _counter(tracer, name, fn)

    integrate = span('numerics.integrate', add_evals)
    probes = [(mod, 'integrate', integrate)
              for mod in (numerics, core, prior, slice_sampler)]
    probes += [
        (core, 'kappa', span('core.kappa')),
        (marginal_sampler, 'kappa', span('core.kappa')),
        (core, 'laplace_exponent', span('core.laplace_exponent')),
        (marginal_sampler, 'laplace_exponent',
         span('core.laplace_exponent')),
        (core, 'directing_from_marginal',
         span('core.directing_from_marginal')),
        (core.LevyIntensity, 'inverse_tail', span('core.inverse_tail')),
        (core.LevyIntensity, 'tail_integral', span('core.tail_integral')),
        (prior, 'sample_corm', span('prior.sample_corm')),
        (prior, 'normalize', span('prior.normalize')),
        (marginal_sampler, 'marginal_sweep', span('marginal_sampler.sweep')),
        (marginal_sampler, 'update_allocation_conjugate',
         span('marginal_sampler.allocation')),
        (marginal_sampler, 'update_v_marginal',
         span('marginal_sampler.update_v')),
        (marginal_sampler, 'update_shape_marginal',
         span('marginal_sampler.update_shape')),
        (marginal_sampler.KappaTable, '__init__',
         counter('marginal_sampler.kappa_table.builds')),
        (marginal_sampler.KappaTable, 'log_kappa',
         counter('marginal_sampler.kappa_table.log_kappa_calls')),
        (slice_sampler, 'slice_sweep', span('slice_sampler.sweep')),
        (slice_sampler, 'initial_slice_state',
         span('slice_sampler.initial_state')),
        (marginal_sampler, 'initial_state',
         span('marginal_sampler.initial_state')),
    ]
    stages = {
        'update_allocations_slice': 'allocations',
        'update_atoms_slice': 'atoms',
        'update_scores': 'scores',
        'birth_death_move': 'birth_death',
        'update_u_and_repopulate': 'repopulate',
        'update_v_interweaving': 'update_v',
        'update_hyperparameters_slice': 'hyperparameters',
        'residual_laplace': 'residual_laplace',
        'sample_tilted_z': 'sample_tilted_z',
    }
    probes += [(slice_sampler, fn, span('slice_sampler.' + stage))
               for fn, stage in stages.items()]
    probes.append((slice_sampler, 'update_jump_heights',
                   span('slice_sampler.jump_heights', add_redrawn)))
    for cls in (kernels.UnivariateNormalGamma,):
        for method in ('log_predictive', 'log_density', 'atom_posterior_draw',
                       'stats_empty', 'stats_add', 'stats_remove'):
            probes.append((cls, method, leaf('kernels.' + method)))
    return probes


def install(tracer):
    '''Wrap every probe point; returns a callable that restores the
    originals.'''
    saved = []
    for owner, attr, factory in _probes(tracer):
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, factory(original))

    def uninstall():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
    return uninstall
