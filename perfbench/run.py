#!/usr/bin/env python3
'''Benchmark of the corm samplers and prior simulation.

    python3 perfbench/run.py --workload marginal-120 --seed 1 --seconds 16 \
        --trace 0

Run from the root of a source checkout; corm is imported from ./src.
Metric names and units come from BENCHMARK.json at the root.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A record of the run (manifest, failures,
digests, per-sweep trace, and with --trace 1 the spans) is written under
.perfbench_runs/.

Workloads (see workloads.py for their inputs), sized for a run of
S = --seconds:

marginal-120  marginal (urn) sampler, 60+60 observations, 4 chains of
              4 S sweeps
marginal-400  marginal sampler, 200+200 observations, S chains of 10
              sweeps
slice-400     slice sampler, 200+200 observations, 8 S chains of 2 sweeps
prior-gg      8 S draws of sample_corm + normalize on a d=2
              generalized-gamma spec with score shape 2 and centring
              mass 10

A step is one sweep of a sampler chain (one posterior draw) or one prior
draw.  The sizes make a run take about S seconds on a 2-vCPU KVM host,
but the work is fixed by the seed and S, not by the clock: each sampler
chain, on its own data set, takes its sweeps in turn in one
single-threaded process, or the prior stream takes its draws.  A chain
whose step raises, or whose state fails its invariant check, is counted
as failed and takes no more steps.  A prior draw that raises or fails
its check is counted as failed and the stream goes on.  So what a run
computes, failures included, is the same for the same seed and S.
Timing metrics cover completed steps only.

Step and set-up times are corrected for the machine's speed at the
moment (calibration.py).  Sampler sweeps are scaled by a reference loop
timed before every step; prior draws are not.  Set-up is scaled by a
reference process that imports corm's dependencies, launched in turn
with the set-up probes.  The raw times are kept in the record.

End-to-end metrics (--trace 0):

setup_s         launch-to-ready time of a fresh process: import corm,
                spec construction with verification, the chains' initial
                states or the first prior draw.  The median of
                SETUP_PROBES probes, times REFERENCE_IMPORT_S over the
                median of the reference imports launched before, between
                and after them
sweeps_per_s    completed steps per second of stepping; on prior-gg a
                step is a draw
peak_rss_mib    peak resident memory of the measuring process

Per-layer metrics (--trace 1) come from a traced pass over the workload
sized for S/2, with every sampler invariant checked after each sweep,
followed by an untraced rerun of it from the same seed.  The rerun must
reproduce the traced chains bit for bit; its time against the traced
time is the tracing overhead.  Step-time percentiles (sweep_ms_p50/p90;
on prior-gg a step is a draw), raw.sweeps_per_s (the uncorrected
throughput), throughput in jumps, failed fraction, ESS and R-hat
(rank-normalised, Vehtari et al. 2021) are per-layer figures from the
rerun: they are zero on some workloads or scatter more from seed to seed
than an end-to-end bound allows.
'''

import os

for _var in ('OMP_NUM_THREADS', 'OPENBLAS_NUM_THREADS', 'MKL_NUM_THREADS'):
    os.environ[_var] = '1'

import argparse
import json
import math
import platform
import resource
import subprocess
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

import numpy as np

from calibration import REFERENCE_IMPORT, REFERENCE_IMPORT_S, Speedometer
from diagnostics import bulk_ess, split_rhat
from tracing import Tracer, install

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / 'src'
OUT = ROOT / '.perfbench_runs'
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 60
WARMUP_SHARE = 0.25
N_GROUPS = 2
# per-layer times printed as a share of the traced step time
SHARES = ('core.kappa.total_s', 'numerics.integrate.self_s',
          'slice_sampler.jump_heights.total_s', 'core.inverse_tail.self_s',
          'prior.sample_corm.self_s', 'kernels.self_s')


class BenchmarkError(Exception):
    '''The benchmark cannot produce a result.'''


class WarningCounter:
    '''Counts every RuntimeWarning raised inside the block, by site.'''

    def __init__(self):
        self.sites = Counter()

    @property
    def total(self):
        return sum(self.sites.values())

    def __enter__(self):
        self._ctx = warnings.catch_warnings()
        self._ctx.__enter__()
        warnings.simplefilter('always', RuntimeWarning)
        show = warnings.showwarning

        def record(message, category, filename, lineno, file=None,
                   line=None):
            if issubclass(category, RuntimeWarning):
                site = '%s:%d %s' % (Path(filename).name, lineno, message)
                self.sites[site] += 1
            else:
                show(message, category, filename, lineno, file, line)
        warnings.showwarning = record
        return self

    def __exit__(self, *exc):
        return self._ctx.__exit__(*exc)


def git_commit():
    '''HEAD of the checkout, or None outside a git repository.'''
    try:
        proc = subprocess.run(['git', 'rev-parse', 'HEAD'], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def manifest(args):
    import scipy
    return {
        'workload': args.workload,
        'seed': args.seed,
        'seconds': args.seconds,
        'trace': args.trace,
        'commit': git_commit(),
        'nproc': os.cpu_count(),
        'python': platform.python_version(),
        'numpy': np.__version__,
        'scipy': scipy.__version__,
        'threads': {v: os.environ[v] for v in
                    ('OMP_NUM_THREADS', 'OPENBLAS_NUM_THREADS',
                     'MKL_NUM_THREADS')},
    }


def _launch_to_ready(argv):
    '''Seconds from launching a fresh Python process until it prints
    "ready <wall-clock time>".'''
    env = dict(os.environ, PYTHONPATH=str(SRC))
    launched = time.time()
    proc = subprocess.Popen([sys.executable] + argv, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=ROOT,
                            text=True)
    try:
        out, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchmarkError('set-up probe timed out') from None
    words = out.split()
    if proc.returncode != 0 or len(words) != 2 or words[0] != 'ready':
        raise BenchmarkError('set-up probe failed:\n' + err[-2000:])
    return float(words[1]) - launched


def measure_setup(workload, seed, seconds):
    '''Launch-to-ready seconds of SETUP_PROBES set-up probes and of the
    SETUP_PROBES + 1 reference imports launched before, between and
    after them.'''
    probe = [str(HERE / 'probe.py'), workload, str(seed), str(seconds)]
    reference = ['-c', REFERENCE_IMPORT]
    probes, references = [], [_launch_to_ready(reference)]
    for _ in range(SETUP_PROBES):
        probes.append(_launch_to_ready(probe))
        references.append(_launch_to_ready(reference))
    return probes, references


def setup_seconds(probes, references):
    '''Median probe time at the speed where the reference import takes
    REFERENCE_IMPORT_S.'''
    return float(np.median(probes)) * REFERENCE_IMPORT_S \
        / float(np.median(references))


def _outputs_checked(failures):
    '''True unless a correctness check failed; a step that raised is a
    failure of the program, counted in `failed`, not a wrong output.'''
    return not any(f['type'] == 'ChainFailure' for f in failures)


def _failure(unit, step, err):
    return {'unit': unit, 'step': step, 'type': type(err).__name__,
            'message': str(err)[:300]}


def _run_chain(chain, wl, speed, check_each):
    '''wl.horizon sweeps of one chain, then its invariant check (with
    check_each, after every sweep too).  Returns the failure record of
    the sweep or check that failed, or None.'''
    clock = time.perf_counter
    try:
        for _ in range(wl.horizon):
            speed.tick()
            start = clock()
            chain.sweep()
            elapsed = clock() - start
            if check_each:
                chain.check()
            chain.log_sweep(elapsed, speed.factor() if wl.corrected else 1.0)
        chain.check()
    except Exception as err:  # counted as a failed chain
        return _failure('chain %d' % chain.index, len(chain.times), err)
    return None


def _run_prior(wl, speed):
    '''wl.horizon draws; a failed draw is counted and the stream goes
    on.  The mean-mass check over all draws is one more attempted
    unit.'''
    from workloads import mass_check
    stream = wl.chains[0]
    clock = time.perf_counter
    failures = []
    for i in range(wl.horizon):
        speed.tick()
        start = clock()
        try:
            realization, weights = stream.draw()
            elapsed = clock() - start
            totals = stream.check(realization, weights)
        except Exception as err:  # counted as a failed draw
            failures.append(_failure('draw', i, err))
            continue
        stream.log_draw(elapsed, speed.factor() if wl.corrected else 1.0,
                        realization, totals)
    message, summary = mass_check(stream.trace)
    if message is not None:
        failures.append({'unit': 'mass check', 'step': wl.horizon,
                         'type': 'ChainFailure', 'message': message})
    stream.mass_summary = summary
    return wl.horizon + 1, failures


def run_workload(wl, speed, tracer=None):
    '''The workload's chains one after another, or its prior draws.
    With a tracer, every sampler state is checked after each sweep.
    Returns (attempted, failures).'''
    if tracer is not None:
        tracer.chain = 0
    if wl.kind == 'prior':
        return _run_prior(wl, speed)
    for chain in wl.chains:
        if tracer is not None:
            tracer.chain = chain.index
        chain.failure = _run_chain(chain, wl, speed, tracer is not None)
    return len(wl.chains), [c.failure for c in wl.chains
                            if c.failure is not None]


def _times(wl, raw=False):
    return [t for c in wl.chains for t in (c.raw_times if raw else c.times)]


def _steps(wl):
    return len(_times(wl))


def _seconds(wl, raw=False):
    return sum(_times(wl, raw))


def _jumps_per_s(wl):
    '''Jumps handled per second of stepping: prior jumps generated,
    slice-sampler active jumps (each sweep redraws every active jump's
    height), or occupied marginal-sampler clusters.'''
    jumps = sum(row[-1] if wl.kind == 'sampler' else row[0]
                for c in wl.chains for row in c.trace)
    return _rate(jumps, _seconds(wl))


def _percentile_ms(wl, q, raw=False):
    times = _times(wl, raw)
    return float(np.percentile(times, q)) * 1e3 if times else 0.0


def _rate(count, seconds):
    '''count / seconds, or 0 when no step completed.'''
    return count / seconds if seconds else 0.0


def end_to_end(wl, setup):
    return {
        'setup_s': setup_seconds(*setup),
        'sweeps_per_s': _rate(_steps(wl), _seconds(wl)),
        'peak_rss_mib': resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def chain_diagnostics(wl):
    '''Bulk ESS per second of stepping and split R-hat of the occupied
    count (jump count on prior-gg) and of log v_j (log total mass on
    prior-gg).  Sampler chains each fit their own data set, so ESS is
    summed over the chains that did not fail and R-hat is the largest
    single-chain split R-hat; each chain drops its first quarter.  A
    series that never moves has neither: it counts as no ESS, is left
    out of R-hat and is counted in degenerate_series.'''
    good = [c for c in wl.chains if c.failure is None]
    ess_k = ess_v = seconds = 0.0
    rhat_k = rhat_v = 0.0
    draws = degenerate = 0
    for c in good:
        n = len(c.trace)
        start = int(n * WARMUP_SHARE) if wl.kind == 'sampler' else 0
        if n - start < 8:
            continue
        rows = np.asarray(c.trace[start:], dtype=float)
        logv = np.log(rows[:, 1:1 + N_GROUPS])
        values = [bulk_ess(rows[:, 0])] + [bulk_ess(logv[:, j])
                                           for j in range(N_GROUPS)]
        rhats = [split_rhat(rows[:, 0])] + [split_rhat(logv[:, j])
                                            for j in range(N_GROUPS)]
        degenerate += sum(not math.isfinite(x) for x in rhats)
        values = [x if math.isfinite(x) else 0.0 for x in values]
        ess_k += values[0]
        ess_v += min(values[1:])
        rhat_k = max([rhat_k] + [x for x in rhats[:1] if math.isfinite(x)])
        rhat_v = max([rhat_v] + [x for x in rhats[1:] if math.isfinite(x)])
        seconds += sum(c.times[start:])
        draws += n - start
    return {'ess_per_s_k': _rate(ess_k, seconds),
            'ess_per_s_logv': _rate(ess_v, seconds),
            'rhat_k': rhat_k, 'rhat_logv': rhat_v, 'ess_draws': draws,
            'degenerate_series': degenerate}


def layer_metrics(tracer, wl, rerun, warned):
    '''Per-module counts and times of the traced pass, ratios with
    their bases, and the tracing overhead against the untraced rerun.'''
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    m = {
        'numerics.integrate.calls': calls['numerics.integrate'],
        'numerics.integrate.evals': counts['numerics.integrate.evals'],
        'numerics.integrate.self_s': self_s['numerics.integrate'],
        'numerics.integrate.failures': tracer.failures['numerics.integrate'],
        'numerics.runtime_warnings': warned,
        'prior.sample_corm.self_s': self_s['prior.sample_corm'],
        'core.kappa.total_s': tracer.total_s['core.kappa'],
    }
    for name in ('core.kappa', 'core.laplace_exponent', 'core.inverse_tail',
                 'core.tail_integral', 'core.directing_from_marginal'):
        m[name + '.calls'] = calls[name]
        m[name + '.self_s'] = self_s[name]
    for method in ('log_predictive', 'log_density', 'atom_posterior_draw'):
        m['kernels.%s.calls' % method] = calls['kernels.' + method]
    m['kernels.self_s'] = sum(v for k, v in self_s.items()
                              if k.startswith('kernels.'))
    for stage in ('allocation', 'update_v', 'update_shape'):
        m['marginal_sampler.%s.self_s' % stage] = \
            self_s['marginal_sampler.' + stage]
    log_kappa = counts['marginal_sampler.kappa_table.log_kappa_calls']
    m['marginal_sampler.kappa_table.builds'] = \
        counts['marginal_sampler.kappa_table.builds']
    m['marginal_sampler.kappa_table.log_kappa_calls'] = log_kappa
    m['marginal_sampler.kappa_table.hit_ratio'] = \
        1.0 - calls['core.kappa'] / log_kappa if log_kappa else 0.0
    for stage in ('allocations', 'atoms', 'jump_heights', 'scores',
                  'birth_death', 'repopulate', 'update_v', 'hyperparameters',
                  'residual_laplace', 'sample_tilted_z'):
        m['slice_sampler.%s.self_s' % stage] = \
            self_s['slice_sampler.' + stage]
    for stage in ('residual_laplace', 'sample_tilted_z'):
        m['slice_sampler.%s.calls' % stage] = calls['slice_sampler.' + stage]
    m['slice_sampler.jump_heights.total_s'] = \
        tracer.total_s['slice_sampler.jump_heights']
    proposals = tracer.nested_calls[('core.inverse_tail',
                                     'slice_sampler.jump_heights')]
    redrawn = counts['slice_sampler.jump_heights.redrawn']
    m['slice_sampler.jump_heights.inverse_tail_calls'] = proposals
    m['slice_sampler.jump_heights.redrawn'] = redrawn
    m['slice_sampler.jump_heights.accept_ratio'] = _rate(redrawn, proposals)
    # the spans around whole steps: the base of every share above
    m['trace.step_span_s'] = sum(
        tracer.total_s[name] for name in (
            'marginal_sampler.sweep', 'slice_sampler.sweep',
            'prior.sample_corm', 'prior.normalize'))

    marginal = wl.name.startswith('marginal')
    rows = [row for c in wl.chains for row in c.trace]
    mean_k = float(np.mean([r[0] for r in rows])) if rows else 0.0
    mean_jumps = float(np.mean([r[-1] for r in rows])) if rows else 0.0
    v_rate = float(np.mean([c.v_accept_rate() for c in wl.chains])) \
        if wl.kind == 'sampler' else 0.0
    m['marginal_sampler.clusters_mean'] = mean_k if marginal else 0.0
    m['marginal_sampler.v.accept_rate'] = v_rate if marginal else 0.0
    m['slice_sampler.jumps_mean'] = mean_jumps if wl.name == 'slice-400' \
        else 0.0
    m['slice_sampler.v.accept_rate'] = v_rate if wl.name == 'slice-400' \
        else 0.0
    m['prior.jumps_per_draw'] = mean_k if wl.kind == 'prior' else 0.0

    traced_s, untraced_s = _seconds(wl), _seconds(rerun)
    m['trace.steps'] = _steps(wl)
    m['trace.spans'] = len(tracer.spans)
    m['trace.traced_step_s'] = traced_s
    m['trace.untraced_step_s'] = untraced_s
    m['trace.traced_sweeps_per_s'] = _rate(_steps(wl), traced_s)
    m['trace.untraced_sweeps_per_s'] = _rate(_steps(rerun), untraced_s)
    m['trace.slowdown'] = _rate(traced_s, untraced_s)
    m['raw.sweep_ms_p50'] = _percentile_ms(rerun, 50, raw=True)
    m['raw.sweeps_per_s'] = _rate(_steps(rerun), _seconds(rerun, raw=True))
    m['jumps_per_s'] = _jumps_per_s(rerun)
    m['sweep_ms_p50'] = _percentile_ms(rerun, 50)
    m['sweep_ms_p90'] = _percentile_ms(rerun, 90)
    return m


def chain_report(wl):
    out = []
    for c in wl.chains:
        entry = {'index': c.index, 'steps': len(c.times),
                 'failure': c.failure,
                 'times': c.times, 'raw_times': c.raw_times,
                 'trace': [list(r) for r in c.trace]}
        if wl.kind == 'sampler':
            entry['digests'] = {str(k): v for k, v in c.digests.items()}
            entry['digest'] = c.final_digest()
        out.append(entry)
    return out


def _extra(wl):
    if wl.kind == 'prior':
        return {'mass_check': wl.chains[0].mass_summary}
    return {}


def _traced(tracer, fn, *args):
    uninstall = install(tracer)
    try:
        return fn(*args)
    finally:
        uninstall()


def traced_run(args, seconds):
    '''Traced set-up and a traced pass of the workload sized for
    `seconds`, then an untraced rerun from the same seed.  Set-up and
    steps have separate tracers, so the per-layer figures cover the
    steps alone.'''
    from workloads import prepare
    setup_tracer, tracer = Tracer(), Tracer()
    with WarningCounter() as warned:
        wl = _traced(setup_tracer, prepare, args.workload, args.seed,
                     seconds)
        attempted, failures = _traced(tracer, run_workload, wl,
                                      Speedometer(), tracer)
    rerun = prepare(args.workload, args.seed, seconds)
    rerun_speed = Speedometer()
    with WarningCounter() as rewarned:
        run_workload(rerun, rerun_speed)
    # the traced pass also stops a chain at a failed check after a sweep
    same = all(c.trace == r.trace[:len(c.trace)]
               for c, r in zip(wl.chains, rerun.chains))
    metrics = layer_metrics(tracer, wl, rerun, warned.total)
    metrics['trace.setup_s'] = sum(
        e - s for _, _, s, e, parent, _ in setup_tracer.spans if parent < 0)
    metrics['trace.setup_integrate_calls'] = \
        setup_tracer.calls['numerics.integrate']
    metrics['machine.reference_ms'] = rerun_speed.median_ms()
    metrics['failed_fraction'] = len(failures) / attempted
    metrics.update(chain_diagnostics(rerun))
    return {'wl': wl, 'attempted': attempted, 'failures': failures,
            'extra': dict(_extra(wl), rerun_warnings=rewarned.total),
            'metrics': metrics, 'warnings': warned.sites,
            'correct': _outputs_checked(failures),
            'notes': [] if same else
            ['the untraced rerun did not reproduce the traced chains'],
            'tracers': {'setup': setup_tracer, 'steps': tracer}}


def plain_run(args, seconds):
    from workloads import prepare
    setup = measure_setup(args.workload, args.seed, seconds)
    speed = Speedometer()
    with WarningCounter() as warned:
        wl = prepare(args.workload, args.seed, seconds)
        attempted, failures = run_workload(wl, speed)
    metrics = end_to_end(wl, setup)
    extra = dict(_extra(wl), setup_probe_s=setup[0],
                 setup_reference_s=setup[1],
                 setup_s_raw=float(np.median(setup[0])),
                 reference_ms=speed.median_ms(),
                 step_s=_seconds(wl), step_s_raw=_seconds(wl, raw=True),
                 jumps_per_s=_jumps_per_s(wl),
                 sweep_ms_p50=_percentile_ms(wl, 50),
                 sweep_ms_p90=_percentile_ms(wl, 90),
                 diagnostics=chain_diagnostics(wl))
    return {'wl': wl, 'attempted': attempted, 'failures': failures,
            'extra': extra, 'metrics': metrics, 'warnings': warned.sites,
            'correct': _outputs_checked(failures), 'notes': []}


def declared_metrics(trace):
    spec = json.loads((ROOT / 'BENCHMARK.json').read_text())
    return spec['per_layer' if trace else 'end_to_end']


def report(args, result, declared):
    wl = result['wl']
    steps = sum(len(c.times) for c in wl.chains)
    print('workload %s: %s' % (wl.name, wl.description))
    print('manifest: %s' % json.dumps(result['manifest']))
    for c in wl.chains:
        if wl.kind == 'sampler':
            line = 'chain %d: %d sweeps, digest %s' % (
                c.index, len(c.times), c.final_digest())
            if c.failure:
                line += ', FAILED at sweep %d: %s: %s' % (
                    c.failure['step'], c.failure['type'],
                    c.failure['message'])
            print(line)
    for f in result['failures']:
        if wl.kind == 'prior':
            print('failure: %s %s: %s: %s' % (f['unit'], f['step'],
                                              f['type'], f['message']))
    print('completed steps: %d (timings cover completed steps only); '
          'failed %d of %d attempted' % (steps, len(result['failures']),
                                         result['attempted']))
    warned = result['warnings']
    print('runtime warnings: %d' % sum(warned.values()))
    for site, n in warned.most_common(5):
        print('  %6d  %s' % (n, site))
    for note in result['notes']:
        print('note: ' + note)
    for key, value in result['extra'].items():
        print('%s: %s' % (key, json.dumps(value)))
    metrics = result['metrics']
    if args.trace:
        base = metrics['trace.step_span_s']
        for name in SHARES:
            if metrics[name]:
                print('share of %.3f s traced step time: %-36s %.3f'
                      % (base, name, metrics[name] / base))
    out = {}
    for item in declared:
        name = item['name']
        if name not in metrics:
            raise BenchmarkError('metric %s was not computed' % name)
        value = metrics[name]
        if not math.isfinite(value):
            raise BenchmarkError('metric %s is not finite' % name)
        out[name] = {'value': value, 'unit': item['unit']}
        print('%-48s %16.6g %s' % (name, value, item['unit']))
    return {'correct': bool(result['correct']),
            'attempted': int(result['attempted']),
            'failed': len(result['failures']), 'metrics': out}


def write_record(args, result, line):
    OUT.mkdir(exist_ok=True)
    stem = '%s-seed%d-trace%d' % (args.workload, args.seed, args.trace)
    record = {'manifest': result['manifest'], 'result': line,
              'all_metrics': result['metrics'],
              'failures': result['failures'],
              'warnings': dict(result['warnings']),
              'extra': result['extra'], 'notes': result['notes'],
              'chains': chain_report(result['wl'])}
    (OUT / (stem + '.json')).write_text(json.dumps(record, indent=1))
    if 'tracers' in result:
        tables = {'%s_%s' % (phase, key): value
                  for phase, tracer in result['tracers'].items()
                  for key, value in tracer.span_table().items()}
        np.savez_compressed(OUT / (stem + '-spans.npz'), **tables)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    parser.add_argument('--workload', required=True)
    parser.add_argument('--seed', type=int, required=True)
    parser.add_argument('--seconds', type=float, required=True)
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / 'corm' / '__init__.py').is_file():
        print('error: no corm sources under %s' % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        from workloads import WORKLOADS
        if args.workload not in WORKLOADS:
            raise BenchmarkError('unknown workload %r; choose from %s'
                                 % (args.workload, ', '.join(WORKLOADS)))
        declared = declared_metrics(args.trace)
        if args.trace:
            result = traced_run(args, args.seconds / 2.0)
        else:
            result = plain_run(args, args.seconds)
        result['manifest'] = manifest(args)
        line = report(args, result, declared)
        write_record(args, result, line)
    except BenchmarkError as err:
        print('error: %s' % err, file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == '__main__':
    sys.exit(main())
