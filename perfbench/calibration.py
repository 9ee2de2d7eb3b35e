'''Correction of step and set-up times for the machine's speed at the
moment.

The 2-vCPU KVM host this benchmark was tuned on has slow spells that
last from a second to minutes, in which interpreter-bound code runs up
to 60% slower while the process keeps its CPU (no steal time).  Two
references read the current speed.

Steps: a fixed reference loop, timed before every step.  A step's time
is multiplied by NOMINAL_S over the median of the last WINDOW readings:
the result is the step's time at the speed where the loop takes
NOMINAL_S.  Measured there by timing the same sweep, from copies of one
state, next to the loop for 50-120 s: the log-log slope of sweep time
on loop time is 1.07 for a marginal-120 sweep (correlation 0.93) and
0.88-0.94 for two slice-400 sweeps of 17-35 ms and 51-96 ms
(correlation 0.86-0.88), with the loop at 0.8-1.9 ms.  Over 8 seeds of
slice-400 (20 s runs) correcting cut the IQR/median of sweeps_per_s
from 0.20 to 0.14.  A prior-gg draw, mostly vectorised numpy, has slope
0.30 (correlation 0.82), so prior draws are left uncorrected.  A change
that moves a sampler's work from the interpreter into numpy lowers its
slope; compare raw.sweeps_per_s as well when judging one.

Set-up: a fresh process that runs REFERENCE_IMPORT, launched in turn
with the set-up probes.  Imports do not follow the reference loop
(correlation 0.07-0.3 there), but they follow each other: over 5
minutes on that host the raw set-up median moved 27% between halves
and the corrected one 3%.
'''

import math
import statistics
import time

import numpy as np

__all__ = ['NOMINAL_S', 'REFERENCE_IMPORT', 'REFERENCE_IMPORT_S',
           'Speedometer', 'reference_seconds']

NOMINAL_S = 1e-3
# corm's third-party imports; a set-up time is scaled to the speed
# where this process takes REFERENCE_IMPORT_S from launch to ready
REFERENCE_IMPORT = ('import time; import numpy, scipy.interpolate, '
                    'scipy.linalg, scipy.special, scipy.stats; '
                    'print("ready", time.time(), flush=True)')
REFERENCE_IMPORT_S = 1.0
WINDOW = 5


def reference_seconds():
    '''Time one fixed piece of interpreter-bound work: float arithmetic
    in Python and ufuncs on 15-element arrays, the instruction mix of
    corm's quadrature panels and sampler updates.'''
    start = time.perf_counter()
    x = np.linspace(0.1, 1.0, 15)
    total = 0.0
    for i in range(100):
        y = np.exp(-x * (i + 1)) * x
        total += float(y.sum())
        for j in range(30):
            total += math.sqrt(j + total % 3.0)
    return time.perf_counter() - start


class Speedometer:
    '''Rolling reading of the reference loop.'''

    def __init__(self):
        self.readings = []

    def tick(self):
        self.readings.append(reference_seconds())

    def factor(self):
        '''NOMINAL_S over the median of the latest readings.'''
        return NOMINAL_S / statistics.median(self.readings[-WINDOW:])

    def median_ms(self):
        '''Median reading over the run, 0 if there was none.'''
        return statistics.median(self.readings) * 1e3 if self.readings \
            else 0.0
