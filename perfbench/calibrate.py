"""Host-speed calibration sampled while a workload runs.

The shared host's speed drifts by up to twice over seconds to minutes, so
a raw rate measures the host as much as the program.  A Calibration runs a
fixed unit of pure-Python work from a SIGALRM handler every few
milliseconds of the timed rounds.  The unit therefore samples the host's
speed at the same moments as the program's own calls.  Its time is kept
out of the program's time by ``clock``, which returns perf_counter minus
the calibration time spent so far.

Set-up time is scaled by the same kind of unit, timed around each set-up
probe instead of from a timer.

Each workload names the unit that does the kind of work it spends its time
on: Fraction arithmetic on small integers for psi values and traces,
big-integer products, quotients and gcds for synthesis.  The units use only
the standard library, never the program, so a change to the program cannot
move them.
"""

from __future__ import annotations

import gc
import math
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.004  # wall time between two calibration units


def fraction_unit():
    """Continued-fraction steps on small Fractions, like a psi bracket."""
    x = Fraction(1)
    lo = Fraction(0)
    for i in range(1, 30):
        x = (i % 7 + 1) + 1 / x
        if x - lo > 1:
            lo = x - Fraction(1, i)
    return x.numerator.bit_length()


_A = 3**6000 + 12345
_B = 7**5000 + 999
_M = 11**5500


def bigint_unit():
    """A gcd, a product mod m and a quotient of 10^4-bit integers, like synth."""
    g = math.gcd(_A + 2, _B)
    c = (_A * _B) % _M
    return g + c.bit_length() + (_A // (_B >> 7000)).bit_length()


# unit -> its reference time, about its time in the host's fast phases on
# the machine where the figures in README.md were measured (its median
# there was 1.4 to 1.6 times longer); a rate or set-up time is reported as
# it would be on a host where the unit takes this long
REFERENCE_UNIT_S = {fraction_unit: 200e-6, bigint_unit: 550e-6}


def timed(unit):
    """Seconds one run of ``unit`` takes."""
    # no collection inside the unit: its time would then depend on how many
    # objects the program holds, not on the host's speed
    collecting = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    unit()
    seconds = time.perf_counter() - start
    if collecting:
        gc.enable()
    return seconds


def unit_seconds(unit, runs=5):
    """Median time of ``unit`` over ``runs`` runs back to back."""
    return statistics.median(timed(unit) for _ in range(runs))


class Calibration:
    """Runs ``unit`` every INTERVAL_S while active; its time is not the program's."""

    def __init__(self, unit):
        self.unit = unit
        self.reference_s = REFERENCE_UNIT_S[unit]
        self.spent = 0.0  # calibration seconds, ever
        self.units = 0
        self._previous = None

    def clock(self):
        """perf_counter without the calibration time spent so far."""
        return time.perf_counter() - self.spent

    def _tick(self, signum, frame):
        self.spent += timed(self.unit)
        self.units += 1

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def sample(self):
        """(units, seconds) so far; differences give one round's unit time."""
        return self.units, self.spent
