"""Re-measure the three reference figures quoted in perfbench/README.md.

    python3 perfbench/baselines.py

1. psi_at at width 10^-12 for t = 3..10^4 over the golden ratio, sqrt 2 and
   e (about 3 x 10^4 values), one source object per number;
2. synthesize(extremal_schedule(3, 7)), with the bit length of its last
   event value;
3. the wall time of the tier-1 suite, ``python -m pytest -q`` with src/ on
   the path, and its summary line.

Each figure is one timing, not a median; they are orientation points for
the README, not gated metrics.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from fractions import Fraction

import run


def psi_sweep_baseline(prog):
    width = Fraction(1, 10**12)
    start = time.perf_counter()
    values = 0
    for spec in ("periodic:[1;|1]", "periodic:[1;|2]", "rule:e"):
        source = prog.cf_engine.parse_source(spec)
        for t in range(3, 10**4 + 1):
            prog.psi.psi_at(source, t, target_width=width)
            values += 1
    return values, time.perf_counter() - start


def synth_baseline(prog):
    start = time.perf_counter()
    result = prog.synth.synthesize(prog.synth.extremal_schedule(3, 7))
    return time.perf_counter() - start, result.event_values[-1].bit_length()


def suite_baseline():
    env = dict(os.environ, PYTHONPATH=run.SRC)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
        cwd=run.ROOT, env=env, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    return time.perf_counter() - start, lines[-1] if lines else proc.stderr.strip()


def main():
    prog = run.load_program()
    values, seconds = psi_sweep_baseline(prog)
    print(f"psi_at sweep, width 1e-12, t=3..1e4 x 3 sources: {values} values in "
          f"{seconds:.2f} s ({seconds / values * 1e6:.0f} us/value)")
    seconds, bits = synth_baseline(prog)
    print(f"synthesize(extremal_schedule(3, 7)): {seconds:.2f} s, last event value {bits} bits")
    seconds, summary = suite_baseline()
    print(f"tier-1 suite: {seconds:.1f} s wall ({summary})")


if __name__ == "__main__":
    main()
