"""Machine-speed reference for the end-to-end times.

On a shared host the CPU speed one process gets swings by up to 2x over
minutes, and the process's CPU time swings with its wall time, so the
slowdown is in the speed of each instruction, not in waiting for a core.
Neither the fastest nor the median repetition escapes a slow stretch that
lasts a whole run.  The benchmark therefore times a fixed pure-Python loop
between reports and divides each report's wall time by it.

The loop is a sparse product of two 90-term polynomials in four variables
held as dicts of exponent tuples -- the dict, tuple and float work that
hamalg's interpreted code does, at the size of a 2-pair phase-space
product -- and uses nothing from hamalg, so a change to the program cannot
move it.  Over four-minute stretches cut into 30-second windows, it
tracked every workload better than a 40-term, 3-variable loop did.

A time is reported in reference seconds: seconds on a CPU that runs the
loop in ``REFERENCE_S``.  On a quiet 2-core x86-64 container it takes
about that long, so reference seconds and wall seconds agree there.
"""

from __future__ import annotations

import random
import time

#: the loop's time on the reference CPU
REFERENCE_S = 0.0055

#: loop runs per sample; the fastest counts, so the first one, which
#: finds the caches as the program left them, rarely does
LOOPS_PER_SAMPLE = 2

_RNG = random.Random(2)


def _poly(terms: int) -> dict:
    return {tuple(_RNG.randrange(4) for _ in range(4)): _RNG.random() for _ in range(terms)}


_A, _B = _poly(90), _poly(90)


def _loop_s() -> float:
    start = time.perf_counter()
    out: dict = {}
    for ka, va in _A.items():
        for kb, vb in _B.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            out[key] = out.get(key, 0.0) + va * vb
    sorted(out.items())
    return time.perf_counter() - start


def sample() -> float:
    """Seconds the reference loop takes now (fastest of a few runs)."""
    return min(_loop_s() for _ in range(LOOPS_PER_SAMPLE))


def to_reference(times, samples) -> list:
    """Each time in reference seconds.  ``samples`` has one more entry than
    ``times``: sample i is taken just before time i, sample i+1 just after."""
    if len(samples) != len(times) + 1:
        raise ValueError("need one speed sample before and after every time")
    return [t * REFERENCE_S * 2 / (before + after)
            for t, before, after in zip(times, samples, samples[1:])]
