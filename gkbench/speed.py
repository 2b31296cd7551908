"""A fixed reference loop that measures how fast the host runs Python right now.

On a shared host the same CPU-bound job can take 1.8 times longer from one
second to the next, because other tenants contend for the cores.  The
benchmark runs this loop between jobs and reports every time scaled to the
speed at which the loop takes REF_S, so that a change in the program shows
and a change in the host's load does not.  The loop does nothing the
program under test does, so no change to the program can move it.
"""

from __future__ import annotations

import random
import time

# the loop's time on an idle core of the 2-core x86-64 host the benchmark
# was defined on (Python 3.11); it fixes the unit, not the comparison
REF_S = 0.020

_MASKS = [random.Random(1).getrandbits(640) for _ in range(64)]
_LINE = " ".join(str(1 + i % 6) for i in range(120))


def reference_loop() -> float:
    """Seconds one round of big-int, dict and parsing work takes now."""
    t0 = time.perf_counter()
    acc = 0
    seen = {}
    for r in range(440):
        for i in range(64):
            m = _MASKS[i] & ~_MASKS[(i * 7 + r) & 63]
            acc ^= (m & -m).bit_length()
            seen[i ^ r] = acc
        acc += sum(int(t) for t in _LINE.split())
    return time.perf_counter() - t0
