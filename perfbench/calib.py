"""How slow the machine is right now, from a fixed pure-Python loop.

The benchmark runs on shared virtual machines whose speed drifts by tens
of percent over seconds to minutes, slowing the program under test and
this loop alike.  Timing the loop right next to each measurement and
dividing by its nominal time gives the machine's slowness at that
moment; dividing a measured time by it gives the time the same work
takes at the nominal speed.  Nothing here imports ``qdissect``, so a
change to the program never changes the loop.
"""

from __future__ import annotations

import statistics
import time

CHUNK_ITERATIONS = 3000
# seconds one chunk takes at the nominal speed (about its median on a
# 2-core Xeon VM at 2.0 GHz under CPython 3.11); it only sets the scale of
# the normalised times and is the same for every commit
NOMINAL_CHUNK_S = 0.00080


def chunk() -> float:
    """Seconds for one fixed loop of dict updates over a few thousand keys.

    Like the program's Laurent-polynomial arithmetic, it is dict lookups
    and stores with multi-digit integers.  On a 2-core Xeon VM whose fast
    and slow phases ran cold CLI verifications 25-28% apart, dividing by
    this loop's slowness brought the phases to within 6% of each other.
    """
    started = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(CHUNK_ITERATIONS):
        k = (i * 7919) % 4093
        table[k] = table.get(k, 0) + i * 123456789123
    return time.perf_counter() - started


def slowness(chunks: int) -> float:
    """The median time of ``chunks`` chunks over the nominal chunk time."""
    return statistics.median(chunk() for _ in range(chunks)) / NOMINAL_CHUNK_S
