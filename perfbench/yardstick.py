"""A fixed piece of work timed next to the program, to follow the host.

The benchmark's host (a few vCPUs of a shared machine) changes speed by
up to 1.7x for seconds to minutes at a time as other tenants' load comes
and goes, and no counter inside the guest shows it (no steal time, CPU
time rises with wall time).  The yardstick is timed in the benchmark's
own process between operations, and each operation's time is scaled to
what it would have taken on a host where the yardstick takes
``REFERENCE_SECONDS``:

    scaled = measured * REFERENCE_SECONDS / yardstick seconds nearby

The program is bound by the interpreter (HTML parsing, dict and string
work), so the yardstick is too: a loop of small-integer arithmetic and a
loop of subscripts into a table that stays in the CPU cache.  Neither
keeps an object beyond a sample, so the program's heap does not change
the yardstick's speed.  A yardstick of random reads from a 32 MiB table
followed the program less closely (NOTES.md has the numbers).
"""

from __future__ import annotations

import time
from array import array

#: yardstick time of the host the scaled figures refer to (about what it
#: takes on the 2-vCPU Xeon VM the benchmark was written on, fast phase)
REFERENCE_SECONDS = 0.0075
#: iterations of each loop per repeat
LOOP = 60_000
#: entries of the subscripted table (32 KiB: stays in the CPU cache)
TABLE_ITEMS = 4096
#: repeats of each loop per sample; the fastest counts
REPEATS = 3


class Yardstick:
    """Time a fixed mix of integer arithmetic and table subscripts."""

    def __init__(self) -> None:
        self.table = array("q", range(TABLE_ITEMS))
        pool = list(range(TABLE_ITEMS))
        self.reads = [pool[(i * 7919) % TABLE_ITEMS] for i in range(LOOP)]

    def _arithmetic(self) -> float:
        started = time.perf_counter()
        total = 0
        for i in range(LOOP):
            total += i * i % 7
        return time.perf_counter() - started

    def _subscripts(self) -> float:
        table = self.table
        started = time.perf_counter()
        total = 0
        for i in self.reads:
            total += table[i]
        return time.perf_counter() - started

    def sample(self) -> float:
        """Seconds the yardstick takes now (fastest of REPEATS, per loop)."""
        return (
            min(self._arithmetic() for _ in range(REPEATS))
            + min(self._subscripts() for _ in range(REPEATS))
        )
