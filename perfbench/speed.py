"""The machine's speed, read off a fixed reference computation.

On a shared machine the CPU a process gets runs faster or slower from
one second to the next, and every timing moves with it.  The benchmark
therefore times a fixed piece of pure-Python work right before each
operation and each set-up, and divides the measured times by how much
slower than nominal that work ran around them.  The reference work is
the benchmark's own code (nothing from posit), so a change to the
program moves the program's times and not the yardstick.
"""

import random
import time

from reference import eve_region, parse_table, positional_verdict
from workloads import EX3, random_arena

# About the CPU seconds one unit took between operations on the machine
# the bounds were set on (CPython 3.11.7, 2 cores, quiet).  It only sets
# the scale: normalised times read as seconds on a machine that runs a
# unit in UNIT_S.
UNIT_S = 0.0013
# Units that one operation's slowdown is read from: about 20 ms of work.
WINDOW_UNITS = 16


class Speed:
    """Reference units: decide positionality of ex3 (a full pass over
    its transition monoid) and solve a 30-vertex Eve-only arena under
    it (strongly connected components and a backward search)."""

    def __init__(self):
        self.condition = parse_table(EX3)
        self.arena = random_arena(30, 1.0, "abc", random.Random(0))[1]

    def run(self, units: int) -> float:
        """Run `units` units now; their CPU seconds."""
        start = time.process_time()
        for _ in range(units):
            positional_verdict(self.condition)
            eve_region(self.arena, self.condition)
        return time.process_time() - start


def slowdowns(refs, least=WINDOW_UNITS) -> list:
    """For each operation, how many times slower than nominal the
    reference ran around it.  refs[i] is (units, CPU seconds) of the
    units run right before operation i.  The window starts with the units
    before and after the operation and grows both ways until it holds
    `least` units (or all of them)."""
    out = []
    n = len(refs)
    for i in range(n):
        lo, hi = i, min(i + 1, n - 1)
        while (sum(u for u, _ in refs[lo:hi + 1]) < least
               and (lo > 0 or hi < n - 1)):
            lo, hi = max(lo - 1, 0), min(hi + 1, n - 1)
        units = sum(u for u, _ in refs[lo:hi + 1])
        seconds = sum(t for _, t in refs[lo:hi + 1])
        out.append(seconds / (units * UNIT_S))
    return out


def plan(times, share: float) -> list:
    """Units to run before each operation so that the reference takes
    about `share` of the time, spread over the operations in step with
    their times (as first measured); at least one unit in all."""
    units, owed = [], 0.0
    for t in times:
        owed += share * t / UNIT_S
        units.append(int(owed))
        owed -= int(owed)
    if not any(units):
        units[0] = 1
    return units
