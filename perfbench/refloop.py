"""A fixed pure-Python loop that says how fast the machine runs right now.

On a shared 2-core box the same operation takes up to 1.5x longer for
tens of seconds at a time, whatever the program does, so run medians in
milliseconds move by 10-35 % between runs.  The in-process workloads
time this loop in the worker just before and just after each operation
and also report the operation as a multiple of it ("xref"), which
cancels most of that drift.  The loop does the kind of work the package
does: float arithmetic, calls and dict stores in the interpreter.
"""

import math
from time import perf_counter

ITERATIONS = 40_000


def reference_s() -> float:
    """Wall time of one run of the reference loop, in seconds."""
    t0 = perf_counter()
    acc = 0.0
    table = {}
    for i in range(ITERATIONS):
        x = i * 0.5
        acc += math.sqrt(x + 1.0) / (x + 2.0)
        table[i & 63] = acc
    return perf_counter() - t0
