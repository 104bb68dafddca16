"""Machine-speed reference for timing on a shared, noisy host.

On a shared sandbox the same work can run up to twice as slow for tens of
seconds, because of load outside the benchmark's process. The benchmark runs
`kernel` next to every timed step and divides the step's time by the
slowdown the kernel shows at that moment, so its figures read as if measured
on a machine where the kernel takes REFERENCE_S. The kernel uses no library
code, so a change to the library cannot move it; it mixes an interpreted
loop, a keyed sort and small numpy calls, like the library's hot paths.
"""

import time

import numpy as np

# Kernel duration on the reference machine: an uncontended 2-vCPU Intel Xeon
# sandbox with Python 3.11.7 and numpy 2.4.6.
REFERENCE_S = 0.0012

_VALUES = np.arange(16.0)


def kernel():
    total = 0.0
    for i in range(8000):
        total += i * 0.5
    order = sorted(range(1024), key=lambda i: (i * 7919) % 1031)
    for i in range(256):
        total += float(np.log1p(_VALUES + i).sum())
    return total + order[0]


def sample():
    """Seconds one kernel run takes now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
