"""Host speed probes, and times scaled to a reference host speed.

On a shared virtual machine the speed of a core drifts: on the 2-vCPU
x86-64 VM the benchmark was written on, fixed loops ran up to 1.8 times
slower for a fraction of a second to minutes at a time, while other tenants
were busy, and the time of a ``hesim`` command moved with them. So the
benchmark times a fixed loop next to every measurement and reports each
time divided by the loop's slowdown (its time over its reference time):
the time the measurement would have taken on a host where the loop takes
its reference time.

Two loops are offered, because commands differ in how far the drift moves
them. Timing fixed commands between probes for 120 s, the log of the
command time followed the log of each loop's time with these slopes
(correlations 0.88-0.95):

    command                              pure-Python loop   numpy loop
    chsh, 4 restarts, z = 0.9            1.48               1.04
    teleport spin, 20 trials, z = 1.1    1.42               1.05
    swap, 2 trials, z = 6.1              0.93               0.69

Each workload is scaled by the loop whose slope is nearest 1 for its
commands (``WORKLOAD_PROBES``). An import of ``hesim.cli`` followed the
pure-Python loop with a slope of 1.1, and runs before numpy is loaded, so
set-up is scaled by that loop.

The loops are no part of ``hesim``, so a change to the program moves the
scaled times exactly as it moves the wall times.
"""

from __future__ import annotations

import time

# The loops' times, in seconds, on the reference host: about their times on
# the VM above when no other tenant slowed it down.
PYTHON_REFERENCE_S = 5.5e-4
NUMPY_REFERENCE_S = 4.0e-4
# The worker probes again before a command once this many seconds have
# passed since the last probe.
INTERVAL_S = 0.25
_TERMS = 8000
_KERNELS = 20
_REPEATS = 3


def _best(loop) -> float:
    best = float("inf")
    for _ in range(_REPEATS):
        t0 = time.perf_counter()
        loop()
        best = min(best, time.perf_counter() - t0)
    return best


def _series() -> None:
    total = 0.0
    for k in range(1, _TERMS):
        total += 1.0 / (k * k)


def python_slowdown() -> float:
    """How many times slower than reference a pure-Python loop runs now."""
    return _best(_series) / PYTHON_REFERENCE_S


def numpy_slowdown() -> float:
    """How many times slower than reference small numpy kernels run now."""
    import numpy as np

    a = np.exp(1j * np.linspace(0.0, 1.0, 48))

    def kernels() -> None:
        for _ in range(_KERNELS):
            m = np.kron(a, a)
            np.vdot(m, m)

    return _best(kernels) / NUMPY_REFERENCE_S


WORKLOAD_PROBES = {
    "protocol_mc": numpy_slowdown,
    "chsh_scan": numpy_slowdown,
    "cutoff_sweep": python_slowdown,
}
