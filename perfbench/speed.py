"""Machine-speed reference for timing on a shared host.

On a machine shared with other tenants, the speed of one core can swing
by 40% within seconds, and a slow spell can last a whole run.  On the
development host (Intel Xeon VM, 2 vCPUs at 2.0 GHz) a fixed
pure-Python loop took 0.50 s in quiet spells and 0.75 s in busy ones,
and a STRESS pass took from 4.2 s to 7.7 s from one run to the next.

:class:`Speedometer` times a small fixed reference kernel 20 times a
second, from a ``SIGALRM`` handler, while a pass runs.  Its clock
excludes the kernel's own time, so the workload's timings are not
inflated by it.  A pass's *speed factor* is the kernel's nominal time
(:data:`KERNELS`) divided by its median measured time during the pass.
Multiplying a raw time by the factor gives the time at reference speed:
the time the same work takes while the kernel runs at its nominal
time.  The kernels are benchmark code, so a change to the program
cannot move them.  The raw wall-clock times are reported beside the
scaled ones.
"""

from __future__ import annotations

import signal
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Seconds between kernel samples (wall-clock ticks of ``ITIMER_REAL``).
INTERVAL_S = 0.05


def python_kernel() -> int:
    """Fixed interpreter work: integer arithmetic and list indexing.

    Apart from integers it allocates a single list, so it almost never
    triggers the cyclic garbage collector, which would charge a
    collection of the workload's objects to the kernel.
    """
    table = [0] * 64
    acc = 0
    for i in range(1500):
        j = (i * 7919) & 63
        table[j] = (table[j] + i) & 0xFFFF
        acc ^= table[(j + 17) & 63]
    return acc


_ARRAY: List[Any] = []


def numpy_kernel() -> Optional[float]:
    """Fixed numpy work: sort 32k floats and search 4k of them.

    Returns ``None`` until the workload's own import of numpy has
    finished, so a sample neither runs inside that import nor moves its
    cost out of the timed set-up.
    """
    numpy = sys.modules.get("numpy")
    spec = getattr(numpy, "__spec__", None)
    if spec is None or getattr(spec, "_initializing", False):
        return None
    if not _ARRAY:
        # A golden-ratio sequence: unsorted, the same on every run.
        _ARRAY.append(numpy.arange(1 << 15) * 0.6180339887498949 % 1.0)
    data = _ARRAY[0]
    return float(numpy.searchsorted(numpy.sort(data), data[:4096]).sum())


#: Reference kernels by name, with their time at reference speed: the
#: quiet-spell median on the host above, so that there scaled and raw
#: times agree.  The interpreter-bound workloads use ``python``; the
#: vectorized backend, whose time goes to numpy, uses ``numpy``.  Each
#: tracks its own kind of work: over 80 s of vectorized-10k passes the
#: spread of scaled pass times (coefficient of variation) was 0.034
#: with ``numpy`` and 0.072 with ``python``, against 0.10 unscaled.
KERNELS: Dict[str, Tuple[Callable[[], Any], float]] = {
    "python": (python_kernel, 0.00021),
    "numpy": (numpy_kernel, 0.00075),
}


def sample(kind: str) -> Optional[float]:
    """One timed run of kernel ``kind`` in seconds (``None``: no run).

    An untimed run first brings the kernel back into the CPU caches, so
    the timed run does not measure what the workload evicted.
    """
    kernel = KERNELS[kind][0]
    if kernel() is None:
        return None
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def factor_of(samples: List[float], kind: str) -> float:
    """Speed factor of a window from the kernel times sampled in it."""
    return KERNELS[kind][1] / statistics.median(samples)


class Speedometer:
    """Samples the kernel periodically while active (a context manager).

    Only one may be active per process: it owns ``SIGALRM``.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.samples: List[float] = []
        #: Seconds spent sampling so far.
        self.spent = 0.0

    def _tick(self, *_: Any) -> None:
        start = time.perf_counter()
        taken = sample(self.kind)
        if taken is not None:
            self.samples.append(taken)
        self.spent += time.perf_counter() - start

    def clock(self) -> float:
        """``perf_counter`` minus the time spent sampling."""
        return time.perf_counter() - self.spent

    def factor(self, since: int = 0) -> float:
        """Speed factor over the samples taken after index ``since``.

        A window too short to hold a sample is measured on the spot;
        1.0 (raw time) if the kernel cannot run yet.
        """
        window = self.samples[since:]
        if not window:
            taken = sample(self.kind)
            if taken is None:
                return 1.0
            window = [taken]
        return factor_of(window, self.kind)

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
