"""Wall time rescaled to a fixed host speed.

On a shared 2-vCPU Xeon VM the same code runs up to 1.8x slower for
stretches of a tenth of a second to minutes, as other tenants load the
machine, and neither steal time nor CPU time shows it.  Same-input
bootstraps of the discovery workload take 4.2 to 8.0 s there, so raw
wall time cannot tell a 10% regression from the host's mood.
:class:`SpeedSampler` times a fixed calibration kernel every
CAL_PERIOD_S while the timed code runs and rescales each stretch of
that code's time by the kernel's speed around it.

``perfbench/run.py`` imports it, and so does the fresh interpreter that
times the workload's imports, which is why it imports only ``signal``
and ``time``: anything more would be charged to that timing.
"""

from __future__ import annotations

import signal
import time

#: Period of the calibration ticks.
CAL_PERIOD_S = 0.01
#: Warm ``_kernel`` time that ``reference_seconds`` is expressed at: about what
#: it takes on the reference host (2-vCPU Xeon VM, Python 3.11) when
#: nothing else loads the machine.
CAL_REF_S = 25e-6
#: Largest slowdown one tick may show against the phase's fastest tenth.
CAL_CAP = 2.0


def _kernel(n: int = 300) -> int:
    """Fixed interpreter work: its time follows the host's current speed."""
    counts: dict[int, int] = {}
    keys = []
    for i in range(n):
        key = i & 127
        counts[key] = counts.get(key, 0) + i
        keys.append(key)
    return len(keys)


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


class SpeedSampler:
    """Times a calibration kernel every CAL_PERIOD_S while code runs.

    A SIGALRM handler runs ``_kernel`` twice between two bytecodes of the
    timed code and keeps the second, warm time, which follows the host's
    speed at that moment; the timed code's state is not touched.
    """

    def __init__(self) -> None:
        self.ticks: list[tuple] = []  # (start, end, warm kernel s), since entry
        self.end = 0.0
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        begin = time.perf_counter()
        _kernel()
        warm = time.perf_counter()
        _kernel()
        done = time.perf_counter()
        self.ticks.append((begin - self.start, done - self.start, done - warm))
        self._busy = False

    def __enter__(self) -> "SpeedSampler":
        self.previous = signal.signal(signal.SIGALRM, self._tick)
        self.start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.end = time.perf_counter() - self.start
        signal.signal(signal.SIGALRM, self.previous)

    def program_seconds(self) -> float:
        """Wall time of the phase less the time spent in the handler."""
        return self.end - sum(end - begin for begin, end, _ in self.ticks)

    def reference_seconds(self) -> float:
        """The program's time rescaled to a kernel time of CAL_REF_S.

        Each stretch between two ticks is scaled by CAL_REF_S over the
        median kernel time of the five ticks around it.  A tick counts
        as at most CAL_CAP times the fastest tenth of the phase's ticks:
        beyond that the kernel slows more than the program does.
        """
        if not self.ticks:
            return self.end
        kernel = sorted(k for _, _, k in self.ticks)
        cap = CAL_CAP * kernel[len(kernel) // 10]
        kernel = [min(k, cap) for _, _, k in self.ticks]
        total, previous = 0.0, 0.0
        for i, (begin, end, _) in enumerate(self.ticks):
            total += (begin - previous) * CAL_REF_S / _median(kernel[max(0, i - 2):i + 3])
            previous = end
        return total + (self.end - previous) * CAL_REF_S / _median(kernel[-3:])
