"""Host-speed reference for timing on a noisy host.

On a shared host the same code runs at a speed that drifts by up to 2x over
tens of seconds. A fixed reference kernel of small numpy calls (``kron``,
``eigvalsh``, a partial transpose), the kind the library's hot paths are
made of, is timed while the measured code runs: ``SIGALRM`` interrupts it
every PERIOD_S and the handler runs the kernel once, so a long step is
sampled all along, not only at its ends. ``timed`` subtracts the handler's
own time from the step and returns the host speed, REF_KERNEL_S over the
median kernel time; busy time times speed is the step's time on a host
where the kernel takes REF_KERNEL_S. ``busy_clock`` is the clock with the
handler's time taken out; the tracer times its spans with it. The kernel
is part of the benchmark, so no change to the library can move it.
"""

import signal
import statistics
import time

import numpy as np

REF_KERNEL_S = 0.001    # the kernel's median time on the reference host
PERIOD_S = 0.05

_EYE3 = np.eye(3, dtype=complex)
_EYE9 = np.eye(9, dtype=complex)
_eigvalsh = np.linalg.eigvalsh
_handler_s = 0.0        # time spent in the sampler's handler so far


def busy_clock() -> float:
    """``time.perf_counter`` less the time the sampler's handler has taken."""
    return time.perf_counter() - _handler_s


def _kernel_s() -> float:
    t = time.perf_counter()
    for _ in range(20):
        x = np.kron(_EYE3, _EYE3) + _EYE9
        _eigvalsh(x)
        x.reshape(3, 3, 3, 3).transpose(0, 3, 2, 1).reshape(9, 9)
    return time.perf_counter() - t


class _Sampler:
    def __init__(self):
        self.kernel_s = []
        self._busy = False

    def _on_alarm(self, signum, frame):
        global _handler_s
        if self._busy:
            return
        self._busy = True
        t = time.perf_counter()
        self.kernel_s.append(_kernel_s())
        _handler_s += time.perf_counter() - t
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def timed(fn):
    """Run ``fn()``: (its result, busy seconds, host speed)."""
    with _Sampler() as sampler:
        t = busy_clock()
        result = fn()
        busy = busy_clock() - t
    # samples right after the step too, so a short step has enough
    samples = sampler.kernel_s + [_kernel_s() for _ in range(10)]
    return result, busy, REF_KERNEL_S / statistics.median(samples)


# the first calls of a fresh interpreter run slow (cold caches, the
# interpreter specializing the loop), so they are spent here
for _ in range(20):
    _kernel_s()
