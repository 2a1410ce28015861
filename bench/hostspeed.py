"""Times taken at a fixed host speed, sampled inside the timed section.

The benchmark's host is a shared virtual machine.  Its speed drifts: the CPU
time of a fixed piece of work moves by 15% between 10 s windows, and steal
stretches wall time by up to 2x on top of that.  The drift is common to all
code in the process.  Interleaving ``inference_sweep`` with ``reference``
below every 50 ms for 160 s, the quartile spread of the sweep's time over
10 s windows was 0.157 and that of the ratio of the two times 0.019.

``HostClock`` times ``reference`` on entry to and exit from a section, and,
inside ``HostClock.running``, from a SIGPROF handler every ``INTERVAL_S`` of
the process's CPU time, so the samples are taken while the program under
test runs, at the same host speed.  ``HostClock.time`` reports a section in
CPU seconds of the process, less the time of the samples it holds, and in
host seconds: the CPU seconds scaled by ``REFERENCE_S`` over the mean sample
of the section, i.e. the time the section would take on a host on which one
``reference`` call takes ``REFERENCE_S``.  The samples take about 1% of
the CPU.

While the profiling timer is armed, Linux reads the process's CPU clock to
the scheduler tick only (4 ms here), so ``running`` suits sections of
seconds; a shorter section relies on its entry and exit samples.  The
samples themselves read the thread's CPU clock, which stays exact.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

# CPU seconds of one reference call on the host that defines the scale; one
# call took a median 0.107 ms on the 2-vCPU Xeon VM of bench/README.md.
REFERENCE_S = 1e-4
# CPU seconds of the process between two samples.
INTERVAL_S = 0.02

_BASE = np.arange(64.0)


def reference() -> float:
    """A fixed mix of small numpy calls and interpreter work, as in a region
    update of the program under test."""
    acc = 0.0
    table = {}
    for i in range(16):
        v = np.exp(_BASE * 1e-3) + i
        acc += float(v.max())
        table[i & 7] = acc
    return acc


class HostClock:
    """Times sections in CPU seconds and in seconds at a fixed host speed.

    ``time`` samples the host's speed on entry and exit; inside ``with
    clock.running():`` it is also sampled every ``INTERVAL_S`` of CPU time.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, *_) -> None:
        # The first call brings the kernel into the caches, so the timed one
        # sees the host's speed rather than what the program left there.
        begin = time.thread_time()
        reference()
        start = time.thread_time()
        reference()
        end = time.thread_time()
        self.samples.append(end - start)
        self.spent += end - begin

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)

    def time(self, fn, *args):
        """Run ``fn(*args)``; return its result, CPU seconds and host seconds."""
        self._sample()
        first, spent = len(self.samples) - 1, self.spent
        start = time.process_time()
        result = fn(*args)
        cpu = time.process_time() - start - (self.spent - spent)
        self._sample()
        speed = statistics.fmean(self.samples[first:])
        return result, cpu, cpu * REFERENCE_S / speed
