"""Host-speed calibration.

On a shared machine the same work takes up to ~2x longer from one
minute to the next, for two reasons that come and go independently:

* the hypervisor runs other guests on this machine's CPUs ("steal":
  the CPU is simply not ours for a while), and
* while a CPU is ours it runs slower or faster with the load on the
  cores and caches it shares (measured on the reference machine: the
  same busy loop gets through 13.5M to 19.2M iterations in 5 s of CPU
  time on one CPU or the other, minutes apart).

So every timed interval is corrected for both: the steal the kernel
reports for the interval's CPUs (``/proc/stat``) is taken off its wall
time, and the rest is divided by the host-speed factor seen at its two
ends (and in between, when the work runs in another process) -- a
fixed calibration loop timed in CPU time, which steal does not
inflate.  Work timed in CPU time in the first place (a single
``Pipeline.run``) is divided by the same CPU-time factor only.  A
factor of 1.0 means the loop ran at its reference time; the raw host
times are reported next to the normalised ones.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time

#: Calibration loop size and its CPU time on an idle reference machine
#: (2-vCPU Xeon VM, Python 3.11).  Only the ratio between runs matters.
PROBE_ITERATIONS = 30_000
PROBE_REFERENCE_S = 0.0030

_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def probe_seconds() -> float:
    """CPU time of one fixed, interpreter-bound calibration loop."""
    start = time.thread_time()
    table: dict = {}
    value = 0
    for i in range(PROBE_ITERATIONS):
        table[i & 255] = value
        value = (value + i * 7) % 1_000_003
    return time.thread_time() - start


def steal_seconds(cpus) -> float:
    """Seconds the hypervisor has taken ``cpus`` away from this machine
    since boot, summed over them (the ``steal`` column of the per-CPU
    lines of ``/proc/stat``; 0 where the kernel does not report it)."""
    total = 0
    try:
        with open("/proc/stat") as handle:
            for line in handle:
                name, *fields = line.split()
                if not name.startswith("cpu"):
                    break
                if name[3:].isdigit() and int(name[3:]) in cpus \
                        and len(fields) >= 8:
                    total += int(fields[7])
    except OSError:
        return 0.0
    return total * _TICK_S


class HostSpeed:
    """Host-speed factors for consecutive intervals of work.

    Construct it right before the first interval; call
    :meth:`end_interval` right after each one ends (it probes, so take
    the next interval's start time after it returns).  The CPUs of
    this process can run at different speeds (a noisy neighbour on one
    of them), so the probe factor is the mean over every CPU the work
    may run on, each probed in turn, and the steal taken off an
    interval is the mean over those CPUs.  The speed of a CPU changes
    within a second, so an interval of several seconds is probed in
    between too, by :meth:`sampling` while this process waits for the
    work done elsewhere.
    """

    #: seconds between the probes of :meth:`sampling`
    PERIOD_S = 0.2

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        #: CPU-time probe factors, one per probe
        self.factors: list[float] = []
        #: CPU-time factor of the interval that ended last
        self.cpu_factor = 1.0
        self._inner: list[float] = []
        self._inner_s = 0.0
        self._last = self._sample()[0]
        self._steal = steal_seconds(self.cpus)

    def _sample(self) -> tuple[float, float]:
        """(factor, CPU seconds the probes took)."""
        cpus = set(self.cpus)
        if len(cpus) == 1:
            times = [probe_seconds()]
        else:
            times = []
            try:
                for cpu in self.cpus:
                    os.sched_setaffinity(0, {cpu})
                    times.append(probe_seconds())
            finally:
                os.sched_setaffinity(0, cpus)
        factor = sum(times) / len(times) / PROBE_REFERENCE_S
        self.factors.append(factor)
        return factor, sum(times)

    @contextlib.contextmanager
    def sampling(self):
        """Probe every :attr:`PERIOD_S` from a background thread while
        the body runs; the body must leave this process idle (waiting
        on a server), as the probes run on the work's CPUs."""
        stop = threading.Event()

        def probe_until_stopped() -> None:
            while not stop.wait(self.PERIOD_S):
                factor, seconds = self._sample()
                self._inner.append(factor)
                self._inner_s += seconds

        thread = threading.Thread(target=probe_until_stopped, daemon=True)
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join()

    def end_interval(self, elapsed: float) -> float:
        """The factor of the wall-clock interval of ``elapsed`` seconds
        that just ended: ``elapsed / factor`` is its wall time less the
        mean steal of its CPUs and the time probes took from it,
        divided by the mean of the CPU-time probes at its two ends and
        in between (also kept as :attr:`cpu_factor`)."""
        stolen = (steal_seconds(self.cpus) - self._steal) / len(self.cpus)
        inner, self._inner = self._inner, []
        stolen += self._inner_s / len(self.cpus)
        self._inner_s = 0.0
        start, self._last = self._last, self._sample()[0]
        self._steal = steal_seconds(self.cpus)
        samples = [start, *inner, self._last]
        self.cpu_factor = sum(samples) / len(samples)
        # Steal is counted in clock ticks: keep a floor under the rest.
        running = max(elapsed - stolen, 0.1 * elapsed)
        return self.cpu_factor * elapsed / running
