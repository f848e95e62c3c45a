"""Machine-speed probes, and the scaling of measured times to a reference speed.

On the shared 2-CPU reference VM the same work takes up to about 1.7 times
as long in one minute as in another, and a slow spell lasts from fractions
of a second to minutes, so medians over a run do not remove it.  Short fixed
probes, timed while the workload runs, measure how slow the machine is at
that moment, and every operation's time is scaled to what it would be when
the probe reads its reference time:

    scaled = raw * reference_ns / (mean probe time over the operation)

There are two probes, each matched to the work it stands for:

- `probe_ns` builds tuples and a small dict in this process, as the
  package's kernels do.  `Sampler` runs it every SAMPLE_EVERY_S of wall time
  from a SIGALRM handler, so long operations are sampled inside, and takes
  its time out of the operation it interrupted.  A plain integer loop
  tracked cblocks' slowdowns much less closely.
- `spawn_probe_ns` starts a fresh interpreter that imports a fixed set of
  standard-library modules.  `SpawnSampler` runs it between operations that
  are processes of their own (the cli workload, set-up time), which a probe
  in this process does not track.

The probes are the benchmark's own code and never touch the package, so
they are the same on every commit, and a change to the package moves scaled
times as it moves wall times.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import subprocess
import sys
import time

clock = time.perf_counter_ns

REFERENCE_NS = 450_000          # probe_ns on the quiet reference VM
SPAWN_REFERENCE_NS = 80_000_000  # spawn_probe_ns likewise
SAMPLE_EVERY_S = 0.02
SPAWN_PROBE = "import argparse, csv, dataclasses, fractions, json, concurrent.futures, typing"


def probe_ns() -> int:
    """Time one fixed piece of tuple and dict work, in ns."""
    started = clock()
    counts = {}
    for a in range(12):
        for b in range(12):
            for c in range(6):
                key = tuple(sorted((a, b, c), reverse=True))
                counts[key] = counts.get(key, 0) + a * b - c
    return clock() - started


def spawn_probe_ns(env, cwd) -> int:
    """Time a fresh interpreter importing a fixed set of stdlib modules, in ns."""
    started = clock()
    # pipes, as the cli workload's operations have: a wait with a timeout and
    # no pipe to read polls with sleeps of up to 50 ms, and its time is that
    subprocess.run([sys.executable, "-c", SPAWN_PROBE], env=env, cwd=cwd, check=True,
                   capture_output=True, timeout=60)
    return clock() - started


class _Samples:
    """Probe samples in time order, and the scaling of an interval by them."""

    reference_ns = REFERENCE_NS

    def __init__(self):
        self.starts, self.ends, self.probes = [], [], []
        self._busy = False

    def _record(self, probe) -> None:
        if self._busy:                  # a timer signal during a probe: skip it
            return
        self._busy = True
        started = clock()
        took = probe()
        self.starts.append(started)
        self.probes.append(took)
        self.ends.append(clock())
        self._busy = False

    def scaled_ns(self, start: int, end: int) -> float:
        """The interval's time net of any probe inside it, at the reference speed.

        The speed is the mean of the probes inside the interval or, if none
        ran inside it, of the last probe before it and the first after it.
        """
        i = bisect.bisect_left(self.starts, start)
        j = bisect.bisect_left(self.starts, end)
        net = end - start - sum(self.ends[k] - self.starts[k] for k in range(i, j))
        inside = self.probes[i:j] or self.probes[max(i - 1, 0):j + 1]
        return net * self.reference_ns / statistics.fmean(inside)

    def median_probe_ns(self) -> float:
        return statistics.median(self.probes)


class Sampler(_Samples):
    """Samples probe_ns from a SIGALRM timer for the duration of a `with`."""

    def __enter__(self):
        for _ in range(3):              # warm-up: the first probes are slow
            probe_ns()
        self._record(probe_ns)
        self._handler = signal.signal(signal.SIGALRM, lambda *_: self._record(probe_ns))
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        self._record(probe_ns)

    def after_op(self) -> None:
        pass


class SpawnSampler(_Samples):
    """Samples spawn_probe_ns before the first operation and after each one."""

    reference_ns = SPAWN_REFERENCE_NS

    def __init__(self, env, cwd):
        super().__init__()
        self._probe = lambda: spawn_probe_ns(env, cwd)

    def __enter__(self):
        self._probe()                   # warm-up: fills the page cache
        self.sample()
        return self

    def __exit__(self, *exc):
        pass

    def sample(self) -> None:
        self._record(self._probe)

    after_op = sample
