"""Times measured at a fixed host speed.

The benchmark's host is shared. Its speed changes by 20-40% between
bursts about a second long, and the share of slow bursts drifts over
minutes; process CPU time moves with wall time, so the slowdown is in the
processor, not in waiting. A fixed reference probe, run between timed
items, samples the host's speed at that moment. Each item's wall time is
scaled by the probe's nominal duration over the mean of the probes just
before and just after it, so that the times read as if the probe had
taken its nominal duration throughout.

There are two probes, and neither touches cqlogic, so a change to the
program cannot change them:

- ``probe`` runs in the benchmark's own process. It mixes the two kinds
  of work the library does: an interpreted loop over a dict, and a numpy
  uint8 matrix product of the shape the lattice layer uses. It tracks the
  library items of ``flagg`` and ``los``.
- ``child_probe`` starts a fresh interpreter that imports numpy. It
  tracks work that starts a process, ``cql`` requests and set-up, whose
  time goes mostly to loading code; the in-process probe does not.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import numpy as np

LAP_S = 0.25
_LOOP = 60000
_LEFT = (np.arange(168 * 168).reshape(168, 168) % 3 == 0).astype(np.uint8)
_RIGHT = (np.arange(168 * 600).reshape(168, 600) % 5 == 0).astype(np.uint8)


def probe() -> float:
    """Seconds the in-process reference work takes now."""
    start = time.perf_counter()
    table, acc = {}, 0
    for i in range(_LOOP):
        table[i & 1023] = table.get(i & 1023, 0) + i
        acc += i * i % 7
    int(((_LEFT @ _RIGHT) > 0).sum())
    return time.perf_counter() - start


probe.nominal_s = 0.020        # about its duration on a quiet host


# One BLAS thread: numpy's default thread pool makes the import time
# bimodal (about 150 or 250 ms on the baseline host), which would read as a
# change of host speed.
_CHILD_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")


def child_probe() -> float:
    """Seconds a fresh interpreter takes to import numpy and exit."""
    start = time.perf_counter()
    # No timeout: with one, the wait polls at up to 50 ms steps.
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, env=_CHILD_ENV,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - start


child_probe.nominal_s = 0.150  # about its duration on a quiet host


class WallClock:
    """Plain wall time, for traced runs.

    ``stop`` and ``record`` return an index; ``seconds()[index]`` is the
    time of that measurement and ``raw[index]`` its wall time.
    """

    def __init__(self):
        self.raw = []

    def start(self):
        self.t0 = time.perf_counter()

    def lap(self):
        """Mark a point between two steps of the running measurement."""

    def stop(self, probe=None) -> int:
        return self.record(time.perf_counter() - self.t0, probe)

    def record(self, elapsed: float, probe=None) -> int:
        self.raw.append(elapsed)
        return len(self.raw) - 1

    def seconds(self):
        return list(self.raw)


class HostClock(WallClock):
    """Wall time scaled to the host speed at which ``probe`` takes its
    nominal duration.

    The probe runs once at the start and then after every ``every``-th
    measurement, or after those that ask for it with ``probe``. A long
    measurement is cut into parts: ``lap`` probes the
    host when the current part has run LAP_S or more, since probes only at
    the ends of an item of several seconds miss the bursts inside it. Each
    part is scaled by the mean of the probes on either side of it; the
    probes themselves are not timed.
    """

    def __init__(self, probe=probe, every=1):
        super().__init__()
        self.probe, self.every = probe, every
        self.probes = [probe()]
        self.parts = []            # per measurement: [(seconds, index of the probe before)]
        self.pending = []

    def lap(self):
        elapsed = time.perf_counter() - self.t0
        if elapsed >= LAP_S:
            self.pending.append((elapsed, len(self.probes) - 1))
            self.probes.append(self.probe())
            self.t0 = time.perf_counter()

    def record(self, elapsed: float, probe=None) -> int:
        parts, self.pending = self.pending + [(elapsed, len(self.probes) - 1)], []
        self.parts.append(parts)
        index = super().record(sum(seconds for seconds, _ in parts))
        if probe if probe is not None else len(self.raw) % self.every == 0:
            self.probes.append(self.probe())
        return index

    def seconds(self):
        if self.parts and self.parts[-1][-1][1] == len(self.probes) - 1:
            self.probes.append(self.probe())
        probes, nominal = self.probes, self.probe.nominal_s
        return [sum(seconds * nominal * 2 / (probes[b] + probes[b + 1]) for seconds, b in parts)
                for parts in self.parts]
