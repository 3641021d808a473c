"""Machine-speed probe: scales timings to a fixed reference speed.

On the 2-vCPU machine this benchmark was built on, the same seed of the
same workload took anywhere from 0.62 s to 1.15 s within one minute: the
machine runs in fast and slow phases of one to twenty seconds, with steal
time near zero, so the cause is outside the process. Raw wall times of two
runs therefore differ by more than any bound worth setting.

A probe is a fixed kernel that hapticloc does not run: small-array numpy
calls (the per-call regime of the filter at 500 particles), arithmetic on
10k-row arrays (the per-particle regime) and random gathers from a 16 MB
array (map lookups that miss the caches). It runs between filter steps
every PROBE_EVERY_S seconds. Each timing is multiplied by
REFERENCE_PROBE_S / (the probe time around it), so a metric reads what it
would on the machine at the reference speed.

The kernel runs twice per probe and only the second pass is timed: the
first pass brings the probe's own code and data back into the caches, so
the timed pass does not depend on what the step before it left there. A
control run that slowed hapticloc by a known amount is in README.md.
"""

from __future__ import annotations

import time

import numpy as np

PROBE_EVERY_S = 0.1
# the timed pass's median time on the reference machine (2-vCPU Intel Xeon,
# Python 3.11, numpy 2.4); a constant, so scaled figures compare across runs
REFERENCE_PROBE_S = 2.0e-3


class SpeedProbe:
    """Times the probe kernel on request and keeps every sample.

    starts and spent are each probe's start and whole time, warm-up pass
    included; durations is the timed pass alone.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = rng.standard_normal((500, 3))
        self._quats = rng.standard_normal((500, 4))
        self._rows = rng.standard_normal((10_000, 3))
        self._table = rng.standard_normal(2_000_000)
        self._index = rng.integers(0, len(self._table), 20_000)
        self.starts: list[float] = []
        self.spent: list[float] = []
        self.durations: list[float] = []
        self._last_end = -np.inf

    def _kernel(self) -> None:
        for _ in range(8):
            np.cross(self._small, self._small[::-1])
            np.exp(self._quats).sum()
            np.linalg.norm(self._small, axis=-1)
            acc = 0
            for i in range(200):
                acc += i
        for _ in range(2):
            np.cross(self._rows, self._rows[::-1])
            np.linalg.norm(self._rows, axis=-1)
            np.take(self._table, self._index).sum()

    def sample(self) -> float:
        t0 = time.perf_counter()
        self._kernel()
        t = time.perf_counter()
        self._kernel()
        self._last_end = time.perf_counter()
        self.starts.append(t0)
        self.spent.append(self._last_end - t0)
        self.durations.append(self._last_end - t)
        return self.durations[-1]

    def maybe_sample(self) -> bool:
        """Probe if PROBE_EVERY_S has passed since the last probe; True if it did."""
        if time.perf_counter() - self._last_end >= PROBE_EVERY_S:
            self.sample()
            return True
        return False

    def net_and_scale(self, t0: float, t1: float) -> tuple:
        """(seconds from t0 to t1 less the probing in between, mean scale
        over that interval)."""
        probing = sum(d for s, d in zip(self.starts, self.spent) if t0 <= s < t1)
        return t1 - t0 - probing, self.scale_over(t0, t1)

    def scale_at(self, times) -> np.ndarray:
        """REFERENCE_PROBE_S over the probe time in force at each time: the
        median of the last probe before it and its two neighbours."""
        starts = np.asarray(self.starts)
        d = np.asarray(self.durations)
        smooth = np.array([np.median(d[max(i - 1, 0) : i + 2]) for i in range(len(d))])
        idx = np.clip(np.searchsorted(starts, np.asarray(times, dtype=float), side="right") - 1, 0, len(d) - 1)
        return REFERENCE_PROBE_S / smooth[idx]

    def scale_over(self, t0: float, t1: float) -> float:
        """Mean scale over the probes taken between t0 and t1 (the last one
        before t0 when none was)."""
        inside = [s for s in self.starts if t0 <= s < t1] or [t0]
        return float(np.mean(self.scale_at(inside)))
