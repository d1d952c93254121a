"""The host probe: a fixed reference computation that tracks CPU speed.

On a small shared host the speed of the CPU drifts by tens of percent for
tens of seconds at a time, and interpreter loops and numpy kernels slow
down together.  A raw millisecond figure therefore says as much about the
host as about the program.  The benchmark runs :meth:`HostProbe.run` between
operations, in the same process, and reports each operation's latency in
*probe units*: the operation's wall time divided by the mean time of the
probes run around it.  A faster program lowers the figure; a slower host
leaves it where it was.

The probe's inputs are fixed (they do not depend on the workload seed), and
its work mixes the three kinds the program spends its time on:

* interpreter work — a loop of integer arithmetic and dict/list updates;
* small-array numpy — ``np.interp`` on 50-sample rows, the shape of one
  trajectory's synchronisation;
* one large vector sort — ``np.sort`` of 300k floats, which is bound by
  memory bandwidth rather than the interpreter.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

__all__ = ["HostProbe", "DriftClock"]

_PROBE_SEED = 20180416  # fixed: the probe must do identical work in every run
_LOOP_ITERATIONS = 10_000
_INTERP_ROWS = 110
_SORT_SIZE = 300_000
_PROBE_EVERY_S = 0.25  # run the probe after an operation this long after the last one
_WINDOW_S = 1.5  # probes within this distance of an operation's midpoint are its reference
_NEAREST = 4  # at least this many of the nearest probes, where the window holds fewer
_PROBES_PER_TICK = 2


class HostProbe:
    """The fixed reference computation (about 6 ms on a 2-vCPU host)."""

    def __init__(self) -> None:
        rng = np.random.default_rng(_PROBE_SEED)
        self._xp = np.linspace(0.0, 1.0, 50)
        self._fp = rng.random((_INTERP_ROWS, 50))
        self._x = np.sort(rng.random(64))
        self._sort_input = rng.random(_SORT_SIZE)

    def run(self) -> float:
        """Run the probe once; return its wall time in seconds."""
        start = time.perf_counter()
        table: dict[int, int] = {}
        acc = 0
        for i in range(_LOOP_ITERATIONS):
            acc = (acc + i * i) % 1_000_003
            table[i & 511] = acc
        total = 0.0
        for row in self._fp:
            total += float(np.interp(self._x, self._xp, row)[-1])
        ordered = np.sort(self._sort_input)
        elapsed = time.perf_counter() - start
        if acc < 0 or total < 0 or ordered[0] > ordered[-1]:  # keep the work observable
            raise AssertionError("probe arithmetic went wrong")
        return elapsed


class DriftClock:
    """Operation timings interleaved with host probes.

    ``record(kind, start, end)`` files one operation's timing and, when at
    least ``_PROBE_EVERY_S`` seconds have passed since the last probe, runs
    the probe right after it.  :meth:`probe_units` divides each operation's
    wall time by the *mean* time of the probes run within ``_WINDOW_S``
    seconds of the operation's midpoint (at least the ``_NEAREST`` closest
    ones), left out those slower than twice their median.  The host
    switches between speed states every few seconds; a mean over the probes
    around an operation follows the share of time spent in each state,
    where a median would jump from one state to the next.
    """

    def __init__(self, probe: HostProbe) -> None:
        self.probe = probe
        self.probe_mid: list[float] = []
        self.probe_s: list[float] = []
        self.ops: dict[str, list[tuple[float, float]]] = {}  # kind -> [(midpoint, wall_s)]
        self._last_probe = -1.0
        self.tick()

    def tick(self) -> None:
        """Run the probe ``_PROBES_PER_TICK`` times now, after one unrecorded warm-up run.

        The warm-up refills the caches the last operation evicted; a probe
        run straight after a large operation reads slow for that reason
        alone, and by how much depends on the operation.
        """
        self.probe.run()
        for _ in range(_PROBES_PER_TICK):
            start = time.perf_counter()
            elapsed = self.probe.run()
            self.probe_mid.append(start + elapsed / 2)
            self.probe_s.append(elapsed)
        self._last_probe = time.perf_counter()

    def record(self, kind: str, start: float, end: float, cost: float | None = None) -> None:
        """Record one ``kind`` operation that ran from ``start`` to ``end``.

        ``cost`` replaces the wall time ``end - start`` as the operation's
        figure (the durable workload passes CPU time for appends).
        """
        self.ops.setdefault(kind, []).append(((start + end) / 2, end - start if cost is None else cost))
        if end - self._last_probe >= _PROBE_EVERY_S:
            self.tick()

    def _reference(self, midpoint: float) -> float:
        """Mean time of the probes around ``midpoint``.

        Probes slower than twice the local median are left out: they were
        hit by a one-off interruption, not by the host's speed state.
        """
        lo = bisect.bisect_left(self.probe_mid, midpoint - _WINDOW_S)
        hi = bisect.bisect_right(self.probe_mid, midpoint + _WINDOW_S)
        if hi - lo < _NEAREST:
            k = bisect.bisect_left(self.probe_mid, midpoint)
            lo, hi = max(0, k - _NEAREST // 2), min(len(self.probe_mid), k + _NEAREST // 2)
        near = self.probe_s[lo:hi]
        limit = 2.0 * statistics.median(near)
        return statistics.fmean(p for p in near if p <= limit)

    def units(self, midpoint: float, seconds: float) -> float:
        """``seconds`` of work centred on ``midpoint``, in probe units."""
        return seconds / self._reference(midpoint)

    def probe_units(self, kind: str) -> list[float]:
        """Each ``kind`` operation's wall time divided by its local probe time."""
        return [self.units(mid, wall) for mid, wall in self.ops.get(kind, [])]

    def wall_ms(self, kind: str) -> list[float]:
        """Each ``kind`` operation's raw wall time in milliseconds."""
        return [wall * 1000.0 for _, wall in self.ops.get(kind, [])]

    def probe_ms(self) -> float:
        """Median probe time in milliseconds."""
        return statistics.median(self.probe_s) * 1000.0
