"""Benchmark command: one workload, one seed, a fixed measuring time.

Run from the root of a checkout of the repository::

    python3 perfbench/run.py --workload s2t-batch --seed 1 --seconds 25 --trace 0

The program is imported from ``src/`` of the same checkout.  The command
prints a human-readable report and, as its last line, one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
same workload runs with traced and untraced rounds alternating and the
metrics are the per-layer ones (see ``README.md`` next to this file).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKROOT = HERE / "_work"

# Storage counts reported per operation: metric suffix -> (op kind, counter).
STORAGE_COUNTS = {
    "bytes_written": ("append", "bytes_written"),
    "writes": ("append", "writes"),
    "fsyncs": ("append", "fsyncs"),
    "fsync_ms": ("append", "fsync_ns"),
    "replaces": ("append", "replaces"),
    "unlinks": ("append", "unlinks"),
    "bytes_read": ("cold_open", "bytes_read"),
    "reads": ("cold_open", "reads"),
}
RATIOS = ("storage.write_bytes_per_user_byte", "storage.store_bytes_per_user_byte")
# setup_s is given in seconds on a host whose probe takes this long, so that
# the host's speed state does not move it (see README, "Probe units").
REFERENCE_PROBE_S = 0.006
# A traced run makes at least this many rounds; storage counts come from
# these rounds only, so they cover the same inputs in every run of a seed.
TRACED_MIN_ROUNDS = 4


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    return "B" if "bytes" in name else "count"


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


class Context:
    """What a workload sees: set-up timing, rounds, timed and checked operations."""

    def __init__(self, seconds: float, trace: bool, clock, tracer, workdir: Path) -> None:
        self.seconds = seconds
        self.trace = trace
        self.clock = clock
        self.tracer = tracer
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.correct = True
        self.setup_s: list[float] = []
        self.setup_mid: list[float] = []
        self.maxima: dict[str, float] = {}
        self.ratios: dict[str, list[float]] = {}
        self.storage: dict[str, list[Counter]] = {}
        self.round_traced: list[bool] = []
        self._op_round: dict[str, list[int]] = {}
        self._round = -1

    # -- set-up ----------------------------------------------------------------

    def setup(self, fn):
        """Run ``fn`` as one set-up, timed for ``setup_s``; return its result."""
        outer = None
        traced = self.tracer is not None and (self._round < 0 or self.round_traced[self._round])
        if traced:
            self.tracer.install()
            outer = self.tracer.begin_unit("setup")
            self.tracer.op = "setup"
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            end = time.perf_counter()
            self.setup_s.append(end - start)
            self.setup_mid.append((start + end) / 2)
            if traced:
                self.tracer.end_unit(outer)
                if self._round < 0:
                    self.tracer.uninstall()
        self.clock.tick()
        return result

    # -- rounds ----------------------------------------------------------------

    def rounds(self):
        """Yield round numbers until the measuring time is used up.

        A round that has started always finishes, so every run is made of
        whole rounds.  A traced run alternates untraced and traced rounds
        and makes at least two of each.
        """
        deadline = time.perf_counter() + self.seconds
        while True:
            n = self._round + 1
            if n > 0 and time.perf_counter() >= deadline and not (self.trace and n < TRACED_MIN_ROUNDS):
                return
            traced = self.trace and n % 2 == 1
            self._round = n
            self.round_traced.append(traced)
            outer = None
            if traced:
                self.tracer.install()
                outer = self.tracer.begin_unit("round")
            try:
                yield n
            finally:
                if traced:
                    self.tracer.end_unit(outer)
                    self.tracer.uninstall()

    # -- operations --------------------------------------------------------------

    def op(self, kind: str, fn, check, cpu: bool = False):
        """Time ``fn()`` as one ``kind`` operation, then check its answer.

        With ``cpu`` the operation's figure is the process's CPU time rather
        than its wall time.  Returns ``fn()``'s value, or ``None`` if the
        operation raised (it is then counted as failed).
        """
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = kind
        cpu_start = time.process_time()
        start = time.perf_counter()
        try:
            value = fn()
        except Exception as exc:  # an operation of the program failed: count it, keep going
            self.failed += 1
            self.problems.append(f"{kind} failed: {exc!r}")
            return None
        finally:
            if self.tracer is not None:
                self.tracer.op = "between"
        end = time.perf_counter()
        self.clock.record(kind, start, end, time.process_time() - cpu_start if cpu else None)
        self._op_round.setdefault(kind, []).append(self._round)
        try:
            check(value)
        except AssertionError as exc:
            self.fail_check(f"{kind}: {exc}")
        except Exception as exc:  # the program failed while its answer was read back
            self.fail_check(f"{kind}: reading the answer back raised {exc!r}")
        return value

    def fail_check(self, message: str) -> None:
        """Record an answer that failed a check."""
        self.correct = False
        self.problems.append(f"check failed: {message}")

    # -- side figures --------------------------------------------------------------

    def note_max(self, name: str, value: float) -> None:
        """Keep the largest ``value`` seen under ``name`` (printed in the report)."""
        self.maxima[name] = max(self.maxima.get(name, 0.0), value)

    def note_ratio(self, name: str, value: float) -> None:
        """Add one per-cycle sample of a storage ratio (first rounds only)."""
        if self._round < TRACED_MIN_ROUNDS:
            self.ratios.setdefault(name, []).append(value)

    def layer_sample(self, kind: str, counts: Counter) -> None:
        """Add the storage counts of one ``kind`` operation (first rounds only)."""
        if self._round < TRACED_MIN_ROUNDS:
            self.storage.setdefault(kind, []).append(counts)

    # -- reduction -----------------------------------------------------------------

    def setup_reference_s(self) -> float:
        """Median set-up time, in seconds on a host whose probe takes ``REFERENCE_PROBE_S``."""
        return REFERENCE_PROBE_S * _median(
            self.clock.units(mid, wall) for mid, wall in zip(self.setup_mid, self.setup_s)
        )

    def untraced_units(self, kind: str) -> list[float]:
        """Probe-unit latencies of the ``kind`` operations made in untraced rounds."""
        rounds = self._op_round.get(kind, [])
        return [pu for pu, r in zip(self.clock.probe_units(kind), rounds) if not self.round_traced[r]]

    def draw(self, n: int) -> int:
        """The input draw of round ``n``.

        In a traced run a traced round reuses the draw of the untraced round
        before it, so that :meth:`overhead_pct` compares rounds on the same
        input; otherwise every round has a draw of its own.
        """
        return n // 2 if self.trace else n

    def overhead_pct(self, ops) -> float:
        """Median over pairs of rounds of traced over untraced latency, as a share.

        A pair is an untraced round and the traced round after it, which
        ran on the same input (:meth:`draw`); latencies are summed over the
        ``ops`` in probe units.
        """
        per_round: dict[int, float] = {}
        for kind in ops:
            for pu, r in zip(self.clock.probe_units(kind), self._op_round.get(kind, [])):
                per_round[r] = per_round.get(r, 0.0) + pu
        ratios = [
            per_round[r] / per_round[r - 1]
            for r in per_round
            if self.round_traced[r] and not self.round_traced[r - 1] and per_round.get(r - 1)
        ]
        return 100.0 * (_median(ratios) - 1.0) if ratios else 0.0

def _metrics(ctx: Context, trace: bool, slots, all_ops) -> dict[str, dict]:
    """The end-to-end metrics, or with ``trace`` the per-layer ones, by name."""
    if not trace:
        values = {
            "setup_s": (ctx.setup_reference_s(), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        for k, kind in enumerate(slots, start=1):
            values[f"op{k}_p50"] = (_median(ctx.untraced_units(kind)), "probe")
        return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}

    values = {"host.probe_ms": (ctx.clock.probe_ms(), "ms")}
    for kind in all_ops:
        values[f"{kind}.wall_ms"] = (_median(ctx.clock.wall_ms(kind)), "ms")
    for name, value in ctx.tracer.layer_metrics().items():
        values[name] = (value, _unit(name))
    for suffix, (kind, counter) in STORAGE_COUNTS.items():
        samples = [c[counter] for c in ctx.storage.get(kind, [])]
        scale = 1e-6 if counter == "fsync_ns" else 1.0
        values[f"storage.{suffix}"] = (_median(samples) * scale, _unit(suffix))
    for name in RATIOS:
        values[name] = (_median(ctx.ratios.get(name, [])), "ratio")
    values["trace.overhead_pct"] = (ctx.overhead_pct(slots), "%")
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def _report(ctx: Context, workload: str, slots) -> None:
    """Human-readable lines before the JSON result."""
    print(f"workload {workload}: {len(ctx.round_traced)} rounds, {ctx.attempted} operations, {ctx.failed} failed")
    for k, kind in enumerate(slots, start=1):
        pu = ctx.untraced_units(kind)
        print(
            f"  op{k} = {kind:<20} n={len(pu):<4} p50={_median(pu):9.3f} probe  "
            f"raw p50={_median(ctx.clock.wall_ms(kind)):9.2f} ms"
        )
    print(f"  host probe p50={ctx.clock.probe_ms():.3f} ms over {len(ctx.clock.probe_s)} probes")
    print(f"  raw set-up seconds: {', '.join(f'{s:.3f}' for s in ctx.setup_s)}")
    for name, value in sorted(ctx.maxima.items()):
        print(f"  {name} = {value:.4f}")
    for name, values in sorted(ctx.ratios.items()):
        print(f"  {name} median = {_median(values):.2f}")
    for problem in ctx.problems[:20]:
        print(f"  {problem}")


def _stop_processes() -> None:
    """Stop every process the run started and wait for each to end.

    The engine's pool workers are joined when its connection closes; any
    worker still alive (a workload that raised midway) is terminated here.
    Shared-memory frames start multiprocessing's resource-tracker process,
    which would otherwise outlive this one until it notices the exit.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({src / 'repro'} not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(HERE))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"error: imported repro from {repro.__file__}, not from {src}", file=sys.stderr)
        return 2

    import workloads
    from probe import DriftClock, HostProbe
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    workdir = WORKROOT / str(os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ctx = Context(args.seconds, trace, DriftClock(HostProbe()), Tracer() if trace else None, workdir)
    try:
        workloads.WORKLOADS[args.workload](ctx, args.seed)
    finally:
        _stop_processes()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKROOT.rmdir()
        except OSError:  # another run still uses it
            pass
    slots = workloads.SLOTS[args.workload]
    metrics = _metrics(ctx, trace, slots, workloads.OPS)
    _report(ctx, args.workload, slots)
    print(json.dumps({"correct": ctx.correct, "attempted": ctx.attempted, "failed": ctx.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
