"""Layer timings taken from outside the program.

:class:`Tracer` wraps public functions of the program's modules at the
names their callers look up (module globals that hold the function, and
class attributes for methods), records one span per call — name, start,
end, parent — in memory, and counts calls of the hot scalar kernels
without a span.  :meth:`Tracer.install` patches, :meth:`Tracer.uninstall`
restores the originals, so traced and untraced rounds alternate in one
process and the difference between them is the tracing overhead.

Spans are grouped into *units*: one set-up, or one round of operations.
A layer metric is the median per set-up plus the median per round, so it
covers the same fixed work in every run.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

__all__ = ["Tracer", "LAYER_TIMES", "LAYER_COUNTS", "LAYERS"]


# (span name, module, attribute path).  The span name's prefix before ":"
# is the layer the call belongs to.
SPANS = [
    ("sql:plan", "repro.sql.planner", "plan_sql"),
    ("sql:plan", "repro.sql.plan", "bind_for_execution"),
    ("sql:execute", "repro.sql.executor", "PlanExecutor.execute"),
    ("sql:call_function", "repro.sql.functions", "call_function"),
    ("engine:open", "repro.core.engine", "HermesEngine.on_disk"),
    ("engine:load_mod", "repro.core.engine", "HermesEngine.load_mod"),
    ("engine:frame", "repro.core.engine", "HermesEngine.frame"),
    ("engine:retratree", "repro.core.engine", "HermesEngine.retratree"),
    ("engine:s2t", "repro.core.engine", "HermesEngine.s2t"),
    ("engine:qut", "repro.core.engine", "HermesEngine.qut"),
    ("engine:append", "repro.core.engine", "HermesEngine.append"),
    ("engine:close", "repro.core.engine", "HermesEngine.close"),
    ("s2t:fit", "repro.s2t.pipeline", "S2TClustering.fit"),
    ("s2t:voting", "repro.s2t.voting", "compute_voting"),
    ("s2t:segmentation", "repro.s2t.segmentation", "segment_mod"),
    ("s2t:sampling", "repro.s2t.sampling", "select_representatives"),
    ("s2t:clustering", "repro.s2t.clustering", "greedy_clustering"),
    ("qut:query", "repro.qut.query", "QuTClustering.query"),
    ("qut:build", "repro.qut.retratree", "ReTraTree.build"),
    ("qut:from_manifest", "repro.qut.retratree", "ReTraTree.from_manifest"),
    ("qut:load_members", "repro.qut.retratree", "ReTraTree.load_members"),
    ("qut:load_unclustered", "repro.qut.retratree", "ReTraTree.load_unclustered"),
    ("qut:retratree.append", "repro.qut.retratree", "ReTraTree.append"),
    ("shard:build", "repro.core.shard", "build_sharded_tree"),
    ("shard:subchunks_overlapping", "repro.core.shard", "ShardedReTraTree.subchunks_overlapping"),
    ("shard:load_members", "repro.core.shard", "ShardedReTraTree.load_members"),
    ("shard:load_unclustered", "repro.core.shard", "ShardedReTraTree.load_unclustered"),
    ("parallel:partitioned_s2t", "repro.core.parallel", "partitioned_s2t"),
    ("parallel:merge", "repro.core.parallel", "merge_partition_results"),
    ("ingest:append", "repro.core.ingest", "IngestPipeline.append"),
    ("hermes:frame_from_mod", "repro.hermes.frame", "MODFrame.from_mod"),
    ("hermes:frame.extend", "repro.hermes.frame", "MODFrame.extend"),
    ("hermes:slice_period_rows", "repro.hermes.frame", "MODFrame.slice_period_rows"),
    ("hermes:to_shm", "repro.hermes.frame", "MODFrame.to_shm"),
    ("storage:write_manifest", "repro.storage.catalog", "StorageManager.write_manifest"),
    ("storage:read_manifest", "repro.storage.catalog", "StorageManager.read_manifest"),
    ("storage:checkpoint", "repro.storage.catalog", "StorageManager.checkpoint"),
]

# Hot scalar kernels: counted, no span (a span per call would swamp them).
COUNTS = [
    ("hermes.st_distance_calls", "repro.hermes.distances", "spatiotemporal_distance"),
    ("hermes.st_distance_batch_calls", "repro.hermes.distances", "spatiotemporal_distance_batch"),
]

LAYERS = ["sql", "engine", "s2t", "qut", "shard", "parallel", "ingest", "hermes", "storage"]

# metric -> (span names, "incl" or "self", op kinds the span must run under
# (None: any), op kinds it must not run under).
LAYER_TIMES = {
    "s2t.voting_ms": (["s2t:voting"], "incl", None, ()),
    "s2t.segmentation_ms": (["s2t:segmentation"], "incl", None, ()),
    "s2t.sampling_ms": (["s2t:sampling"], "incl", None, ()),
    "s2t.clustering_ms": (["s2t:clustering"], "incl", None, ()),
    "parallel.partitioned_s2t_ms": (["parallel:partitioned_s2t"], "incl", {"s2t_par2"}, ()),
    "sql.plan_ms": (["sql:plan"], "incl", None, ()),
    "sql.call_function_self_ms": (["sql:call_function"], "self", None, ()),
    "qut.query_ms": (["qut:query"], "incl", None, ()),
    "qut.load_members_ms": (["qut:load_members"], "incl", None, ()),
    "hermes.slice_period_rows_ms": (["hermes:slice_period_rows"], "incl", None, ()),
    "shard.query_ms": (["shard:query"], "incl", None, ()),
    "engine.frame_build_ms": (["engine:frame"], "incl", None, ()),
    "engine.tree_build_ms": (["engine:retratree"], "incl", None, ("cold_open",)),
    "engine.recover_ms": (["engine:open", "engine:retratree"], "incl", {"cold_open"}, ()),
    "ingest.append_ms": (["ingest:append"], "incl", None, ()),
    "retratree.append_ms": (["qut:retratree.append"], "incl", None, ()),
    "frame.extend_ms": (["hermes:frame.extend"], "incl", None, ()),
}

# metric -> (counter or span name, op kinds (None: any)).  A span name
# counts the calls of that span.
LAYER_COUNTS = {
    "s2t.voting_pairs_evaluated": ("s2t.voting_pairs_evaluated", None),
    "s2t.voting_pairs_pruned": ("s2t.voting_pairs_pruned", None),
    "hermes.st_distance_calls": ("hermes.st_distance_calls", None),
    "hermes.st_distance_batch_calls": ("hermes.st_distance_batch_calls", None),
    "qut.subchunks_touched": ("qut.subchunks_touched", None),
    "qut.entries_touched": ("qut.entries_touched", None),
    "ingest.s2t_runs": ("s2t:fit", {"append"}),
}


def _resolve(module: str, path: str):
    """``(owner, attribute name, raw attribute)`` for ``module.path``."""
    owner = importlib.import_module(module)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], inspect.getattr_static(owner, parts[-1])


@dataclass
class _Unit:
    kind: str
    spans: list = field(default_factory=list)  # [name, start, end, parent, op]
    counts: Counter = field(default_factory=Counter)


class Tracer:
    """Span recorder that patches the program's public functions while installed."""

    def __init__(self) -> None:
        self.units: list[_Unit] = []
        self.gauges: dict[str, list[float]] = {}
        self.op = "setup"
        self._unit: _Unit | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    # -- units ---------------------------------------------------------------

    def begin_unit(self, kind: str) -> _Unit | None:
        """Start collecting into a new unit; return the one it interrupts."""
        outer = self._unit
        self._unit = _Unit(kind)
        self.units.append(self._unit)
        self._stack = []
        return outer

    def end_unit(self, outer: _Unit | None) -> None:
        """Close the current unit and resume ``outer``."""
        self._unit = outer
        self._stack = []

    # -- wrapping ------------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            unit = tracer._unit
            if unit is None:
                return fn(*args, **kwargs)
            span_name = name
            if name == "qut:query" and type(args[0].tree).__name__ == "ShardedReTraTree":
                span_name = "shard:query"
            parent = tracer._stack[-1] if tracer._stack else -1
            record = [span_name, time.perf_counter(), 0.0, parent, tracer.op]
            unit.spans.append(record)
            tracer._stack.append(len(unit.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                tracer._stack.pop()
            tracer._observe(name, result, unit)
            return result

        traced.__wrapped__ = fn
        for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
            setattr(traced, attr, getattr(fn, attr, None))
        return traced

    def _count_wrapper(self, name: str, fn):
        tracer = self

        def counted(*args, **kwargs):
            if tracer._unit is not None:
                tracer._unit.counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
            setattr(counted, attr, getattr(fn, attr, None))
        return counted

    def _observe(self, name: str, result, unit: _Unit) -> None:
        """Read the counts a layer reports in its return value."""
        if name == "s2t:voting":
            unit.counts["s2t.voting_pairs_evaluated"] += int(result.pairs_evaluated)
            unit.counts["s2t.voting_pairs_pruned"] += int(result.pairs_pruned)
        elif name == "qut:query":
            unit.counts["qut.subchunks_touched"] += int(result.extras.get("subchunks_touched", 0))
            unit.counts["qut.entries_touched"] += int(result.extras.get("entries_touched", 0))
        elif name == "parallel:partitioned_s2t" and "bytes_shipped_per_task" in result.extras:
            self.gauges.setdefault("parallel.bytes_shipped_per_task", []).append(
                float(result.extras["bytes_shipped_per_task"])
            )

    def _patch(self, module: str, path: str, wrapper_of) -> None:
        owner, attr, raw = _resolve(module, path)
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(wrapper_of(raw.__func__))
            self._patches.append((owner, attr, raw, wrapped))
            return
        wrapped = wrapper_of(raw)
        if inspect.isclass(owner):
            self._patches.append((owner, attr, raw, wrapped))
            return
        # A module-level function: patch every module global that holds it,
        # since ``from x import f`` callers look ``f`` up in their own module.
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("repro"):
                for name, value in list(vars(mod).items()):
                    if value is raw:
                        self._patches.append((mod, name, raw, wrapped))

    def install(self) -> None:
        """Patch every traced function (idempotent)."""
        if self._patches:
            return
        for name, module, path in SPANS:
            self._patch(module, path, lambda fn, name=name: self._span_wrapper(name, fn))
        for name, module, path in COUNTS:
            self._patch(module, path, lambda fn, name=name: self._count_wrapper(name, fn))
        for owner, attr, _raw, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every patched name to the original function."""
        for owner, attr, raw, _wrapped in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches = []

    # -- reduction -----------------------------------------------------------

    @staticmethod
    def _self_times(spans: list) -> list[float]:
        own = [end - start for _, start, end, _, _ in spans]
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def _per_unit(self, value_of) -> float:
        """Median per set-up plus median per round of ``value_of(unit)``."""
        total = 0.0
        for kind in ("setup", "round"):
            values = [value_of(u) for u in self.units if u.kind == kind]
            if values:
                total += statistics.median(values)
        return total

    def layer_metrics(self) -> dict[str, float]:
        """Every layer metric this tracer can report, by name."""
        out: dict[str, float] = {}
        self_cache = {id(u): self._self_times(u.spans) for u in self.units}

        def time_of(names, mode, ops, not_ops):
            def value(unit: _Unit) -> float:
                own = self_cache[id(unit)]
                total = 0.0
                for k, (name, start, end, _, op) in enumerate(unit.spans):
                    if name in names and (ops is None or op in ops) and op not in not_ops:
                        total += (end - start) if mode == "incl" else own[k]
                return total * 1000.0

            return value

        for metric, (names, mode, ops, not_ops) in LAYER_TIMES.items():
            out[metric] = self._per_unit(time_of(names, mode, ops, not_ops))
        for metric, (counter, ops) in LAYER_COUNTS.items():
            if ":" in counter:
                out[metric] = self._per_unit(
                    lambda u, counter=counter, ops=ops: float(
                        sum(1 for s in u.spans if s[0] == counter and (ops is None or s[4] in ops))
                    )
                )
            else:
                out[metric] = self._per_unit(lambda u, counter=counter: float(u.counts[counter]))
        for layer in LAYERS:
            out[f"layer.{layer}.self_ms"] = self._per_unit(
                lambda u, layer=layer: 1000.0
                * sum(
                    own
                    for s, own in zip(u.spans, self_cache[id(u)])
                    if s[0].split(":", 1)[0] == layer
                )
            )
        shipped = self.gauges.get("parallel.bytes_shipped_per_task")
        out["parallel.bytes_shipped_per_task"] = statistics.median(shipped) if shipped else 0.0
        return out

