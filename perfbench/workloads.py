"""The three closed-loop workloads.

Each workload has a single client that issues the next operation only after
the previous one has completed.  A workload is a function ``run(ctx, seed)``
that sets up through ``ctx.setup``, loops over ``ctx.rounds()`` and issues
every operation through ``ctx.op``, which times it, counts it and checks its
answer.  Every round issues the same operations, so the share of any kind of
operation is the same in every run, however long it lasts.

Inputs come from ``repro.datagen`` with the seed the benchmark was given;
the benchmark keeps its own copy of every generated point (``raw``), which
the checks compare the program's answers against.
"""

from __future__ import annotations

import os
import shutil
import time
from collections import Counter
from pathlib import Path

import numpy as np

import checks

# End-to-end slots: every workload fills op1..op3 with its own operations.
SLOTS = {
    "s2t-batch": ("s2t", "s2t_par2", "s2t_part_serial"),
    "qut-progressive": ("qut_wide", "qut_narrow", "qut_shard2"),
    "ingest-durable": ("append", "query_after_append", "cold_open"),
}
OPS = [op for ops in SLOTS.values() for op in ops]


def _raw(trajectories) -> dict:
    return {
        t.key: (np.array(t.xs, dtype=float), np.array(t.ys, dtype=float), np.array(t.ts, dtype=float))
        for t in trajectories
    }


# -- s2t-batch -------------------------------------------------------------


S2T_TRAJECTORIES = 150
S2T_SETUPS = 7  # cheap: take the median of many


def s2t_batch(ctx, seed: int) -> None:
    """Whole-MOD S2T, partitioned S2T on the pool, and the same partitions serially.

    An in-memory engine; no tree, no storage.  The set-up loads the first
    aircraft MOD with holding loops (150 trajectories x 50 samples) from a
    CSV file and builds its frame.  Each later round loads a fresh draw
    (from ``seed`` and the round number) and runs the three operations on
    it, so a run's medians do not hang on one draw of the scenario.  The
    partitioned runs use the default four temporal partitions; the serial
    one names them explicitly, and the parallel answer must equal it.
    """
    import repro
    from repro.datagen import aircraft_scenario
    from repro.hermes.io import write_csv

    def draw(r: int):
        return aircraft_scenario(n_trajectories=S2T_TRAJECTORIES, n_samples=50, seed=seed * 1000 + r, name="d")[0]

    warm_mod, _ = aircraft_scenario(n_trajectories=12, n_samples=20, seed=seed, name="warm")
    first = draw(0)
    csv_path = ctx.workdir / "d.csv"
    write_csv(first, csv_path)

    def setup():
        conn = repro.connect()
        conn.execute(f"LOAD DATASET d FROM '{csv_path}'").fetchall()
        conn.engine.frame("d")
        return conn

    conn = None
    for _ in range(S2T_SETUPS):
        if conn is not None:
            conn.close()
        conn = ctx.setup(setup)
    engine = conn.engine
    engine.load_mod("warm", warm_mod)

    try:
        for r in ctx.rounds():
            d = ctx.draw(r)
            mod = first if d == 0 else draw(d)
            raw = _raw(mod)
            if r > 0:
                engine.load_mod("d", mod)
                engine.frame("d")
            # A worker of the engine's pool fails once it has attached a
            # fifth shipped frame (see README, "Known faults"): start a
            # fresh pool and warm it with one small job, untimed.  It is
            # shut down again before the single-process operations, so
            # they do not run beside forked workers.  This warm job and the
            # shutdown below hide the fault, so the benchmark cannot show
            # it; once the fault is fixed, remove both, so that s2t_par2
            # runs on one pool kept across rounds.
            conn.execute("SELECT S2T(warm, NULL, NULL, NULL, 'batched', 2, 2)").fetchall()

            def whole_ok(rows, raw=raw):
                result = engine.last_result("d")
                checks.check_s2t_tiling(result, raw)
                checks.check_gamma(result, result.params.min_cluster_support)
                ctx.note_max(
                    "s2t.max_member_dist_over_eps", checks.check_members_within_eps(result, result.params.eps)
                )

            def partitioned_ok(rows, raw=raw):
                result = engine.last_result("d")
                checks.check_time_tiling(result, raw)
                checks.check_gamma(result, result.params.min_cluster_support)
                checks.check_members_within_eps(result, result.params.eps)

            parallel = None
            if ctx.op(
                "s2t_par2",
                lambda: conn.execute("SELECT S2T(d, NULL, NULL, NULL, 'batched', 2)").fetchall(),
                partitioned_ok,
            ) is not None:
                parallel = engine.last_result("d")
            engine.pool().shutdown()
            ctx.op("s2t", lambda: conn.execute("SELECT S2T(d)").fetchall(), whole_ok)

            def serial_ok(rows, parallel=parallel):
                partitioned_ok(rows)
                if parallel is not None:
                    checks.check_same_answer(
                        parallel, engine.last_result("d"), "S2T n_jobs=2 against the serial partitions"
                    )

            ctx.op(
                "s2t_part_serial",
                lambda: conn.execute("SELECT S2T(d, NULL, NULL, NULL, 'batched', 1, 4)").fetchall(),
                serial_ok,
            )
    finally:
        conn.close()


# -- qut-progressive -------------------------------------------------------

NARROW_WINDOWS = 20
WIDE_WINDOWS = 10


GOLDEN = (5**0.5 - 1) / 2


def _windows(period, width: float, count: int) -> list[tuple[float, float]]:
    """``count`` windows of ``width`` x lifespan, spread over the lifespan.

    The k-th window starts at the fractional part of ``k`` times the golden
    ratio of the free span.  Evenly spaced starts would put window bounds on
    the tree's sub-chunk borders for some seeds and not for others, and a
    bound on a border saves the restriction of a sub-chunk, so the cost of
    a window set would hang on the seed's grid.
    """
    span = period.tmax - period.tmin
    w = width * span
    starts = [period.tmin + (span - w) * ((k * GOLDEN) % 1.0) for k in range(count)]
    return [(start, start + w) for start in starts]


QUT_DRAWS = 8
QUT_PER_DRAW = 50
QUT_SETUPS = 3
QUT_MODS = 2


def _traffic_mod(seed: int):
    """Eight consecutive stretches of approach traffic, each an independent draw.

    ``aircraft_scenario`` draws its corridors and airports once per call, so
    one draw of 400 flights lets the seed decide the tree's whole shape:
    the wide-window median of one such MOD spread by 20-25 % between the
    quartiles of ten seeds.  With four draws of 100 flights the narrow-window
    median still spread by 17 % (one seed read 2.6 probe units, run after
    run, another 3.6); eight draws of 50 flights, one after the other in
    time, brought that to 8-12 %.  Draws of 25 flights are too thin to cluster
    alike and spread more again.
    """
    from repro.datagen import aircraft_scenario
    from repro.hermes.mod import MOD
    from repro.hermes.trajectory import Trajectory

    mod = MOD(name="d")
    end = 0.0
    for k in range(QUT_DRAWS):
        draw, _ = aircraft_scenario(n_trajectories=QUT_PER_DRAW, n_samples=50, seed=seed * QUT_DRAWS + k)
        # Each draw starts where the previous one ended: no idle gap for a
        # narrow window to fall into.
        shift = end - draw.period.tmin
        mod.add_all(Trajectory(f"s{k}-{t.obj_id}", t.traj_id, t.xs, t.ys, t.ts + shift) for t in draw)
        end = draw.period.tmax + shift
    return mod


def qut_progressive(ctx, seed: int) -> None:
    """Prepared QuT queries over narrow and wide windows, single-tree and 2-shard.

    Two aircraft MODs of 400 flights x 50 samples each (:func:`_traffic_mod`),
    datasets ``d0`` and ``d1``, sit in one in-memory engine with a single
    ReTraTree each, and in a second engine with a 2-shard ReTraTree each;
    the set-up builds all four trees.  S2T runs only in the set-up.  The
    cost of a window set hangs on the tree a seed draws (one seed read 19
    probe units run after run, another 22 to 24); two independent trees average
    part of that out of a run's medians.
    """
    import repro

    datasets = {f"d{m}": _traffic_mod(seed * QUT_MODS + m) for m in range(QUT_MODS)}
    raws = {name: _raw(mod) for name, mod in datasets.items()}

    def setup():
        single, sharded = repro.connect(), repro.connect()
        for name, mod in datasets.items():
            single.engine.load_mod(name, mod)
            single.engine.retratree(name)
            sharded.engine.load_mod(name, mod)
            sharded.engine.retratree(name, shards=2)
        return single, sharded

    conns = None
    for _ in range(QUT_SETUPS):
        if conns is not None:
            for c in conns:
                c.close()
        conns = ctx.setup(setup)
    single, sharded = conns
    verified: dict[tuple, tuple] = {}  # (dataset, window) -> fingerprint of the first single-tree answer

    def single_ok(name, window):
        def check(rows):
            result = single.engine.last_result(name)
            fingerprint = checks.answer_fingerprint(result)
            known = verified.setdefault((name, window), fingerprint)
            if known is fingerprint:
                checks.check_qut_shape(result, raws[name], *window)
                checks.check_qut_coverage(result, raws[name], *window)
                checks.check_gamma(result, result.params.gamma)
            elif known != fingerprint:
                raise checks.CheckFailed(f"QuT answer of {name} for window {window} changed between rounds")

        return check

    def sharded_ok(name, window):
        def check(rows):
            # The single-tree answer for this window was checked just before.
            if checks.answer_fingerprint(sharded.engine.last_result(name)) != verified.get((name, window)):
                raise checks.CheckFailed(
                    f"2-shard QuT answer of {name} for window {window} differs from the single tree's"
                )

        return check

    plans = [
        (
            name,
            single.prepare(f"SELECT QUT({name}, :wi, :we)"),
            sharded.prepare(f"SELECT QUT({name}, :wi, :we)"),
            _windows(mod.period, 0.05, NARROW_WINDOWS),
            _windows(mod.period, 0.5, WIDE_WINDOWS),
        )
        for name, mod in datasets.items()
    ]
    try:
        for _ in ctx.rounds():
            for name, stmt, shard_stmt, narrow, wide in plans:
                for wi, we in narrow:
                    bind = {"wi": wi, "we": we}
                    ctx.op("qut_narrow", lambda: stmt.execute(bind).fetchall(), single_ok(name, (wi, we)))
                for wi, we in wide:
                    bind = {"wi": wi, "we": we}
                    ctx.op("qut_wide", lambda: stmt.execute(bind).fetchall(), single_ok(name, (wi, we)))
                    ctx.op("qut_shard2", lambda: shard_stmt.execute(bind).fetchall(), sharded_ok(name, (wi, we)))
    finally:
        single.close()
        sharded.close()


# -- ingest-durable --------------------------------------------------------

INGEST_TRAJECTORIES = 60
BATCH = 5
COLD_OPENS = 3


def ingest_durable(ctx, seed: int) -> None:
    """Durable appends with a QuT after each batch, then cold reopens.

    Each round is one cycle in a fresh directory, on a fresh draw of a lanes
    scenario (60 trajectories x 60 samples, from ``seed`` and the cycle
    number): load half of it on an on-disk engine and build the tree (the
    set-up), append the other half in batches of five with a QuT query over
    half the lifespan after each, close, and reopen cold three times,
    answering the last QuT query first thing each time.
    """
    from repro.api import Connection
    from repro.core.engine import HermesEngine
    from repro.datagen import lane_scenario
    from repro.hermes.mod import MOD
    from repro.storage.faults import IOShim

    class CountingIO(IOShim):
        """Counts the storage layer's system calls and bytes."""

        def __init__(self) -> None:
            self.counts: Counter = Counter()

        def snapshot(self) -> Counter:
            return Counter(self.counts)

        def write(self, fh, data: bytes) -> None:
            self.counts["writes"] += 1
            self.counts["bytes_written"] += len(data)
            super().write(fh, data)

        def fsync(self, fh) -> None:
            start = time.perf_counter()
            super().fsync(fh)
            self.counts["fsync_ns"] += int((time.perf_counter() - start) * 1e9)
            self.counts["fsyncs"] += 1

        def fsync_dir(self, path) -> None:
            start = time.perf_counter()
            super().fsync_dir(path)
            self.counts["fsync_ns"] += int((time.perf_counter() - start) * 1e9)
            self.counts["fsyncs"] += 1

        def replace(self, src, dst) -> None:
            self.counts["replaces"] += 1
            super().replace(src, dst)

        def unlink(self, path) -> None:
            self.counts["unlinks"] += 1
            super().unlink(path)

        def read(self, fh, n: int = -1) -> bytes:
            data = super().read(fh, n)
            self.counts["reads"] += 1
            self.counts["bytes_read"] += len(data)
            return data

        def read_bytes(self, path) -> bytes:
            data = super().read_bytes(path)
            self.counts["reads"] += 1
            self.counts["bytes_read"] += len(data)
            return data

    qut_sql = "SELECT QUT(lanes, :wi, :we)"
    for cycle in ctx.rounds():
        mod, _ = lane_scenario(n_trajectories=INGEST_TRAJECTORIES, seed=seed * 1000 + ctx.draw(cycle))
        trajectories = list(mod)
        raw = _raw(trajectories)
        half = len(trajectories) // 2
        base, rest = trajectories[:half], trajectories[half:]
        batches = [rest[k : k + BATCH] for k in range(0, len(rest), BATCH)]
        user_bytes = {t.key: 24 * t.num_points for t in trajectories}  # x, y, t as 8-byte floats
        windows = _windows(mod.period, 0.5, len(batches))
        directory = ctx.workdir / f"cycle{cycle}"
        shutil.rmtree(directory, ignore_errors=True)
        io = CountingIO()

        def setup():
            engine = HermesEngine.on_disk(directory, io=io)
            base_mod = MOD(name="lanes")
            base_mod.add_all(base)
            engine.load_mod("lanes", base_mod)
            engine.retratree("lanes")
            return engine, Connection(engine)

        engine, conn = ctx.setup(setup)
        stmt = conn.prepare(qut_sql)
        loaded = {t.key: raw[t.key] for t in base}
        written = 0
        warm = None
        try:
            for batch, window in zip(batches, windows):
                bind = {"wi": window[0], "we": window[1]}
                before = io.snapshot()
                points = sum(t.num_points for t in batch)

                def append_ok(report, n=len(batch), points=points):
                    if report.trajectories != n or report.points != points:
                        raise checks.CheckFailed(
                            f"append reported {report.trajectories} trajectories and {report.points} points, "
                            f"expected {n} and {points}"
                        )

                # CPU time, not wall time: the append's fsyncs wait on a disk
                # shared with other machines, which the CPU probe cannot
                # follow.  The waits are reported as storage.fsync_ms.
                ctx.op("append", lambda batch=batch: engine.append("lanes", batch), append_ok, cpu=True)
                delta = io.snapshot() - before
                ctx.layer_sample("append", delta)
                written += delta["bytes_written"]
                loaded.update((t.key, raw[t.key]) for t in batch)

                def query_ok(rows, window=window):
                    result = engine.last_result("lanes")
                    checks.check_qut_shape(result, loaded, *window)
                    checks.check_qut_coverage(result, loaded, *window)
                    count = conn.execute("SELECT COUNT(*) FROM lanes").fetchall()[0]["count"]
                    expected = sum(len(v[2]) for v in loaded.values())
                    if count != expected:
                        raise checks.CheckFailed(f"COUNT(*) is {count} after an append, expected {expected}")

                if ctx.op("query_after_append", lambda: stmt.execute(bind).fetchall(), query_ok) is not None:
                    warm = engine.last_result("lanes")
        finally:
            engine.close()
        ctx.note_ratio("storage.write_bytes_per_user_byte", written / sum(user_bytes[t.key] for t in rest))

        for k in range(COLD_OPENS):
            before = io.snapshot()

            def cold_open(before=before):
                reopened = HermesEngine.on_disk(directory, io=io)
                Connection(reopened).execute(qut_sql, bind).fetchall()
                ctx.layer_sample("cold_open", io.snapshot() - before)
                return reopened

            def cold_ok(reopened, last=k == COLD_OPENS - 1):
                if warm is not None:
                    checks.check_same_answer(reopened.last_result("lanes"), warm, "QuT after a cold reopen")
                if last:
                    checks.check_points(Connection(reopened).execute("SELECT * FROM lanes").fetchall(), raw)

            reopened = ctx.op("cold_open", cold_open, cold_ok)
            if reopened is not None:
                reopened.close()
        stored = sum(
            os.path.getsize(Path(dirpath) / name)
            for dirpath, _, names in os.walk(directory)
            for name in names
        )
        ctx.note_ratio("storage.store_bytes_per_user_byte", stored / sum(user_bytes.values()))
        shutil.rmtree(directory, ignore_errors=True)


WORKLOADS = {
    "s2t-batch": s2t_batch,
    "qut-progressive": qut_progressive,
    "ingest-durable": ingest_durable,
}
