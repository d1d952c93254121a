"""Each correctness check passes on the program's answer and fires on a damaged one.

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))
sys.path.insert(0, str(HERE.parent))

import checks  # noqa: E402
import repro  # noqa: E402
from repro.datagen import aircraft_scenario  # noqa: E402


@dataclass(frozen=True)
class Track:
    xs: np.ndarray
    ys: np.ndarray
    ts: np.ndarray


@dataclass(frozen=True)
class Piece:
    parent_key: tuple[str, str]
    start_idx: int
    end_idx: int
    traj: Track


@dataclass
class Group:
    cluster_id: int
    representative: Piece
    members: list[Piece] = field(default_factory=list)


@dataclass
class Answer:
    clusters: list[Group]
    outliers: list[Piece]


def _copy_piece(sub) -> Piece:
    t = sub.traj
    return Piece(tuple(sub.parent_key), sub.start_idx, sub.end_idx, Track(t.xs.copy(), t.ys.copy(), t.ts.copy()))


def _copy(result) -> Answer:
    """A mutable copy of a program answer, so tests can damage it."""
    return Answer(
        [Group(c.cluster_id, _copy_piece(c.representative), [_copy_piece(m) for m in c.members]) for c in result.clusters],
        [_copy_piece(p) for p in result.outliers],
    )


@pytest.fixture(scope="module")
def program():
    mod, _ = aircraft_scenario(n_trajectories=40, n_samples=30, seed=7)
    raw = {t.key: (t.xs.copy(), t.ys.copy(), t.ts.copy()) for t in mod}
    conn = repro.connect()
    engine = conn.engine
    engine.load_mod("d", mod)
    conn.execute("SELECT S2T(d)").fetchall()
    whole = engine.last_result("d")
    conn.execute("SELECT S2T(d, NULL, NULL, NULL, 'batched', 1, 2)").fetchall()
    partitioned = engine.last_result("d")
    span = mod.period.tmax - mod.period.tmin
    window = (mod.period.tmin + 0.3 * span, mod.period.tmin + 0.6 * span)
    conn.execute("SELECT QUT(d, :wi, :we)", {"wi": window[0], "we": window[1]}).fetchall()
    qut = engine.last_result("d")
    rows = conn.execute("SELECT * FROM d").fetchall()
    conn.close()
    return {"raw": raw, "whole": whole, "partitioned": partitioned, "qut": qut, "window": window, "rows": rows}


def _drop_first_outlier_or_member(answer: Answer) -> Answer:
    if answer.outliers:
        answer.outliers.pop(0)
    else:
        answer.clusters[0].members.pop()
    return answer


# -- S2T ---------------------------------------------------------------------


def test_s2t_checks_pass_on_the_program_answer(program):
    result = program["whole"]
    checks.check_s2t_tiling(result, program["raw"])
    checks.check_gamma(result, result.params.min_cluster_support)
    assert checks.check_members_within_eps(result, result.params.eps) <= checks.EPS_SLACK


def test_s2t_tiling_fires_on_a_dropped_piece(program):
    answer = _drop_first_outlier_or_member(_copy(program["whole"]))
    with pytest.raises(checks.CheckFailed):
        checks.check_s2t_tiling(answer, program["raw"])


def test_s2t_tiling_fires_on_a_duplicated_piece(program):
    answer = _copy(program["whole"])
    answer.outliers.append(answer.clusters[0].members[-1])
    with pytest.raises(checks.CheckFailed, match="twice"):
        checks.check_s2t_tiling(answer, program["raw"])


def test_eps_check_fires_on_a_member_moved_beyond_eps(program):
    result = program["whole"]
    answer = _copy(result)
    cluster = next(c for c in answer.clusters if len(c.members) > 1)
    rep = cluster.representative
    k, victim = next(
        (k, m)
        for k, m in enumerate(cluster.members)
        if (m.parent_key, m.start_idx, m.end_idx) != (rep.parent_key, rep.start_idx, rep.end_idx)
    )
    shift = 3.0 * result.params.eps
    cluster.members[k] = replace(victim, traj=replace(victim.traj, xs=victim.traj.xs + shift))
    with pytest.raises(checks.CheckFailed, match="eps"):
        checks.check_members_within_eps(answer, result.params.eps)


def test_gamma_check_fires_on_a_thin_cluster(program):
    answer = _copy(program["whole"])
    answer.clusters[0].members = answer.clusters[0].members[:1]
    with pytest.raises(checks.CheckFailed, match="gamma"):
        checks.check_gamma(answer, 2)


def test_partitioned_checks_pass_and_fire_on_a_dropped_piece(program):
    result = program["partitioned"]
    checks.check_time_tiling(result, program["raw"])
    answer = _drop_first_outlier_or_member(_copy(result))
    with pytest.raises(checks.CheckFailed):
        checks.check_time_tiling(answer, program["raw"])


def test_same_answer_fires_on_one_changed_member(program):
    result = program["whole"]
    checks.check_same_answer(result, _copy(result), "copy")
    answer = _copy(result)
    member = answer.clusters[0].members[-1]
    answer.clusters[0].members[-1] = replace(member, traj=replace(member.traj, ys=member.traj.ys + 1e-9))
    with pytest.raises(checks.CheckFailed):
        checks.check_same_answer(answer, result, "damaged")


# -- QuT ---------------------------------------------------------------------


def test_qut_checks_pass_on_the_program_answer(program):
    checks.check_qut_shape(program["qut"], program["raw"], *program["window"])
    checks.check_qut_coverage(program["qut"], program["raw"], *program["window"])


def test_qut_shape_fires_on_a_piece_shifted_outside_the_window(program):
    wi, we = program["window"]
    answer = _copy(program["qut"])
    piece = answer.outliers[0] if answer.outliers else answer.clusters[0].members[0]
    shifted = replace(piece, traj=replace(piece.traj, ts=piece.traj.ts + (we - wi)))
    if answer.outliers:
        answer.outliers[0] = shifted
    else:
        answer.clusters[0].members[0] = shifted
    with pytest.raises(checks.CheckFailed, match="outside window"):
        checks.check_qut_shape(answer, program["raw"], wi, we)


def test_qut_shape_fires_on_a_piece_off_its_path(program):
    answer = _copy(program["qut"])
    piece = answer.clusters[0].members[0]
    answer.clusters[0].members[0] = replace(piece, traj=replace(piece.traj, xs=piece.traj.xs + 0.5))
    with pytest.raises(checks.CheckFailed, match="raw path"):
        checks.check_qut_shape(answer, program["raw"], *program["window"])


def test_qut_coverage_fires_on_a_dropped_piece(program):
    answer = _copy(program["qut"])
    # Drop every piece of one trajectory that has samples in the window.
    wi, we = program["window"]
    victim = next(
        key for key, (_, _, ts) in program["raw"].items() if np.any((ts > wi) & (ts < we))
    )
    for cluster in answer.clusters:
        cluster.members = [m for m in cluster.members if checks.root_key(m.parent_key) != victim]
    answer.outliers = [p for p in answer.outliers if checks.root_key(p.parent_key) != victim]
    with pytest.raises(checks.CheckFailed, match="covered by no piece|no piece"):
        checks.check_qut_coverage(answer, program["raw"], wi, we)


# -- durability --------------------------------------------------------------


def test_points_check_passes_and_fires_on_a_lost_point(program):
    rows = program["rows"]
    checks.check_points(rows, program["raw"])
    with pytest.raises(checks.CheckFailed, match="missing"):
        checks.check_points(rows[:-1], program["raw"])
    moved = [dict(r) for r in rows]
    moved[0]["x"] += 1.0
    with pytest.raises(checks.CheckFailed):
        checks.check_points(moved, program["raw"])
