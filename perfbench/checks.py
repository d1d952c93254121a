"""Correctness checks computed apart from the program.

Every check reads the program's answer (duck-typed: clusters with
``representative`` and ``members``, plus ``outliers``; each piece has
``parent_key``, ``start_idx``, ``end_idx`` and ``traj`` with ``xs``/``ys``/
``ts``) and compares it with the benchmark's own copy of the generated
points, ``raw``: ``{(obj_id, traj_id): (xs, ys, ts)}``.  Nothing here calls
into the program, so a fault in the program cannot hide itself.

Each check raises :class:`CheckFailed` with a message naming the first
offending piece, trajectory or point.

QuT pieces restricted from partially covered sub-chunks carry the member
sub-trajectory's key as ``parent_key`` (``('flight40', '0#1-7')``), with
indices relative to that member; the checks therefore resolve the root
trajectory id (the part before ``#``) and compare by time, never by index.
Partitioned S2T pieces carry indices relative to their partition's slice,
so they too are checked by time.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = [
    "CheckFailed",
    "answer_fingerprint",
    "check_gamma",
    "check_members_within_eps",
    "check_points",
    "check_qut_coverage",
    "check_qut_shape",
    "check_s2t_tiling",
    "check_same_answer",
    "check_time_tiling",
    "root_key",
    "sync_distance",
]

# Samples of the dense common grid the eps check measures on.
DENSE_GRID = 512
# The program measures distance on a 32-sample grid; the dense grid may
# read slightly higher on the same pair.  This is the allowed excess.
EPS_SLACK = 1.02
# Tolerance, relative to the data's magnitude, for "on the raw path".
PATH_TOL = 1e-6
# Tolerance, relative to the window's magnitude, for comparing instants:
# sub-chunk borders are computed from the tree's origin and may differ from
# an equal window bound or sample time in the last bits.
TIME_TOL = 1e-12


class CheckFailed(AssertionError):
    """An answer of the program failed an independent check."""


def root_key(parent_key: tuple[str, str]) -> tuple[str, str]:
    """The generated trajectory a piece comes from (drops ``#start-end`` suffixes)."""
    return (parent_key[0], parent_key[1].split("#", 1)[0])


def _pieces(result) -> list[tuple[object, int | None]]:
    out: list[tuple[object, int | None]] = []
    for k, cluster in enumerate(result.clusters):
        out.extend((member, k) for member in cluster.members)
    out.extend((piece, None) for piece in result.outliers)
    return out


def _piece_fingerprint(piece) -> tuple:
    traj = piece.traj
    digest = hashlib.blake2b(digest_size=16)
    for column in (traj.xs, traj.ys, traj.ts):
        digest.update(np.ascontiguousarray(column, dtype=np.float64).tobytes())
    return (tuple(piece.parent_key), int(piece.start_idx), int(piece.end_idx), digest.hexdigest())


def answer_fingerprint(result) -> tuple:
    """An order-free, bit-exact summary of a clustering answer.

    Two answers have equal fingerprints exactly when they hold the same
    clusters (same representative, same members, same coordinates) and the
    same outliers, whatever order or ids the clusters carry.
    """
    clusters = sorted(
        (
            _piece_fingerprint(cluster.representative),
            tuple(sorted(_piece_fingerprint(m) for m in cluster.members)),
        )
        for cluster in result.clusters
    )
    outliers = tuple(sorted(_piece_fingerprint(p) for p in result.outliers))
    return (tuple(clusters), outliers)


def check_same_answer(result, reference, what: str) -> None:
    """``result`` must equal ``reference`` piece for piece, bit for bit."""
    got, want = answer_fingerprint(result), answer_fingerprint(reference)
    if got == want:
        return
    if len(got[0]) != len(want[0]):
        raise CheckFailed(f"{what}: {len(got[0])} clusters, expected {len(want[0])}")
    if len(got[1]) != len(want[1]):
        raise CheckFailed(f"{what}: {len(got[1])} outliers, expected {len(want[1])}")
    raise CheckFailed(f"{what}: cluster members or coordinates differ")


def check_gamma(result, gamma: int) -> None:
    """Every cluster has at least ``gamma`` members."""
    for cluster in result.clusters:
        if len(cluster.members) < gamma:
            raise CheckFailed(
                f"cluster {cluster.cluster_id} has {len(cluster.members)} members, gamma is {gamma}"
            )


def check_s2t_tiling(result, raw) -> None:
    """Whole-MOD S2T: each trajectory's pieces tile its samples ``0..n-1``.

    Pieces are the clusters' members plus the outliers.  Sorted by start,
    they must begin at sample 0, end at sample ``n-1`` and share exactly one
    sample (the cut) with their neighbour.  No piece may appear twice, and
    each piece's coordinates must be the raw samples it claims to span.
    """
    spans: dict[tuple[str, str], list[tuple[int, int]]] = {}
    seen: set[tuple] = set()
    for piece, _ in _pieces(result):
        key = tuple(piece.parent_key)
        ident = (key, piece.start_idx, piece.end_idx)
        if ident in seen:
            raise CheckFailed(f"piece {ident} appears twice")
        seen.add(ident)
        if key not in raw:
            raise CheckFailed(f"piece {ident} names an unknown trajectory")
        xs, ys, ts = raw[key]
        lo, hi = piece.start_idx, piece.end_idx
        if not 0 <= lo < hi < len(ts):
            raise CheckFailed(f"piece {ident} spans samples outside 0..{len(ts) - 1}")
        traj = piece.traj
        if not (
            np.array_equal(traj.ts, ts[lo : hi + 1])
            and np.array_equal(traj.xs, xs[lo : hi + 1])
            and np.array_equal(traj.ys, ys[lo : hi + 1])
        ):
            raise CheckFailed(f"piece {ident} does not hold the raw samples {lo}..{hi}")
        spans.setdefault(key, []).append((lo, hi))
    for key, (_, _, ts) in raw.items():
        mine = sorted(spans.get(key, []))
        if not mine:
            raise CheckFailed(f"trajectory {key} has no piece")
        if mine[0][0] != 0 or mine[-1][1] != len(ts) - 1:
            raise CheckFailed(f"trajectory {key}: pieces span {mine[0][0]}..{mine[-1][1]}, not 0..{len(ts) - 1}")
        for (_, end), (start, _) in zip(mine, mine[1:]):
            if start != end:
                raise CheckFailed(f"trajectory {key}: pieces meet at {end} and {start}, not at one cut sample")


def _on_raw_path(piece, raw, what: str) -> tuple[str, str]:
    """Check a piece's points lie on its root trajectory's raw path; return the root key."""
    key = root_key(piece.parent_key)
    if key not in raw:
        raise CheckFailed(f"{what}: piece of unknown trajectory {piece.parent_key}")
    xs, ys, ts = raw[key]
    traj = piece.traj
    if len(traj.ts) < 2 or np.any(np.diff(traj.ts) <= 0):
        raise CheckFailed(f"{what}: piece {piece.parent_key} has non-increasing time stamps")
    if traj.ts[0] < ts[0] or traj.ts[-1] > ts[-1]:
        raise CheckFailed(f"{what}: piece {piece.parent_key} leaves its trajectory's lifespan")
    scale = 1.0 + float(np.max(np.abs(np.concatenate([xs, ys]))))
    if (
        np.max(np.abs(np.interp(traj.ts, ts, xs) - traj.xs)) > PATH_TOL * scale
        or np.max(np.abs(np.interp(traj.ts, ts, ys) - traj.ys)) > PATH_TOL * scale
    ):
        raise CheckFailed(f"{what}: piece {piece.parent_key} is off its object's raw path")
    return key


def check_time_tiling(result, raw) -> None:
    """Partitioned S2T: each trajectory's pieces tile its lifespan in time.

    Every piece lies on its trajectory's raw path; sorted by start time the
    pieces begin at the first sample, end at the last, and each starts at
    the instant its predecessor ends.  No piece may appear twice.
    """
    spans: dict[tuple[str, str], list[tuple[float, float]]] = {}
    seen: set[tuple] = set()
    for piece, _ in _pieces(result):
        key = _on_raw_path(piece, raw, "partitioned S2T")
        ident = (key, float(piece.traj.ts[0]), float(piece.traj.ts[-1]))
        if ident in seen:
            raise CheckFailed(f"piece {ident} appears twice")
        seen.add(ident)
        spans.setdefault(key, []).append(ident[1:])
    for key, (_, _, ts) in raw.items():
        mine = sorted(spans.get(key, []))
        if not mine:
            raise CheckFailed(f"trajectory {key} has no piece")
        if mine[0][0] != ts[0] or mine[-1][1] != ts[-1]:
            raise CheckFailed(f"trajectory {key}: pieces do not span its lifespan")
        for (_, end), (start, _) in zip(mine, mine[1:]):
            if start != end:
                raise CheckFailed(f"trajectory {key}: pieces meet at t={end} and t={start}")


def sync_distance(a, b) -> float:
    """Mean synchronous Euclidean distance over the common lifespan (``inf`` if none)."""
    lo = max(float(a.ts[0]), float(b.ts[0]))
    hi = min(float(a.ts[-1]), float(b.ts[-1]))
    if hi <= lo:
        return float("inf")
    grid = np.linspace(lo, hi, DENSE_GRID)
    dx = np.interp(grid, a.ts, a.xs) - np.interp(grid, b.ts, b.xs)
    dy = np.interp(grid, a.ts, a.ys) - np.interp(grid, b.ts, b.ys)
    return float(np.mean(np.hypot(dx, dy)))


def check_members_within_eps(result, eps: float) -> float:
    """Every member lies within ``eps`` of its cluster's representative.

    Returns the largest member distance as a share of ``eps``.
    """
    worst = 0.0
    for cluster in result.clusters:
        rep = cluster.representative.traj
        for member in cluster.members:
            ratio = sync_distance(member.traj, rep) / eps
            if ratio > EPS_SLACK:
                raise CheckFailed(
                    f"member {member.parent_key}[{member.start_idx}..{member.end_idx}] of cluster "
                    f"{cluster.cluster_id} lies {ratio:.3f} eps from its representative"
                )
            worst = max(worst, ratio)
    return worst


def check_qut_shape(result, raw, wi: float, we: float) -> None:
    """Every QuT piece lies inside the window and on its object's raw path."""
    slack = TIME_TOL * max(abs(wi), abs(we), 1.0)
    for piece, _ in _pieces(result):
        ts = piece.traj.ts
        if ts[0] < wi - slack or ts[-1] > we + slack:
            raise CheckFailed(
                f"QuT piece {piece.parent_key} spans [{ts[0]}, {ts[-1]}], outside window [{wi}, {we}]"
            )
        _on_raw_path(piece, raw, "QuT")


def check_qut_coverage(result, raw, wi: float, we: float) -> None:
    """Every raw sample inside the window is covered by a piece of its trajectory.

    Samples and piece ends are compared with the :data:`TIME_TOL` slack: the
    tree's sub-chunk grid can end a piece a few ulps short of the sample it
    stands for.
    """
    slack = TIME_TOL * max(abs(wi), abs(we), 1.0)
    spans: dict[tuple[str, str], list[tuple[float, float]]] = {}
    for piece, _ in _pieces(result):
        spans.setdefault(root_key(piece.parent_key), []).append(
            (float(piece.traj.ts[0]), float(piece.traj.ts[-1]))
        )
    for key, (_, _, ts) in raw.items():
        inside = ts[(ts > wi + slack) & (ts < we - slack)]
        if inside.size == 0:
            continue
        mine = sorted(spans.get(key, []))
        if not mine:
            raise CheckFailed(f"QuT: trajectory {key} has samples in the window but no piece")
        starts = np.array([s for s, _ in mine]) - slack
        reach = np.maximum.accumulate(np.array([e for _, e in mine])) + slack
        k = np.searchsorted(starts, inside, side="right") - 1
        covered = (k >= 0) & (inside <= reach[np.maximum(k, 0)])
        if not covered.all():
            t = float(inside[~covered][0])
            raise CheckFailed(f"QuT: sample t={t} of trajectory {key} is covered by no piece")


def check_points(rows, raw) -> None:
    """``SELECT *`` rows hold exactly the generated points, each once."""
    got = sorted((r["obj_id"], r["traj_id"], r["t"], r["x"], r["y"]) for r in rows)
    want = sorted(
        (key[0], key[1], float(t), float(x), float(y))
        for key, (xs, ys, ts) in raw.items()
        for x, y, t in zip(xs, ys, ts)
    )
    if got != want:
        missing = len(set(want) - set(got))
        extra = len(set(got) - set(want))
        raise CheckFailed(
            f"SELECT * returned {len(got)} points, expected {len(want)} "
            f"({missing} generated points missing, {extra} unexpected)"
        )
