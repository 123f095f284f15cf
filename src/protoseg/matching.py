"""Cluster-to-action assignment and evaluation metrics.

Predicted labelings carry 1-based cluster (prototype) ids, with -1 for a
frame masked as background; ground truth carries 1-based action ids with 0
meaning background.  `VideoEval.evaluated` is the one definition of which
frames are scored: not background in either.  `_flat` applies it to a
corpus's videos end to end, and every metric reads that mask.

`match_at_level`, `corpus_f1` and `kl_action_distribution` score the corpus
as one flat array of frames; `match_at_level` counts every unit's
contingency in one `build_contingency` call, and only the Hungarian solve
runs once per unit.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Dict, Sequence

import numpy as np

from .inference import prototype_usage

KL_SMOOTHING = 1e-8


@dataclass
class VideoEval:
    """One video's prediction/ground-truth pair for matching."""

    video_id: str
    activity: int
    pred: np.ndarray  # 1-based cluster ids, -1 = masked as background
    gt: np.ndarray  # 1-based action ids, 0 = background

    def evaluated(self) -> np.ndarray:
        return (np.asarray(self.gt) != 0) & (np.asarray(self.pred) != -1)


@dataclass
class Contingency:
    counts: np.ndarray  # n_clusters x n_actions, int64
    cluster_ids: np.ndarray
    action_ids: np.ndarray


def build_contingency(pred, gt) -> Contingency:
    """Frame-overlap counts between predicted clusters and true actions, over every frame given."""
    pred = np.asarray(pred, dtype=np.int64)
    gt = np.asarray(gt, dtype=np.int64)
    if pred.shape != gt.shape:
        raise ValueError(f"length mismatch: pred {pred.shape} vs gt {gt.shape}")
    cluster_ids, row = np.unique(pred, return_inverse=True)
    action_ids, col = np.unique(gt, return_inverse=True)
    shape = (cluster_ids.size, action_ids.size)
    counts = np.bincount(row * shape[1] + col, minlength=shape[0] * shape[1]).reshape(shape)
    return Contingency(counts=counts, cluster_ids=cluster_ids, action_ids=action_ids)


# ---------------------------------------------------------------------------
# Hungarian assignment


def _min_cost_pairs(cost: np.ndarray) -> list[tuple[int, int]]:
    """Min-cost assignment of every row of an n x m cost matrix, n <= m.

    Shortest augmenting paths with potentials, O(n^2 m); exact for exact
    input costs.  Returns the (row, col) pairs in column order.
    """
    n, m = cost.shape
    rows = cost.tolist()
    inf = float("inf")
    u = [0.0] * (n + 1)
    v = [0.0] * (m + 1)
    match = [0] * (m + 1)  # match[j] = row matched to column j, 1-based; 0 = free
    way = [0] * (m + 1)
    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        minv = [inf] * (m + 1)
        used = [False] * (m + 1)
        while True:
            used[j0] = True
            i0 = match[j0]
            delta = inf
            j1 = 0
            row = rows[i0 - 1]
            for j in range(1, m + 1):
                if not used[j]:
                    cur = row[j - 1] - u[i0] - v[j]
                    if cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                    if minv[j] < delta:
                        delta = minv[j]
                        j1 = j
            for j in range(m + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    return [(match[j] - 1, j - 1) for j in range(1, m + 1) if match[j]]


def hungarian_solve(counts: np.ndarray) -> tuple[list[tuple[int, int]], float]:
    """One-to-one assignment maximizing the summed overlap counts.

    Solved on the n x m matrix itself, over its shorter side, in
    O(min^2 max).  Only pairs with a positive count come back, sorted by
    row: a row (cluster) the optimum pairs with a column it never overlaps
    is left unmatched, so fewer than min(n, m) pairs can come back.  Ties
    between equal-value assignments prefer higher per-cluster/per-class
    overlap fractions (a content-based rule, so relabeling clusters cannot
    change the metrics); the tiebreak weight is too small to alter the
    maximal total.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim != 2 or counts.shape[0] < 1 or counts.shape[1] < 1:
        raise ValueError("counts must be a non-empty 2D matrix")
    n, m = counts.shape
    row_sums = np.maximum(counts.sum(axis=1, keepdims=True), 1.0)
    col_sums = np.maximum(counts.sum(axis=0, keepdims=True), 1.0)
    value = counts + (counts / row_sums + counts / col_sums) / (8.0 * max(n, m))
    if n <= m:
        pairs = _min_cost_pairs(-value)
    else:
        pairs = [(i, j) for j, i in _min_cost_pairs(-value.T)]
    pairs = sorted((i, j) for i, j in pairs if counts[i, j] > 0)
    total = float(sum(counts[i, j] for i, j in pairs))
    return pairs, total


# ---------------------------------------------------------------------------
# matching scopes and metrics


@dataclass
class AssignmentReport:
    unit: str  # video id, activity id, or "corpus"
    assignment: list  # (cluster_id, action_id) pairs
    n_evaluated: int
    n_correct: int
    mof: float
    mop: float
    moc: float


@dataclass
class MatchResult:
    scope: str
    reports: list
    mof: float  # pooled correct frames / evaluated frames
    per_video_mof: Dict[str, float]
    mapped: Dict[str, np.ndarray]  # video id -> matched action, 0 = unmatched, -1 = masked


def _report(scope: str, unit: str, cont: Contingency) -> AssignmentReport:
    total = int(cont.counts.sum())
    if total == 0:
        raise ValueError(f"empty evaluation set for {scope} unit {unit!r}")
    pairs, value = hungarian_solve(cont.counts)
    rows, cols = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    matched = cont.counts[rows, cols]
    per_cluster = np.zeros(cont.counts.shape[0])
    per_cluster[rows] = matched / cont.counts.sum(axis=1)[rows]
    per_class = np.zeros(cont.counts.shape[1])
    per_class[cols] = matched / cont.counts.sum(axis=0)[cols]
    assignment = [
        (int(cont.cluster_ids[i]), int(cont.action_ids[j])) for i, j in pairs
    ]
    return AssignmentReport(
        unit=unit,
        assignment=assignment,
        n_evaluated=total,
        n_correct=int(value),
        mof=value / total,
        mop=float(np.mean(per_cluster)),
        moc=float(np.mean(per_class)),
    )


@dataclass
class _Flat:
    """A corpus's frames end to end, in video order."""

    gt: np.ndarray
    keep: np.ndarray  # scored: `VideoEval.evaluated` of the videos' concatenation
    first: np.ndarray  # true at each video's first frame
    bounds: np.ndarray  # video i holds frames bounds[i]:bounds[i + 1]

    def per_video(self, frames: np.ndarray) -> np.ndarray:
        """How many of the ascending frame indices `frames` fall in each video."""
        return np.diff(np.searchsorted(frames, self.bounds))


def _flat(videos: Sequence[VideoEval], preds: Sequence) -> tuple[np.ndarray, _Flat]:
    """`preds` (one array per video) and the ground truth of `videos`, each concatenated once."""
    preds = [np.asarray(x, dtype=np.int64) for x in preds]
    gts = [np.asarray(v.gt, dtype=np.int64) for v in videos]
    for v, x, g in zip(videos, preds, gts):
        if x.shape != g.shape:
            raise ValueError(f"video {v.video_id!r}: pred {x.shape} vs gt {g.shape} frames")
    lengths = np.array([len(g) for g in gts])
    bounds = np.concatenate(([0], np.cumsum(lengths)))
    first = np.zeros(bounds[-1], dtype=bool)
    first[bounds[:-1][lengths > 0]] = True
    gt = np.concatenate(gts)
    keep = VideoEval("", 0, np.concatenate([np.asarray(v.pred) for v in videos]), gt).evaluated()
    return np.concatenate(preds), _Flat(gt, keep, first, bounds)


# scope -> (unit name, rank) of a video; units are matched in rank order,
# equal ranks in input order
_UNIT_OF = {
    "video": lambda v: (v.video_id, 0),
    "activity": lambda v: (str(v.activity), v.activity),
    "global": lambda v: ("corpus", 0),
}


def match_at_level(videos: Sequence[VideoEval], scope: str) -> MatchResult:
    """Hungarian matching per video, per activity, or over the whole corpus.

    The corpus is scored as one flat array: cluster and action ids are
    compacted to their ranks, one `build_contingency` call counts every
    unit's contingency as a block of rows, and a unit x cluster lookup
    table applies each unit's assignment.
    """
    if scope not in _UNIT_OF:
        raise ValueError(f"unknown matching scope {scope!r}")
    if not videos:
        raise ValueError("no videos to match")
    units: Dict[tuple, list] = {}
    for i, v in enumerate(videos):
        units.setdefault(_UNIT_OF[scope](v), []).append(i)
    unit_of = np.empty(len(videos), dtype=np.int64)
    for u, members in enumerate(units.values()):
        unit_of[members] = u

    pred, flat = _flat(videos, [v.pred for v in videos])
    cluster_ids, row = np.unique(pred, return_inverse=True)
    n_clusters = cluster_ids.size
    # each frame's row of the unit x cluster table; only scored frames enter
    # the contingency, so it holds only the rows and actions they reach
    row += np.repeat(unit_of * n_clusters, np.diff(flat.bounds))
    table = build_contingency(row[flat.keep], flat.gt[flat.keep])
    # unit u's rows are the ascending block in [u, u + 1) * n_clusters
    block = np.searchsorted(table.cluster_ids, np.arange(len(units) + 1) * n_clusters)

    reports = []
    lookup = np.zeros(len(units) * n_clusters, dtype=np.int64)  # table row -> action
    ranked = sorted(enumerate(units), key=lambda item: item[1][1])
    for u, (unit, _) in ranked:
        rows = slice(block[u], block[u + 1])
        cols = np.flatnonzero(table.counts[rows].sum(axis=0))
        clusters = cluster_ids[table.cluster_ids[rows] - u * n_clusters]
        cont = Contingency(table.counts[rows, cols], clusters, table.action_ids[cols])
        rep = _report(scope, unit, cont)
        reports.append(rep)
        for cluster_id, action_id in rep.assignment:
            lookup[u * n_clusters + np.searchsorted(cluster_ids, cluster_id)] = action_id
    mapped_flat = lookup[row]
    mapped_flat[pred == -1] = -1
    correct = flat.keep & (mapped_flat == flat.gt)
    n_eval = flat.per_video(np.flatnonzero(flat.keep)).tolist()
    n_corr = flat.per_video(np.flatnonzero(correct)).tolist()

    mapped: Dict[str, np.ndarray] = {}
    per_video_mof: Dict[str, float] = {}
    members = list(units.values())
    for u, _ in ranked:
        for i in members[u]:
            vid = videos[i].video_id
            mapped[vid] = mapped_flat[flat.bounds[i] : flat.bounds[i + 1]]
            per_video_mof[vid] = n_corr[i] / n_eval[i] if n_eval[i] else float("nan")
    return MatchResult(
        scope=scope,
        reports=reports,
        mof=sum(r.n_correct for r in reports) / sum(r.n_evaluated for r in reports),
        per_video_mof=per_video_mof,
        mapped=mapped,
    )


# ---------------------------------------------------------------------------
# segment F1


def _run_bounds(labels: np.ndarray, keep: np.ndarray, first: np.ndarray):
    """(starts, ends) of the maximal constant-label runs over kept frames.

    Runs split at excluded frames and at each frame where `first` is true.
    """
    # a run starts where a kept frame follows an excluded frame or another
    # label, and ends where the next frame is excluded or has another label
    split = ~keep[1:] | ~keep[:-1] | (labels[1:] != labels[:-1]) | first[1:]
    starts = np.flatnonzero(keep & np.concatenate(([True], split)))
    ends = np.flatnonzero(keep & np.concatenate((split, [True]))) + 1
    return starts, ends


def _segment_f1(mapped: np.ndarray, flat: _Flat, keep: np.ndarray) -> np.ndarray:
    """Segment F1 of each video of `flat` over the frames where `keep` is true.

    A ground-truth segment is recalled when strictly more than half of its
    frames carry its action as the mapped prediction; a predicted segment
    is precise when strictly more than half of its frames fall inside one
    ground-truth segment of the same action.  Each such overlap is one
    piece of the frames split at the boundaries of both segmentations.
    """
    gt, n_videos = flat.gt, len(flat.bounds) - 1
    pred_starts, pred_ends = _run_bounds(mapped, keep, flat.first)
    gt_starts, gt_ends = _run_bounds(gt, keep, flat.first)
    hits = np.zeros(gt.size + 1, dtype=np.int64)  # hits[t]: frames before t where mapped == gt
    np.cumsum(mapped == gt, out=hits[1:])
    recalled = (hits[gt_ends] - hits[gt_starts]) * 2 > gt_ends - gt_starts
    gt_changes = flat.first | np.concatenate(([False], gt[1:] != gt[:-1]))
    piece_starts, piece_ends = _run_bounds(mapped, keep, gt_changes)
    pred_of_piece = np.searchsorted(pred_starts, piece_starts, side="right") - 1
    pred_len = (pred_ends - pred_starts)[pred_of_piece]
    inside = (mapped[piece_starts] != 0) & (mapped[piece_starts] == gt[piece_starts])
    precise = np.zeros(pred_starts.size, dtype=bool)
    precise[pred_of_piece[inside & ((piece_ends - piece_starts) * 2 > pred_len)]] = True

    # segments per video; a video without kept frames has no runs, and its
    # precision and recall read 0
    per_video = flat.per_video
    precision = per_video(pred_starts[precise]) / np.maximum(per_video(pred_starts), 1)
    recall = per_video(gt_starts[recalled]) / np.maximum(per_video(gt_starts), 1)
    total = precision + recall
    return np.divide(2.0 * precision * recall, total, out=np.zeros(n_videos), where=total > 0.0)


def corpus_f1(videos: Sequence[VideoEval], mapped: Dict[str, np.ndarray]) -> float:
    """Per-video segment F1 of the matched labelings, averaged over the corpus."""
    labels, flat = _flat(videos, [mapped[v.video_id] for v in videos])
    return float(np.mean(_segment_f1(labels, flat, flat.keep)))


# ---------------------------------------------------------------------------
# KL divergence analyses


def smoothed_distribution(counts: np.ndarray, eps: float = KL_SMOOTHING) -> np.ndarray:
    """Add-eps smoothing then renormalize, so empty bins stay finite."""
    counts = np.asarray(counts, dtype=np.float64) + eps
    return counts / counts.sum()


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """D(p || q) with natural logs; inputs must be strictly positive."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    return float(np.sum(p * np.log(p / q)))


def kl_action_distribution(
    videos: Sequence[VideoEval], mapped: Dict[str, np.ndarray]
) -> tuple[float, float]:
    """Divergences between the matched and the true frame-over-action distributions.

    Both distributions pool the scored frames of `videos` and run over the
    action ids of their ground truth; a frame mapped to no action adds no
    mass.  Returns (D(pred || gt), D(gt || pred)).
    """
    labels, flat = _flat(videos, [mapped[v.video_id] for v in videos])
    pred, gt = labels[flat.keep], flat.gt[flat.keep]
    actions = np.unique(gt)
    p = smoothed_distribution([np.sum(pred == a) for a in actions])
    q = smoothed_distribution([np.sum(gt == a) for a in actions])
    return kl_divergence(p, q), kl_divergence(q, p)


def kl_prototype_sharing(
    labelings_by_activity: Dict[int, Sequence[np.ndarray]], n_prototypes: int
) -> tuple[np.ndarray, list[int]]:
    """`kl_usage_sharing` of each activity's `prototype_usage` in its labelings."""
    by_activity = labelings_by_activity.items()
    return kl_usage_sharing({a: prototype_usage(ls, n_prototypes) for a, ls in by_activity})


def kl_usage_sharing(usage_by_activity: Dict[int, Sequence[int]]) -> tuple[np.ndarray, list[int]]:
    """Pairwise divergences of per-activity prototype usage over the full bank.

    Entry (i, j) is D(p_i || p_j) of the smoothed usage distributions of
    the i-th and j-th activities in ascending order; the diagonal is zero.
    """
    activities = sorted(usage_by_activity)
    dists = [smoothed_distribution(usage_by_activity[a]) for a in activities]
    matrix = np.zeros((len(dists), len(dists)))
    for i, j in permutations(range(len(dists)), 2):
        matrix[i, j] = kl_divergence(dists[i], dists[j])
    return matrix, activities
