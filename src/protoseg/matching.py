"""Cluster-to-action assignment and evaluation metrics.

Predicted labelings carry 1-based cluster (prototype) ids, with -1 for a
frame masked as background; ground truth carries 1-based action ids with 0
meaning background.  `VideoEval.evaluated` alone decides which frames are
scored: not background in either.  Every metric reads that mask.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

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
    cluster_ids = np.unique(pred)
    action_ids = np.unique(gt)
    cell = np.searchsorted(cluster_ids, pred) * action_ids.size + np.searchsorted(action_ids, gt)
    counts = np.bincount(cell, minlength=cluster_ids.size * action_ids.size).reshape(
        cluster_ids.size, action_ids.size
    )
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


def _scored(videos: Sequence[VideoEval], labels: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """`labels` (one array per video) and the ground truth, pooled over the scored frames."""
    keeps = [v.evaluated() for v in videos]
    return (
        np.concatenate([np.asarray(x)[keep] for x, keep in zip(labels, keeps)]),
        np.concatenate([np.asarray(v.gt)[keep] for v, keep in zip(videos, keeps)]),
    )


# scope -> (unit name, rank) of a video; units are matched in rank order,
# equal ranks in input order
_UNIT_OF = {
    "video": lambda v: (v.video_id, 0),
    "activity": lambda v: (str(v.activity), v.activity),
    "global": lambda v: ("corpus", 0),
}


def match_at_level(videos: Sequence[VideoEval], scope: str) -> MatchResult:
    """Hungarian matching per video, per activity, or over the whole corpus."""
    if scope not in _UNIT_OF:
        raise ValueError(f"unknown matching scope {scope!r}")
    if not videos:
        raise ValueError("no videos to match")
    units: Dict[tuple, list] = {}
    for v in videos:
        units.setdefault(_UNIT_OF[scope](v), []).append(v)

    reports = []
    mapped: Dict[str, np.ndarray] = {}
    per_video_mof: Dict[str, float] = {}
    for (unit, _), group in sorted(units.items(), key=lambda item: item[0][1]):
        rep = _report(scope, unit, build_contingency(*_scored(group, [v.pred for v in group])))
        reports.append(rep)
        assignment = dict(rep.assignment)
        for v in group:
            keep = v.evaluated()
            mapped[v.video_id] = labels = apply_assignment(v.pred, assignment)
            n_eval = int(keep.sum())
            n_corr = int(np.sum((labels == np.asarray(v.gt)) & keep))
            per_video_mof[v.video_id] = n_corr / n_eval if n_eval else float("nan")
    return MatchResult(
        scope=scope,
        reports=reports,
        mof=sum(r.n_correct for r in reports) / sum(r.n_evaluated for r in reports),
        per_video_mof=per_video_mof,
        mapped=mapped,
    )


def apply_assignment(pred, mapping: Dict[int, int]) -> np.ndarray:
    """Map cluster ids to matched action ids; unmatched clusters become 0, -1 stays -1."""
    pred = np.asarray(pred, dtype=np.int64)
    mapped = np.where(pred == -1, -1, 0)
    for cluster, action in mapping.items():
        mapped[pred == cluster] = action
    return mapped


# ---------------------------------------------------------------------------
# segment F1


def _runs(labels: np.ndarray, keep: np.ndarray) -> list[tuple[int, int, int]]:
    """Maximal constant-label runs over kept frames, split at excluded frames."""
    labels = np.asarray(labels)
    keep = np.asarray(keep, dtype=bool)
    # a run starts where a kept frame follows an excluded frame or another
    # label, and ends where the next frame is excluded or has another label
    split = ~keep[1:] | ~keep[:-1] | (labels[1:] != labels[:-1])
    starts = np.flatnonzero(keep & np.concatenate(([True], split)))
    ends = np.flatnonzero(keep & np.concatenate((split, [True]))) + 1
    return list(zip(labels[starts].tolist(), starts.tolist(), ends.tolist()))


def f1_segments(mapped_pred, gt, keep) -> float:
    """Segment-level F1 after matching, over the frames where `keep` is true.

    A ground-truth segment is recalled when strictly more than half of its
    frames carry its action as the mapped prediction; a predicted segment
    is precise when strictly more than half of its frames fall inside one
    ground-truth segment of the same action.
    """
    mapped_pred = np.asarray(mapped_pred, dtype=np.int64)
    gt = np.asarray(gt, dtype=np.int64)
    pred_segs = _runs(mapped_pred, keep)
    gt_segs = _runs(gt, keep)
    if not pred_segs or not gt_segs:
        return 0.0

    recalled = 0
    for action, start, end in gt_segs:
        hits = int(np.sum(mapped_pred[start:end] == action))
        if hits * 2 > end - start:
            recalled += 1
    precise = 0
    for action, start, end in pred_segs:
        if action == 0:
            continue
        for g_action, g_start, g_end in gt_segs:
            if g_action != action:
                continue
            overlap = min(end, g_end) - max(start, g_start)
            if overlap * 2 > end - start:
                precise += 1
                break
    precision = precise / len(pred_segs)
    recall = recalled / len(gt_segs)
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def corpus_f1(videos: Sequence[VideoEval], mapped: Dict[str, np.ndarray]) -> float:
    """Per-video segment F1 of the matched labelings, averaged over the corpus."""
    return float(np.mean([f1_segments(mapped[v.video_id], v.gt, v.evaluated()) for v in videos]))


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
    pred, gt = _scored(videos, [mapped[v.video_id] for v in videos])
    actions = np.unique(gt)
    p = smoothed_distribution([np.sum(pred == a) for a in actions])
    q = smoothed_distribution([np.sum(gt == a) for a in actions])
    return kl_divergence(p, q), kl_divergence(q, p)


def kl_prototype_sharing(
    labelings_by_activity: Dict[int, Sequence[np.ndarray]], n_prototypes: int
) -> tuple[np.ndarray, list[int]]:
    """Pairwise divergences of per-activity prototype usage distributions.

    Entry (i, j) is D(p_i || p_j) over the full prototype bank; both
    directions are present and the diagonal is exactly zero.
    """
    activities = sorted(labelings_by_activity)
    dists = []
    for activity in activities:
        counts = np.zeros(n_prototypes, dtype=np.float64)
        for labels in labelings_by_activity[activity]:
            labels = np.asarray(labels, dtype=np.int64)
            counts += np.bincount(labels - 1, minlength=n_prototypes)
        dists.append(smoothed_distribution(counts))
    c = len(activities)
    matrix = np.zeros((c, c))
    for i in range(c):
        for j in range(c):
            if i != j:
                matrix[i, j] = kl_divergence(dists[i], dists[j])
    return matrix, activities
