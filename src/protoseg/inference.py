"""Turning affinity matrices into frame labelings.

All label arrays use 1-based prototype ids; ties in argmax, ordering, and
decoding resolve toward the lowest index so runs are reproducible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

LOG_EPS = 1e-12


@dataclass
class Labeling:
    """Per-frame prototype ids plus an optional background mask."""

    labels: np.ndarray  # int64, 1-based prototype ids
    background: np.ndarray | None = None  # bool, True = excluded from metrics

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.background is not None:
            self.background = np.asarray(self.background, dtype=bool)
            if self.background.shape != self.labels.shape:
                raise ValueError("background mask length differs from labels")


def naive_labels(affinity: np.ndarray) -> np.ndarray:
    """Highest-affinity prototype per frame (1-based, lowest index on ties)."""
    affinity = np.asarray(affinity)
    return np.argmax(affinity, axis=1).astype(np.int64) + 1


def activity_reduce(
    affinities: Sequence[np.ndarray], n_keep: int
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Restrict same-activity affinity matrices to their most used prototypes.

    Occurrence is counted from naive labels pooled over all given videos;
    ties keep the lower prototype id.  Rows are re-normalized to sum 1
    (uniform if a row loses all mass).  Returns (kept 1-based ids, reduced
    matrices with columns in kept order).
    """
    if not affinities:
        raise ValueError("no affinity matrices given")
    n_total = affinities[0].shape[1]
    if not 1 <= n_keep <= n_total:
        raise ValueError(f"n_keep {n_keep} outside [1, {n_total}]")
    counts = np.zeros(n_total, dtype=np.int64)
    for a in affinities:
        if a.shape[1] != n_total:
            raise ValueError("affinity matrices disagree on prototype count")
        counts += np.bincount(naive_labels(a) - 1, minlength=n_total)
    # stable sort on (-count, id) keeps the lower id on ties
    kept = np.lexsort((np.arange(n_total), -counts))[:n_keep]
    kept = np.sort(kept)
    reduced = []
    for a in affinities:
        sub = np.asarray(a, dtype=np.float64)[:, kept]
        sums = sub.sum(axis=1, keepdims=True)
        sub = np.where(sums > 0.0, sub / np.where(sums > 0.0, sums, 1.0), 1.0 / n_keep)
        reduced.append(sub)
    return kept.astype(np.int64) + 1, reduced


def gaussian_kernel(sigma: float) -> np.ndarray:
    """Normalized Gaussian taps truncated at radius ceil(4*sigma)."""
    if sigma <= 0.0:
        raise ValueError("sigma must be > 0")
    radius = math.ceil(4.0 * sigma)
    xs = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-0.5 * (xs / sigma) ** 2)
    return kernel / kernel.sum()


def gaussian_smooth(affinity: np.ndarray, sigma: float) -> np.ndarray:
    """Convolve each column over time with a normalized Gaussian.

    Boundaries use half-sample (edge-including) reflection, which keeps
    every column's mass exactly; columns shorter than the kernel radius
    reflect repeatedly.
    """
    a = np.asarray(affinity, dtype=np.float64)
    kernel = gaussian_kernel(sigma)
    radius = (len(kernel) - 1) // 2
    t = a.shape[0]
    if t == 0:
        return a.copy()
    idx = _reflect_indices(t, radius)
    padded = a[idx, :]
    out = np.empty_like(a)
    for col in range(a.shape[1]):
        out[:, col] = np.convolve(padded[:, col], kernel, mode="valid")
    return out


def _reflect_indices(t: int, radius: int) -> np.ndarray:
    """Indices implementing symmetric reflection (a b c -> b a|a b c|c b)."""
    base = np.arange(-radius, t + radius)
    period = 2 * t
    folded = np.mod(base, period)
    return np.where(folded < t, folded, period - 1 - folded)


def action_ordering(
    labelings: Sequence[np.ndarray], kept_ids: Sequence[int]
) -> np.ndarray:
    """Sort kept prototypes by their mean normalized timestamp.

    Timestamps are t/T with 0-based t averaged over every assigned frame
    across videos.  Prototypes with no assigned frames go last; all ties
    resolve by lower prototype id.
    """
    kept_ids = np.asarray(kept_ids, dtype=np.int64)
    sums = {int(k): 0.0 for k in kept_ids}
    counts = {int(k): 0 for k in kept_ids}
    for labels in labelings:
        labels = np.asarray(labels)
        t_total = len(labels)
        stamps = np.arange(t_total, dtype=np.float64) / t_total
        for k in kept_ids:
            mask = labels == k
            sums[int(k)] += float(stamps[mask].sum())
            counts[int(k)] += int(mask.sum())

    def key(k: int):
        if counts[k] == 0:
            return (1, 0.0, k)  # empty prototypes sort last, by id
        return (0, sums[k] / counts[k], k)

    return np.array(sorted((int(k) for k in kept_ids), key=key), dtype=np.int64)


def viterbi_decode(
    affinity: np.ndarray, ordering: Sequence[int], column_ids: Sequence[int]
) -> np.ndarray:
    """Best monotone traversal of `ordering` under log-affinity scores.

    The path starts at the first ordering element and may stay or advance
    one element per frame; it need not reach the end.  Frame likelihoods
    are the affinity entries under a uniform prototype prior, clamped at
    1e-12 before the log.  Returns 1-based prototype ids.
    """
    ordering = np.asarray(ordering, dtype=np.int64)
    column_ids = np.asarray(column_ids, dtype=np.int64)
    if ordering.size == 0:
        raise ValueError("ordering is empty")
    if len(np.unique(ordering)) != ordering.size:
        raise ValueError("ordering contains repeated prototypes")
    col_of = {int(pid): j for j, pid in enumerate(column_ids)}
    try:
        cols = np.array([col_of[int(pid)] for pid in ordering])
    except KeyError as exc:
        raise ValueError(f"ordering id {exc} not among affinity columns") from None

    a = np.asarray(affinity, dtype=np.float64)
    # the recursion runs on Python floats: numpy scalar indexing per cell
    # costs several times the arithmetic
    emit = np.log(np.maximum(a[:, cols], LOG_EPS)).tolist()  # T x K in ordering order
    score = [emit[0][0]] + [-math.inf] * (ordering.size - 1)
    advanced = [None]  # advanced[t][j]: frame t entered element j by advancing
    for row in emit[1:]:
        nxt = [score[0] + row[0]]
        moved = [False]
        for adv, stay, e in zip(score, score[1:], row[1:]):
            # on ties, prefer the earlier ordering element as predecessor
            up = adv >= stay
            nxt.append((adv if up else stay) + e)
            moved.append(up)
        score = nxt
        advanced.append(moved)

    j = int(np.argmax(score))  # lowest index wins ties
    ids = ordering.tolist()
    path = [0] * len(emit)
    for t in range(len(emit) - 1, -1, -1):
        path[t] = ids[j]
        if t > 0 and advanced[t][j]:
            j -= 1
    return np.array(path, dtype=np.int64)


def background_mask(affinity: np.ndarray, eta: float) -> np.ndarray:
    """Mark the lowest-affinity fraction of each prototype's frames.

    Per prototype, frames assigned to it by naive labeling are ranked by
    affinity and only the top ceil((1-eta) * count) kept; the rest become
    background.  Affinity ties keep the earlier frame.
    """
    if not 0.0 <= eta < 1.0:
        raise ValueError("eta must lie in [0, 1)")
    a = np.asarray(affinity, dtype=np.float64)
    labels = naive_labels(a)
    mask = np.zeros(a.shape[0], dtype=bool)
    if eta == 0.0:
        return mask
    for pid in np.unique(labels):
        frames = np.flatnonzero(labels == pid)
        keep = math.ceil((1.0 - eta) * frames.size)
        strengths = a[frames, pid - 1]
        ranked = frames[np.lexsort((frames, -strengths))]
        mask[ranked[keep:]] = True
    return mask


def recognize_activity(
    proto_probs: np.ndarray,
    visual_probs: np.ndarray,
    weight_p: float = 0.5,
    weight_g: float = 0.5,
) -> int:
    """MAP activity under a weighted mixture of the two heads (1-based)."""
    if weight_p < 0.0 or weight_g < 0.0 or (weight_p == 0.0 and weight_g == 0.0):
        raise ValueError("weights must be non-negative and not both zero")
    mixture = weight_p * np.asarray(proto_probs) + weight_g * np.asarray(visual_probs)
    return int(np.argmax(mixture)) + 1


# ---------------------------------------------------------------------------
# corpus-level segmentation pipeline


def segment_corpus(
    affinities: Dict[str, np.ndarray],
    activities: Dict[str, int],
    scope: str = "global",
    smooth: bool = False,
    sigma: float = 5.0,
    decode: bool = False,
    n_keep: int | Dict[int, int] | None = None,
    eta: float = 0.0,
) -> Dict[str, Labeling]:
    """Label every video, globally or per activity.

    Global scope takes the naive argmax (optionally after smoothing the
    full affinity matrix).  Activity scope restricts each activity's
    videos to their `n_keep` busiest prototypes (int, or dict keyed by
    activity), optionally smooths, then either relabels naively or runs
    the ordered Viterbi decoding.  `eta` > 0 additionally masks low
    affinity frames per prototype, computed on the full matrices.
    """
    if scope not in ("global", "activity"):
        raise ValueError(f"unknown segmentation scope {scope!r}")
    ids = sorted(affinities)
    masks = {
        vid: background_mask(affinities[vid], eta) if eta > 0.0 else None for vid in ids
    }
    out: Dict[str, Labeling] = {}

    if scope == "global":
        for vid in ids:
            a = affinities[vid]
            if smooth:
                a = gaussian_smooth(a, sigma)
            out[vid] = Labeling(naive_labels(a), masks[vid])
        return out

    by_activity: Dict[int, list[str]] = {}
    for vid in ids:
        by_activity.setdefault(activities[vid], []).append(vid)
    n_total = next(iter(affinities.values())).shape[1]
    for activity in sorted(by_activity):
        vids = by_activity[activity]
        if isinstance(n_keep, dict):
            keep = n_keep.get(activity)
        else:
            keep = n_keep
        keep = n_total if keep is None else min(keep, n_total)
        kept_ids, reduced = activity_reduce([affinities[v] for v in vids], keep)
        if smooth:
            reduced = [gaussian_smooth(a, sigma) for a in reduced]
        relabeled = [kept_ids[np.argmax(a, axis=1)] for a in reduced]
        if decode:
            order = action_ordering(relabeled, kept_ids)
            for vid, a in zip(vids, reduced):
                labels = viterbi_decode(a, order, kept_ids)
                out[vid] = Labeling(labels, masks[vid])
        else:
            for vid, labels in zip(vids, relabeled):
                out[vid] = Labeling(labels, masks[vid])
    return out
