"""Turning affinity matrices into frame labelings.

All label arrays use 1-based prototype ids, and a labeling of a whole video
(what `segment_corpus` returns, and what a labeling file holds) marks a
masked background frame with -1.  Ties in argmax, ordering, and decoding
resolve toward the lowest index so runs are reproducible.  The ordered
Viterbi decoding runs over all of an activity's videos at once
(`viterbi_decode_batch`), and labels each video as it would alone.
"""
from __future__ import annotations

import math
from typing import Dict, Sequence

import numpy as np

# Affinity entries can be exactly zero after min/max inversion; floor them before a log.
LOG_EPS = 1e-12


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
    1e-12 before the log.  Returns 1-based prototype ids.  This is
    `viterbi_decode_batch` on one video.
    """
    return viterbi_decode_batch([affinity], ordering, column_ids)[0]


def viterbi_decode_batch(
    affinities: Sequence[np.ndarray], ordering: Sequence[int], column_ids: Sequence[int]
) -> list[np.ndarray]:
    """`viterbi_decode` of every matrix, in one recursion over a V x K array per frame.

    The videos run longest first, so those still running at frame t are a
    prefix of the batch, and each keeps the score of its own last frame.
    Every video sees the same float64 additions and tie rules as alone:
    on a tie the earlier ordering element is the predecessor, and the
    final argmax takes the lowest index.
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
    if not affinities:
        return []

    order = sorted(range(len(affinities)), key=lambda i: -len(affinities[i]))
    lengths = [len(affinities[i]) for i in order]
    n_videos, n_states, t_max = len(order), ordering.size, lengths[0]
    emit = np.zeros((t_max, n_videos, n_states))  # frame x video x ordering element
    for v, i in enumerate(order):
        a = np.asarray(affinities[i], dtype=np.float64)
        emit[: lengths[v], v] = np.log(np.maximum(a[:, cols], LOG_EPS))
    # frames bounds[r]:bounds[r - 1] run the r longest videos, so the views
    # are made once per span, not once per frame
    bounds = lengths + [0]
    score = np.full((n_videos, n_states), -np.inf)
    score[:, 0] = emit[0, :, 0]
    advanced = np.zeros((t_max, n_videos, n_states), dtype=bool)  # entered by advancing
    for r in range(n_videos, 0, -1):
        s, adv, stay = score[:r], score[:r, :-1], score[:r, 1:]
        span = slice(max(bounds[r], 1), bounds[r - 1])
        for up, e in zip(advanced[span, :r, 1:], emit[span, :r]):
            np.greater_equal(adv, stay, out=up)  # a tie takes the earlier element
            np.copyto(stay, adv, where=up)  # reads all of `adv` before it writes
            s += e

    # Walk each path back one element at a time, not one frame at a time:
    # it entered its element j at the last frame before `until` (where it
    # entered j + 1, or its end) that `advanced` marks for j; when no frame
    # is marked, j is its first element, held from frame 0.
    j = np.argmax(score, axis=1)  # lowest index wins ties
    until = np.array(lengths)
    frames, videos = np.arange(t_max)[:, None], np.arange(n_videos)
    moves = np.zeros((t_max, n_videos), dtype=bool)  # the path enters its next element
    for _ in range(n_states - 1):
        hit = advanced[:, videos, j] & (frames < until)
        found = hit.any(axis=0)
        last = t_max - 1 - np.argmax(hit[::-1], axis=0)
        moves[last[found], videos[found]] = True
        j = j - found
        until = np.where(found, last, 0)
    path = j + np.cumsum(moves, axis=0)
    labels: list = [None] * n_videos
    for v, i in enumerate(order):
        labels[i] = ordering[path[: lengths[v], v]]
    return labels


def background_mask(affinity: np.ndarray, eta: float) -> np.ndarray:
    """Mark the lowest-affinity fraction of each prototype's frames.

    Per prototype, frames assigned to it by naive labeling are ranked by
    affinity and only the top ceil((1-eta) * count) kept; the rest become
    background.  Affinity ties keep the earlier frame.
    """
    if not 0.0 <= eta < 1.0:
        raise ValueError("eta must lie in [0, 1)")
    a = np.asarray(affinity, dtype=np.float64)
    mask = np.zeros(a.shape[0], dtype=bool)
    if eta == 0.0:
        return mask
    labels = naive_labels(a)
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
) -> Dict[str, np.ndarray]:
    """Label every video, globally or per activity: video id -> int64 labels.

    Global scope takes the naive argmax (optionally after smoothing the
    full affinity matrix).  Activity scope restricts each activity's
    videos to their `n_keep` busiest prototypes (int, or dict keyed by
    activity; None, or an activity the dict lacks, keeps all N),
    optionally smooths, then either relabels naively or runs the ordered
    Viterbi decoding.  An `n_keep` outside [1, N] is passed on as given,
    and `activity_reduce` refuses it with a ValueError.  `eta` > 0
    additionally masks low affinity frames per prototype, computed on the
    full matrices; a masked frame is labeled -1.
    """
    if scope not in ("global", "activity"):
        raise ValueError(f"unknown segmentation scope {scope!r}")
    ids = sorted(affinities)
    labels: Dict[str, np.ndarray] = {}

    if scope == "global":
        for vid in ids:
            a = affinities[vid]
            labels[vid] = naive_labels(gaussian_smooth(a, sigma) if smooth else a)
    else:
        by_activity: Dict[int, list[str]] = {}
        for vid in ids:
            by_activity.setdefault(activities[vid], []).append(vid)
        n_total = next(iter(affinities.values())).shape[1]
        for activity in sorted(by_activity):
            vids = by_activity[activity]
            keep = n_keep.get(activity) if isinstance(n_keep, dict) else n_keep
            keep = n_total if keep is None else keep
            kept_ids, reduced = activity_reduce([affinities[v] for v in vids], keep)
            if smooth:
                reduced = [gaussian_smooth(a, sigma) for a in reduced]
            relabeled = [kept_ids[np.argmax(a, axis=1)] for a in reduced]
            if decode:
                order = action_ordering(relabeled, kept_ids)
                relabeled = viterbi_decode_batch(reduced, order, kept_ids)
            labels.update(zip(vids, relabeled))
    for vid in ids:
        labels[vid][background_mask(affinities[vid], eta)] = -1
    return labels
