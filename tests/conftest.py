"""Shared gradient-check scenarios and the assignment, run, contingency,
decoding and matching oracles used by unit and acceptance tests."""
from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np
import pytest

from protoseg import autodiff as ad
from protoseg import matching
from protoseg import model as model_mod
from protoseg.data import Corpus, FeatureSequence, read_corpus, write_corpus
from protoseg.losses import LOG_EPS, PROB_EPS

# paper shape: 2048-d frames; at D = 1024 the default block budget holds
# 512 frames, so a video of this length runs as 3 blocks of 433 or 434
PAPER_SHAPE_FRAMES = 1300
PAPER_SHAPE_DIM = 2048


@pytest.fixture(scope="session")
def paper_shape_video(tmp_path_factory):
    """A video read back from its corpus's manifest: 1,300 float32 2048-d frames."""
    frames = np.random.default_rng(7).normal(size=(PAPER_SHAPE_FRAMES, PAPER_SHAPE_DIM))
    made = Corpus("paper_shape", 1, ["a"], [FeatureSequence("v", 1, frames.astype(np.float32))])
    return read_corpus(write_corpus(made, tmp_path_factory.mktemp("paper_shape"))).videos[0]


@pytest.fixture
def small_blocks(monkeypatch):
    """A block budget of 240 bytes: 5 frames per block at D = 6, so a
    video of a few dozen frames runs as several blocks."""
    monkeypatch.setattr(model_mod, "EMBEDDING_BLOCK_BYTES", 8 * 6 * 5)


def finite_diff_check(
    fn: Callable[..., ad.Var],
    inputs: Sequence[np.ndarray],
    h: float = 1e-5,
) -> float:
    """Compare tape gradients of a scalar-valued `fn` to central differences.

    `fn(tape, *vars)` must build a scalar Var from the wrapped inputs.
    Returns max over coordinates of |analytic - fd| / max(1, |fd|).
    """
    inputs = [np.array(x, dtype=np.float64) for x in inputs]
    tape = ad.Tape()
    wrapped = [tape.var(x) for x in inputs]
    out = fn(tape, *wrapped)
    if out.value.shape != ():
        raise ValueError("finite_diff_check requires a scalar-valued function")
    if not np.isfinite(out.value):
        raise FloatingPointError("non-finite forward value in finite_diff_check")
    tape.backward(out)
    analytic = [np.zeros_like(v.value) if v.grad is None else v.grad for v in wrapped]

    def evaluate() -> float:
        t = ad.Tape()
        return float(fn(t, *[t.const(x) for x in inputs]).value)

    worst = 0.0
    for k, x in enumerate(inputs):
        flat = x.reshape(-1)
        aflat = analytic[k].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = evaluate()
            flat[i] = orig - h
            f_minus = evaluate()
            flat[i] = orig
            fd = (f_plus - f_minus) / (2.0 * h)
            err = abs(aflat[i] - fd) / max(1.0, abs(fd))
            if err > worst:
                worst = err
    return worst


def _weighted(tape, var, weights):
    """Scalar-valued readout; `weights` is a wrapped input so its gradient
    is exercised too."""
    return ad.vsum(ad.mul(var, weights))


# (name, make_inputs(rng) -> list of arrays, fn(tape, *vars) -> scalar Var)
GRADCHECK_CASES = [
    (
        "add",
        lambda rng: [rng.normal(size=(3, 4)), rng.normal(size=(3, 4)), rng.normal(size=(3, 4))],
        lambda t, a, b, w: _weighted(t, ad.add(a, b), w),
    ),
    (
        "add_broadcast",
        lambda rng: [rng.normal(size=(3, 4)), rng.normal(size=4), rng.normal(size=(3, 4))],
        lambda t, a, b, w: _weighted(t, ad.add(a, b), w),
    ),
    (
        "mul",
        lambda rng: [rng.normal(size=(3, 4)), rng.normal(size=(3, 4)), rng.normal(size=(3, 4))],
        lambda t, a, b, w: _weighted(t, ad.mul(a, b), w),
    ),
    (
        "scale",
        lambda rng: [rng.normal(size=(4, 2)), rng.normal(size=(4, 2))],
        lambda t, a, w: _weighted(t, ad.scale(a, 1.7), w),
    ),
    (
        "matmul",
        lambda rng: [rng.normal(size=(3, 4)), rng.normal(size=(4, 2)), rng.normal(size=(3, 2))],
        lambda t, a, b, w: _weighted(t, ad.matmul(a, b), w),
    ),
    (
        "matmul_vec",
        lambda rng: [rng.normal(size=4), rng.normal(size=(4, 2)), rng.normal(size=2)],
        lambda t, a, b, w: _weighted(t, ad.matmul(a, b), w),
    ),
    (
        "axis0_sum",
        lambda rng: [rng.normal(size=(5, 3)), rng.normal(size=3)],
        lambda t, a, w: _weighted(t, ad.axis0_sum(a), w),
    ),
    (
        "relu",
        lambda rng: [rng.normal(size=(3, 4)), rng.normal(size=(3, 4))],
        lambda t, a, w: _weighted(t, ad.relu(a), w),
    ),
    (
        "log",
        lambda rng: [rng.uniform(0.5, 2.0, size=(3, 4)), rng.normal(size=(3, 4))],
        lambda t, a, w: _weighted(t, ad.log(a), w),
    ),
    (
        "clamp",
        lambda rng: [rng.uniform(-2.0, 2.0, size=(3, 4)), rng.normal(size=(3, 4))],
        lambda t, a, w: _weighted(t, ad.clamp(a, -1.0, 1.0), w),
    ),
    (
        "absval",
        lambda rng: [rng.uniform(-2.0, 2.0, size=(3, 4)), rng.normal(size=(3, 4))],
        lambda t, a, w: _weighted(t, ad.absval(a), w),
    ),
    (
        "softmax",
        lambda rng: [rng.normal(size=5), rng.normal(size=5)],
        lambda t, a, w: _weighted(t, ad.softmax(a), w),
    ),
    (
        "time_diff",
        lambda rng: [rng.normal(size=(6, 3)), rng.normal(size=(5, 3))],
        lambda t, a, w: _weighted(t, ad.time_diff(a), w),
    ),
    (
        "pairwise_distance",
        lambda rng: [rng.normal(size=(4, 3)), rng.normal(size=(2, 3)), rng.normal(size=(4, 2))],
        lambda t, f, p, w: _weighted(t, ad.pairwise_distance(f, p), w),
    ),
    (
        "minmax_invert_rows",
        lambda rng: [rng.uniform(0.0, 3.0, size=(4, 5)), rng.normal(size=(4, 5))],
        lambda t, a, w: _weighted(t, ad.minmax_invert_rows(a), w),
    ),
    (
        "row_normalize",
        lambda rng: [rng.uniform(0.1, 1.0, size=(4, 5)), rng.normal(size=(4, 5))],
        lambda t, a, w: _weighted(t, ad.row_normalize(a), w),
    ),
    (
        "affinity_chain",
        lambda rng: [rng.normal(size=(4, 3)), rng.normal(size=(3, 3)), rng.normal(size=(4, 3))],
        lambda t, f, p, w: _weighted(
            t, ad.row_normalize(ad.minmax_invert_rows(ad.pairwise_distance(f, p))), w
        ),
    ),
    (
        "affinity",
        lambda rng: [rng.normal(size=(4, 3)), rng.normal(size=(3, 3)), rng.normal(size=(4, 3))],
        lambda t, f, p, w: _weighted(t, ad.affinity(f, p), w),
    ),
    (
        # eps and tau inside the inputs' range: some entries floored, some jumps truncated
        "tmse",
        lambda rng: [rng.uniform(0.05, 1.0, size=(5, 4))],
        lambda t, a: ad.tmse(a, 0.1, 1.5),
    ),
    (
        "mean_latent",
        lambda rng: [
            rng.dirichlet(np.ones(3), size=4),
            rng.uniform(0.5, 2.0, size=3),
            *(rng.normal(size=shape) for shape in ((3, 2), (2, 2), 2, (2, 2), 2, 2)),
        ],
        lambda t, a, vp, p, w1, b1, w2, b2, w: _weighted(
            t, ad.mean_latent(a, vp, p, w1, b1, w2, b2), w
        ),
    ),
    (
        "softmax_affine",
        lambda rng: [rng.normal(size=3), rng.normal(size=(3, 4)), rng.normal(size=4),
                     rng.normal(size=4)],
        lambda t, v, w, b, r: _weighted(t, ad.softmax_affine(v, w, b), r),
    ),
    (
        "weighted_sum",
        lambda rng: [rng.normal(size=()), rng.normal(size=()), rng.normal(size=())],
        lambda t, a, b, c: ad.weighted_sum((a, b, c), (0.3, 0.7, 0.15)),
    ),
    (
        # probabilities away from the clip bounds; target entries 0 and 1
        "bce",
        lambda rng: [rng.uniform(0.05, 0.95, size=5)],
        lambda t, p: ad.bce(p, np.array([0.0, 0.0, 1.0, 0.0, 0.0]), PROB_EPS),
    ),
]


def run_gradcheck_case(name: str, seeds) -> float:
    """Worst finite-difference error for one registered case over seeds."""
    by_name = {case[0]: case for case in GRADCHECK_CASES}
    _, make_inputs, fn = by_name[name]
    worst = 0.0
    for seed in seeds:
        rng = np.random.default_rng(seed)
        inputs = make_inputs(rng)
        worst = max(worst, finite_diff_check(fn, inputs))
    return worst


def two_log_bce(probs, target):
    """Oracle: the activity BCE as two clamped logs per class, log(p)·y + log(1 - p)·(1 - y)."""
    lo, hi = PROB_EPS, 1.0 - PROB_EPS
    one_minus = ad.add(1.0, ad.scale(probs, -1.0))
    pos = ad.mul(ad.clamped_log(probs, lo, hi), target)
    neg = ad.mul(ad.clamped_log(one_minus, lo, hi), 1.0 - target)
    return ad.scale(ad.vsum(ad.add(pos, neg)), -1.0)


def unfused_linear(x, w, b):
    """Oracle: `autodiff.linear`, the input embedding, as two records: matmul -> add."""
    return ad.add(ad.matmul(x, w), b)


def unfused_affinity(f, p):
    """Oracle: `autodiff.affinity` as three records, distance -> min-max
    inversion -> row normalisation."""
    return ad.row_normalize(ad.minmax_invert_rows(ad.pairwise_distance(f, p)))


def unfused_tmse(affinity, truncation):
    """Oracle: `losses.tmse_loss` (T >= 2) as eight records."""
    t, n = affinity.value.shape
    logs = ad.log(ad.clamp(affinity, LOG_EPS, None))
    delta = ad.absval(ad.time_diff(logs))
    trunc = ad.clamp(delta, None, float(truncation))
    return ad.scale(ad.vsum(ad.mul(trunc, trunc)), 1.0 / (t * n))


def unfused_mean_latent(a, vp, p, w1, b1, w2, b2):
    """Oracle: `autodiff.mean_latent` as eleven records."""
    hidden = ad.relu(ad.add(ad.matmul(a, ad.matmul(p, w1)), b1))
    g0 = ad.matmul(ad.scale(vp, 1.0 / a.value.shape[0]), p)
    hidden_mean = ad.scale(ad.axis0_sum(hidden), 1.0 / hidden.value.shape[0])
    return ad.add(g0, ad.add(ad.matmul(hidden_mean, w2), b2))


def unfused_softmax_affine(v, w, b):
    """Oracle: `autodiff.softmax_affine`, one activity head, as three records:
    matmul -> add -> softmax."""
    return ad.softmax(ad.add(ad.matmul(v, w), b))


def unfused_activity_loss(probs, target):
    """Oracle: `losses.activity_loss` as five records."""
    target = np.asarray(target, dtype=np.float64)
    likelihood = ad.add(ad.mul(probs, 2.0 * target - 1.0), 1.0 - target)
    return ad.scale(ad.vsum(ad.clamped_log(likelihood, PROB_EPS, 1.0 - PROB_EPS)), -1.0)


def unfused_total_loss(loss_p, loss_g, loss_smooth, cfg):
    """Oracle: `losses.total_loss` as five records: three `scale`s and two `add`s."""
    return ad.add(
        ad.add(ad.scale(loss_p, cfg.alpha), ad.scale(loss_g, 1.0 - cfg.alpha)),
        ad.scale(loss_smooth, cfg.smooth_weight),
    )


def brute_force_assignment_value(counts: np.ndarray) -> float:
    """Oracle: max total over all one-to-one injections (small matrices only)."""
    from itertools import permutations

    counts = np.asarray(counts, dtype=np.float64)
    n, m = counts.shape
    best = -np.inf
    if n <= m:
        for cols in permutations(range(m), n):
            best = max(best, sum(counts[i, c] for i, c in enumerate(cols)))
    else:
        for rows in permutations(range(n), m):
            best = max(best, sum(counts[r, j] for j, r in enumerate(rows)))
    return float(best)


def loop_runs(labels, keep) -> list[tuple[int, int, int]]:
    """Oracle: maximal constant-label runs over kept frames, one frame at a time."""
    segments = []
    start = None
    current = None
    for t in range(len(labels) + 1):
        inside = t < len(labels) and keep[t]
        label = labels[t] if inside else None
        if start is not None and (not inside or label != current):
            segments.append((int(current), start, t))
            start = None
        if inside and start is None:
            start = t
            current = label
    return segments


def add_at_contingency(pred, gt) -> np.ndarray:
    """Oracle: cluster x action overlap counts accumulated with `np.add.at`."""
    pred = np.asarray(pred, dtype=np.int64)
    gt = np.asarray(gt, dtype=np.int64)
    cluster_ids = np.unique(pred)
    action_ids = np.unique(gt)
    counts = np.zeros((cluster_ids.size, action_ids.size), dtype=np.int64)
    np.add.at(counts, (np.searchsorted(cluster_ids, pred), np.searchsorted(action_ids, gt)), 1)
    return counts


def per_video_viterbi(affinity, ordering, column_ids) -> np.ndarray:
    """Oracle: `inference.viterbi_decode` as one video's recursion on Python floats."""
    ordering = np.asarray(ordering, dtype=np.int64)
    column_ids = np.asarray(column_ids, dtype=np.int64)
    col_of = {int(pid): j for j, pid in enumerate(column_ids)}
    cols = np.array([col_of[int(pid)] for pid in ordering])
    a = np.asarray(affinity, dtype=np.float64)
    emit = np.log(np.maximum(a[:, cols], 1e-12)).tolist()  # T x K in ordering order
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


def split_runs(labels, keep) -> list[tuple[int, int, int]]:
    """Oracle: maximal constant-label runs of one video over kept frames, from
    array boundaries."""
    labels = np.asarray(labels)
    keep = np.asarray(keep, dtype=bool)
    split = ~keep[1:] | ~keep[:-1] | (labels[1:] != labels[:-1])
    starts = np.flatnonzero(keep & np.concatenate(([True], split)))
    ends = np.flatnonzero(keep & np.concatenate((split, [True]))) + 1
    return list(zip(labels[starts].tolist(), starts.tolist(), ends.tolist()))


def f1_segments(mapped_pred, gt, keep) -> float:
    """One video's segment F1 after matching, over the frames where `keep` is
    true, through the kernel of `matching.corpus_f1`."""
    mapped, flat = matching._flat([matching.VideoEval("", 0, mapped_pred, gt)], [mapped_pred])
    return float(matching._segment_f1(mapped, flat, np.asarray(keep, dtype=bool))[0])


def per_video_f1(mapped_pred, gt, keep) -> float:
    """Oracle: `f1_segments` as a loop over one video's segments."""
    mapped_pred = np.asarray(mapped_pred, dtype=np.int64)
    gt = np.asarray(gt, dtype=np.int64)
    pred_segs = split_runs(mapped_pred, keep)
    gt_segs = split_runs(gt, keep)
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


def apply_assignment(pred, mapping) -> np.ndarray:
    """Oracle: cluster ids mapped to matched action ids one cluster at a time;
    unmatched clusters become 0, -1 stays -1."""
    pred = np.asarray(pred, dtype=np.int64)
    mapped = np.where(pred == -1, -1, 0)
    for cluster, action in mapping.items():
        mapped[pred == cluster] = action
    return mapped


_UNIT_OF = {
    "video": lambda v: (v.video_id, 0),
    "activity": lambda v: (str(v.activity), v.activity),
    "global": lambda v: ("corpus", 0),
}


def per_unit_match(videos, scope: str) -> matching.MatchResult:
    """Oracle: `matching.match_at_level` with one contingency per unit and one
    assignment and MoF per video."""
    units: dict = {}
    for v in videos:
        units.setdefault(_UNIT_OF[scope](v), []).append(v)
    reports = []
    mapped: dict = {}
    per_video_mof: dict = {}
    for (unit, _), group in sorted(units.items(), key=lambda item: item[0][1]):
        keeps = [v.evaluated() for v in group]
        pred = np.concatenate([np.asarray(v.pred)[k] for v, k in zip(group, keeps)])
        gt = np.concatenate([np.asarray(v.gt)[k] for v, k in zip(group, keeps)])
        rep = matching._report(scope, unit, matching.build_contingency(pred, gt))
        reports.append(rep)
        assignment = dict(rep.assignment)
        for v, keep in zip(group, keeps):
            mapped[v.video_id] = labels = apply_assignment(v.pred, assignment)
            n_eval = int(keep.sum())
            n_corr = int(np.sum((labels == np.asarray(v.gt)) & keep))
            per_video_mof[v.video_id] = n_corr / n_eval if n_eval else float("nan")
    return matching.MatchResult(
        scope=scope,
        reports=reports,
        mof=sum(r.n_correct for r in reports) / sum(r.n_evaluated for r in reports),
        per_video_mof=per_video_mof,
        mapped=mapped,
    )
