"""Shared gradient-check scenarios and the assignment, run and contingency
oracles used by unit and acceptance tests."""
from __future__ import annotations

import numpy as np

from protoseg import autodiff as ad
from protoseg.losses import LOG_EPS, PROB_EPS


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
        worst = max(worst, ad.finite_diff_check(fn, inputs))
    return worst


def two_log_bce(probs, target):
    """Oracle: the activity BCE as two clamped logs per class, log(p)·y + log(1 - p)·(1 - y)."""
    lo, hi = PROB_EPS, 1.0 - PROB_EPS
    one_minus = ad.add(1.0, ad.scale(probs, -1.0))
    pos = ad.mul(ad.clamped_log(probs, lo, hi), target)
    neg = ad.mul(ad.clamped_log(one_minus, lo, hi), 1.0 - target)
    return ad.scale(ad.vsum(ad.add(pos, neg)), -1.0)


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
    hidden = ad.relu(ad.matmul(a, ad.matmul(p, w1)) + b1)
    g0 = ad.matmul(ad.scale(vp, 1.0 / a.value.shape[0]), p)
    hidden_mean = ad.scale(ad.axis0_sum(hidden), 1.0 / hidden.value.shape[0])
    return g0 + (ad.matmul(hidden_mean, w2) + b2)


def unfused_softmax_affine(v, w, b):
    """Oracle: `autodiff.softmax_affine`, one activity head, as three records:
    matmul -> add -> softmax."""
    return ad.softmax(ad.matmul(v, w) + b)


def unfused_activity_loss(probs, target):
    """Oracle: `losses.activity_loss` as five records."""
    target = np.asarray(target, dtype=np.float64)
    likelihood = ad.add(ad.mul(probs, 2.0 * target - 1.0), 1.0 - target)
    return ad.scale(ad.vsum(ad.clamped_log(likelihood, PROB_EPS, 1.0 - PROB_EPS)), -1.0)


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
