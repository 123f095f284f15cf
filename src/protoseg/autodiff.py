"""Tape-based reverse-mode differentiation over dense float64 arrays.

Only the primitives needed by the prototype segmentation network are
provided.  Every primitive checks its output for NaN/Inf, records a
backward rule on the tape owning its operands, and treats piecewise
selectors (min/max, clamp, abs, relu) as fixed at their forward-time
choice, with ties resolved toward the lowest index.

Gradient work is done only where a gradient can reach a leaf made with
`Tape.var`, such as a parameter.  Constant leaves (`Tape.const`, and the
plain arrays and numbers that primitives coerce) need no gradient, and a
primitive's output needs one iff one of its operands does.  A primitive
whose operands all need none records nothing, and each backward rule
computes only the operand gradients that are needed.  `grad` buffers are
allocated on first accumulation, so a Var that no gradient reaches keeps
`grad is None`.  A forward pass whose leaves are all constants, as in
inference, thus keeps no backward rules, and each intermediate array is
freed as soon as nothing else refers to it.

`pairwise_distance` works in Gram form: its memory grows with
T*N + (T+N)*D rather than T*N*D, and its arithmetic runs as matrix products.

`linear`, `affinity`, `tmse`, `mean_latent`, `softmax_affine`, `bce` and
`weighted_sum` are fused chains: each is one tape record whose forward
and backward run the arithmetic of the primitives it replaces, in the
same order.  Where several of the chain's records add into one operand,
the fused backward adds in their order, so its value and gradients are
bitwise those of the chain.  A training video takes 10 records, the last
of them `losses.total_loss`'s `weighted_sum`.

`_affine` is the one frame embedding x·W + b: `linear` runs it on the
tape, and `model.infer` and `model.infer_affinity` run it on each row
block, in float32 when given a float32 W.

`src/` no longer calls the standalone primitives `pairwise_distance`,
`minmax_invert_rows`, `row_normalize`, `matmul`, `add`, `mul`, `scale`,
`relu`, `softmax`, `log`, `clamp`, `clamped_log`, `absval`, `time_diff`
and `vsum`.  They stay because the benchmark's tracer wraps them by name and
the tests compose them into the unfused chains that the fused records
are checked against bitwise.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

# Keeps the gradient of the distance finite at coincident points.
DISTANCE_EPS = 1e-12


class Var:
    """A node in the computation graph: a float64 array and its adjoint.

    `needs_grad` says whether a gradient can flow into this Var.  `grad`
    is None until the first adjoint arrives.  Its buffer then takes the
    value's memory order, as `np.empty_like` gives, rather than the order
    of the first adjoint: numpy's axis reductions follow memory order, so
    a buffer laid out differently would change the last bits of the
    gradients read from it.
    """

    __slots__ = ("value", "grad", "tape", "needs_grad")

    def __init__(self, value, tape: "Tape", needs_grad: bool):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.tape = tape
        self.needs_grad = needs_grad

    @property
    def shape(self):
        return self.value.shape

    def accumulate(self, g) -> None:
        """Add adjoint `g` (broadcast to the value's shape) into `grad`."""
        if self.grad is None:
            self.grad = np.empty_like(self.value)
            self.grad[...] = g
        else:
            self.grad += g

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __repr__(self):
        return f"Var(shape={self.value.shape})"


class Tape:
    """Ordered record of primitive applications (a Wengert list).

    Single-writer: a tape must not be shared across concurrent forward
    passes.  backward() consumes the records, so it runs once per tape.
    Only primitives with an operand that needs a gradient are recorded.
    Each record's closure refers back to Vars that refer to the tape, so
    a tape with records that is never run is freed only by the cyclic
    garbage collector.
    """

    def __init__(self):
        self._records: list[tuple[Var, Callable[[np.ndarray], None]]] = []

    def var(self, value) -> Var:
        """Wrap an array as a leaf of this tape that needs a gradient."""
        return Var(value, self, True)

    def const(self, value) -> Var:
        """Wrap an array as a leaf of this tape that needs no gradient."""
        return Var(value, self, False)

    def _record(self, value: np.ndarray, operands, backward) -> Var:
        """The output Var of a primitive; keeps `backward` only if an operand needs a gradient."""
        needs_grad = False
        for v in operands:
            if v.needs_grad:
                needs_grad = True
                break
        out = Var(value, self, needs_grad)
        if needs_grad:
            self._records.append((out, backward))
        return out

    def backward(self, out: Var) -> None:
        """Propagate adjoints from scalar `out` back to every leaf that needs one."""
        if not out.needs_grad:
            raise ValueError("backward requires an output that needs a gradient")
        if out.value.shape != ():
            raise ValueError("backward requires a scalar output")
        out.grad = np.ones_like(out.value)
        while self._records:
            var, bw = self._records.pop()
            if var.grad is not None:
                bw(var.grad)


def _coerce(x, tape: Tape) -> Var:
    return x if isinstance(x, Var) else tape.const(x)


def _checked(name: str, value: np.ndarray) -> np.ndarray:
    if not np.isfinite(value).all():
        raise FloatingPointError(f"non-finite values produced by {name}")
    return value


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _unary(name: str, a: Var, kernel, *args) -> Var:
    """Record a one-operand primitive from its kernel's value and adjoint map."""
    value, vjp = kernel(a.value, *args)
    return a.tape._record(_checked(name, value), (a,), lambda g: a.accumulate(vjp(g)))


# ---------------------------------------------------------------------------
# kernels
#
# A kernel holds one primitive's arithmetic on plain arrays.  It returns the
# output value and the map from an output adjoint to the input adjoint,
# which may be any array that broadcasts to the input's shape.  The
# standalone primitives and the fused records run the same kernels.


def _scale_kernel(x, c):
    c = float(c)
    return x * c, lambda g: g * c


def _vsum_kernel(x):
    return np.asarray(x.sum()), lambda g: g


def _square_kernel(x):
    """x * x; the adjoint is `mul(x, x)`'s: g * x, plus g * x for the second operand."""

    def vjp(g):
        gx = g * x
        gx += g * x
        return gx

    return x * x, vjp


def _relu_kernel(x):
    mask = x > 0.0
    return np.where(mask, x, 0.0), lambda g: g * mask


def _softmax_kernel(x):
    shifted = x - x.max()
    e = np.exp(shifted)
    p = e / e.sum()
    return p, lambda g: p * (g - float(g @ p))


def _log_kernel(x):
    return np.log(x), lambda g: g / x


def _clip(x, lo, hi):
    """np.clip's bits, NaN included, for one-sided bounds and for two nonzero ones."""
    if lo is not None:
        x = np.maximum(x, lo)
    if hi is not None:
        x = np.minimum(x, hi)
    return x


def _clamped_log_kernel(x, lo, hi):
    clipped = _clip(x, lo, hi)
    return np.log(clipped), lambda g: g / clipped


def _clamp_kernel(x, lo, hi):
    mask = True
    if lo is not None:
        mask = x > lo
    if hi is not None:
        mask = mask & (x < hi)
    return _clip(x, lo, hi), lambda g: g * mask


def _absval_kernel(x):
    sign = np.sign(x)
    return np.abs(x), lambda g: g * sign


def _time_diff_kernel(x):
    if x.shape[0] < 2:
        raise ValueError("time_diff needs at least two rows")

    def vjp(g):
        gx = np.zeros_like(x)
        gx[1:] += g
        gx[:-1] -= g
        return gx

    return x[1:] - x[:-1], vjp


def _distance_kernel(f: Var, p: Var):
    """Gram-form distances of `f`'s rows to `p`'s rows, and a backward rule
    that accumulates into whichever of `f` and `p` needs a gradient."""
    if f.value.ndim != 2 or p.value.ndim != 2:
        raise ValueError("pairwise_distance expects 2D operands")
    if f.value.shape[1] != p.value.shape[1]:
        raise ValueError(
            f"pairwise_distance dimension mismatch: {f.value.shape} vs {p.value.shape}"
        )
    fv, pv = f.value, p.value
    sq = (fv * fv).sum(axis=1)[:, None] - 2.0 * (fv @ pv.T) + (pv * pv).sum(axis=1)
    dist = np.sqrt(np.maximum(sq, 0.0) + DISTANCE_EPS)

    def bw(g):
        w = g / dist
        if f.needs_grad:
            f.accumulate(w.sum(axis=1)[:, None] * fv - w @ pv)
        if p.needs_grad:
            p.accumulate(w.sum(axis=0)[:, None] * pv - w.T @ fv)

    return dist, bw


def _minmax_invert_kernel(d):
    rows = np.arange(d.shape[0])
    i_min = np.argmin(d, axis=1)
    i_max = np.argmax(d, axis=1)
    mn = d[rows, i_min]
    mx = d[rows, i_max]
    rng = mx - mn
    degenerate = rng <= 0.0
    safe_rng = np.where(degenerate, 1.0, rng)
    out = 1.0 - (d - mn[:, None]) / safe_rng[:, None]
    out[degenerate] = 1.0

    def vjp(g):
        g = np.where(degenerate[:, None], 0.0, g)
        gd = -g / safe_rng[:, None]
        via_min = (g * out).sum(axis=1) / safe_rng
        via_max = (g * (1.0 - out)).sum(axis=1) / safe_rng
        # one (row, argmin) and one (row, argmax) pair per row: no index
        # repeats within either add, so `+=` sums as `np.add.at` would
        gd[rows, i_min] += via_min
        gd[rows, i_max] += via_max
        return gd

    return out, vjp


def _row_normalize_kernel(a):
    sums = a.sum(axis=1)
    out = a / sums[:, None]
    return out, lambda g: (g - (g * out).sum(axis=1, keepdims=True)) / sums[:, None]


# ---------------------------------------------------------------------------
# elementwise and linear primitives


def add(a, b) -> Var:
    tape = a.tape if isinstance(a, Var) else b.tape
    a, b = _coerce(a, tape), _coerce(b, tape)

    def bw(g):
        if a.needs_grad:
            a.accumulate(_unbroadcast(g, a.value.shape))
        if b.needs_grad:
            b.accumulate(_unbroadcast(g, b.value.shape))

    return tape._record(_checked("add", a.value + b.value), (a, b), bw)


def mul(a, b) -> Var:
    tape = a.tape if isinstance(a, Var) else b.tape
    a, b = _coerce(a, tape), _coerce(b, tape)

    def bw(g):
        if a.needs_grad:
            a.accumulate(_unbroadcast(g * b.value, a.value.shape))
        if b.needs_grad:
            b.accumulate(_unbroadcast(g * a.value, b.value.shape))

    return tape._record(_checked("mul", a.value * b.value), (a, b), bw)


def scale(a: Var, c: float) -> Var:
    return _unary("scale", a, _scale_kernel, c)


def matmul(a: Var, b: Var) -> Var:
    """Matrix product for the (2D,2D) and (1D,2D) cases."""
    if a.value.ndim not in (1, 2) or b.value.ndim != 2:
        raise ValueError("matmul supports 2Dx2D and 1Dx2D operands")
    if a.value.shape[-1] != b.value.shape[0]:
        raise ValueError(
            f"matmul dimension mismatch: {a.value.shape} x {b.value.shape}"
        )

    def bw(g):
        if a.value.ndim == 2:
            if a.needs_grad:
                a.accumulate(g @ b.value.T)
            if b.needs_grad:
                b.accumulate(a.value.T @ g)
        else:
            if a.needs_grad:
                a.accumulate(b.value @ g)
            if b.needs_grad:
                b.accumulate(np.outer(a.value, g))

    return a.tape._record(_checked("matmul", a.value @ b.value), (a, b), bw)


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x·W + b in float64, the frame embedding of training and inference: x·W in
    W's dtype, with x cast to it, promoted before the bias is added in place."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails in `_checked`
        product = x.astype(w.dtype, copy=False) @ w
    value = _checked("matmul", product).astype(np.float64, copy=False)
    value += b
    return _checked("add", value)


def linear(x: Var, w: Var, b: Var) -> Var:
    """x·W + b for a 2D x and a bias of W's width, as one record: the chain
    matmul -> add, run by `_affine`."""
    if x.value.ndim != 2 or w.value.ndim != 2 or x.value.shape[1] != w.value.shape[0]:
        raise ValueError(f"linear needs matching matrices: {x.value.shape} x {w.value.shape}")
    value = _affine(x.value, w.value, b.value)

    def bw(g):
        if b.needs_grad:
            b.accumulate(_unbroadcast(g, b.value.shape))
        if x.needs_grad:
            x.accumulate(g @ w.value.T)
        if w.needs_grad:
            w.accumulate(x.value.T @ g)

    return x.tape._record(value, (x, w, b), bw)


def weighted_sum(terms, weights) -> Var:
    """sum_i terms[i]·weights[i] over same-shaped Vars, added left to right, as
    one record: a `scale` of each term, each added to the sum of those before.

    Each operand's adjoint is g·w, as its `scale` record gives; the backward
    adds them last term first, as the chain's records run.
    """
    scaled = [_scale_kernel(t.value, w) for t, w in zip(terms, weights)]
    value = scaled[0][0]
    for term_value, _ in scaled[1:]:
        value = value + term_value

    def bw(g):
        for t, (_, vjp) in zip(reversed(terms), reversed(scaled)):
            if t.needs_grad:
                t.accumulate(vjp(g))

    return terms[0].tape._record(_checked("add", value), terms, bw)


def vsum(a: Var) -> Var:
    return _unary("vsum", a, _vsum_kernel)


def axis0_sum(a: Var) -> Var:
    """Sum a 2D array over its first (time) axis."""

    def bw(g):
        a.accumulate(g[None, :])

    return a.tape._record(_checked("axis0_sum", a.value.sum(axis=0)), (a,), bw)


def relu(a: Var) -> Var:
    return _unary("relu", a, _relu_kernel)


def log(a: Var) -> Var:
    if np.any(a.value <= 0.0):
        raise ValueError("log requires strictly positive input; clamp first")
    return _unary("log", a, _log_kernel)


def clamp(a: Var, lo: float | None = None, hi: float | None = None) -> Var:
    """Clip to [lo, hi]; gradient is zero outside the open interval."""
    return _unary("clamp", a, _clamp_kernel, lo, hi)


def clamped_log(a: Var, lo: float, hi: float | None = None) -> Var:
    """log of values clipped to [lo, hi], with a saturating derivative.

    Unlike clamp+log, the gradient stays 1/clip(x) outside the interval so
    saturated probabilities keep pulling back toward it.
    """
    return _unary("clamped_log", a, _clamped_log_kernel, lo, hi)


def absval(a: Var) -> Var:
    return _unary("absval", a, _absval_kernel)


def softmax(a: Var) -> Var:
    """Softmax over a 1D vector of logits."""
    if a.value.ndim != 1:
        raise ValueError("softmax expects a 1D vector")
    return _unary("softmax", a, _softmax_kernel)


def time_diff(a: Var) -> Var:
    """Consecutive-row differences of a 2D array: out[t] = a[t+1] - a[t]."""
    return _unary("time_diff", a, _time_diff_kernel)


def tmse(a: Var, eps: float, tau: float) -> Var:
    """Truncated mean squared error of consecutive log differences.

    sum(min(|log max(a[t+1], eps) - log max(a[t], eps)|, tau)^2) / a.size,
    as one record: the chain clamp -> log -> time_diff -> absval -> clamp
    -> mul -> vsum -> scale, run on that chain's kernels.  Jumps of tau or
    more contribute tau^2 with zero gradient; entries at or below eps are
    floored to eps and get zero gradient.  Needs eps > 0 and tau > 0.
    """
    if not (eps > 0.0 and tau > 0.0):
        raise ValueError(f"tmse needs eps > 0 and tau > 0, got {eps!r} and {tau!r}")
    floored, floor_vjp = _clamp_kernel(a.value, eps, None)
    # later stages stay finite: logs of values >= eps > 0, jumps cut at tau
    _checked("clamp", floored)
    logs, log_vjp = _log_kernel(floored)
    jumps, diff_vjp = _time_diff_kernel(logs)
    magnitudes, abs_vjp = _absval_kernel(jumps)
    truncated, truncate_vjp = _clamp_kernel(magnitudes, None, tau)
    squares, square_vjp = _square_kernel(truncated)
    total, sum_vjp = _vsum_kernel(squares)
    value, scale_vjp = _scale_kernel(total, 1.0 / a.value.size)

    def bw(g):
        g = truncate_vjp(square_vjp(sum_vjp(scale_vjp(g))))
        a.accumulate(floor_vjp(log_vjp(diff_vjp(abs_vjp(g)))))

    return a.tape._record(value, (a,), bw)


# ---------------------------------------------------------------------------
# affinity-specific primitives


def pairwise_distance(f: Var, p: Var) -> Var:
    """Euclidean distance between every row of `f` (TxD) and every row of `p` (NxD).

    Gram form: ||f||^2 - 2 f.p + ||p||^2, so both passes are matrix
    products and no T x N x D difference tensor is built.  Cancellation
    can leave near-coincident pairs slightly negative, so the form is
    clamped at 0; the distance then errs by at most about
    sqrt((D + 2) * eps_mach * (||f||^2 + ||p||^2)).  A small epsilon
    inside the square root keeps the gradient finite at coincident points.
    """
    dist, bw = _distance_kernel(f, p)
    return f.tape._record(_checked("pairwise_distance", dist), (f, p), bw)


def minmax_invert_rows(d: Var) -> Var:
    """Map each row to 1 - (x - min)/(max - min).

    Constant rows become all-ones (uniform affinity after normalization)
    and contribute no gradient.  Gradient flows only through the selected
    min/max entries; ties select the lowest index.
    """
    if d.value.ndim != 2:
        raise ValueError("minmax_invert_rows expects a 2D array")
    return _unary("minmax_invert_rows", d, _minmax_invert_kernel)


def row_normalize(a: Var) -> Var:
    """Divide each row by its sum so rows form distributions."""
    if a.value.ndim != 2:
        raise ValueError("row_normalize expects a 2D array")
    if np.any(a.value < 0.0):
        raise ValueError("row_normalize requires non-negative entries")
    if np.any(a.value.sum(axis=1) <= 0.0):
        raise ValueError("row_normalize: zero-sum row")
    return _unary("row_normalize", a, _row_normalize_kernel)


def affinity(f: Var, p: Var) -> Var:
    """Row-stochastic frame-to-prototype affinity, as one record.

    row_normalize(minmax_invert_rows(pairwise_distance(f, p))), run on
    those primitives' kernels: each row is the min-max inverted distances
    of one frame, divided by their sum.
    """
    dist, dist_bw = _distance_kernel(f, p)
    # later stages stay finite: inversion maps each row into [0, 1], 1 at its minimum
    _checked("pairwise_distance", dist)
    inverted, invert_vjp = _minmax_invert_kernel(dist)
    if not (f.needs_grad or p.needs_grad):
        dist = dist_bw = None  # no backward will read them: free the distances, as in inference
    value, normalize_vjp = _row_normalize_kernel(inverted)
    # each stage's adjoint is built from C-ordered arrays only, so it has the
    # layout `Var.accumulate` would copy it into between two records
    return f.tape._record(value, (f, p), lambda g: dist_bw(invert_vjp(normalize_vjp(g))))


# ---------------------------------------------------------------------------
# the classifier side of a training video


def mean_latent(a: Var, vp: Var, p: Var, w1: Var, b1: Var, w2: Var, b2: Var) -> Var:
    """Time average of A·P + relu(A·(P·W1) + b1)·W2 + b2, as one record.

    `vp` is the time sum of `a`, so A·P averages to (vp/T)·P.  Runs the
    chain matmul(P, W1) -> matmul(A, .) -> add b1 -> relu, scale(vp, 1/T)
    -> matmul(., P), axis0_sum -> scale(1/T) -> matmul(., W2) -> add b2 ->
    add.  Its backward adds into P the (vp/T)·P term before the P·W1 term,
    as the chain's records do.
    """
    av, pv, w1v, w2v = a.value, p.value, w1.value, w2.value
    c = 1.0 / av.shape[0]
    p_w1 = _checked("matmul", pv @ w1v)
    pre = _checked("matmul", av @ p_w1)
    pre += b1.value
    _checked("add", pre)
    # relu, and the 1/T scale of a finite sum, keep finite values finite.
    # The relu overwrites `pre`, with +0.0 where pre <= 0, as `_relu_kernel` gives.
    mask = pre > 0.0
    np.copyto(pre, 0.0, where=~mask)
    hidden, relu_vjp = pre, lambda g: g * mask
    vp_mean, vp_vjp = _scale_kernel(vp.value, c)
    g0 = _checked("matmul", _checked("scale", vp_mean) @ pv)
    hidden_mean, mean_vjp = _scale_kernel(_checked("axis0_sum", hidden.sum(axis=0)), c)
    hb = _checked("add", _checked("matmul", hidden_mean @ w2v) + b2.value)
    value = _checked("add", g0 + hb)

    def bw(g):
        if b2.needs_grad:
            b2.accumulate(g)
        if w2.needs_grad:
            w2.accumulate(np.outer(hidden_mean, g))
        if p.needs_grad:
            p.accumulate(np.outer(vp_mean, g))
        if vp.needs_grad:
            vp.accumulate(vp_vjp(pv @ g))
        if not (a.needs_grad or p.needs_grad or w1.needs_grad or b1.needs_grad):
            return
        g_pre = relu_vjp(mean_vjp(w2v @ g)[None, :])
        if b1.needs_grad:
            b1.accumulate(g_pre.sum(axis=0))
        if a.needs_grad:
            a.accumulate(g_pre @ p_w1.T)
        if p.needs_grad or w1.needs_grad:
            g_p_w1 = av.T @ g_pre
            if p.needs_grad:
                p.accumulate(g_p_w1 @ w1v.T)
            if w1.needs_grad:
                w1.accumulate(pv.T @ g_p_w1)

    return a.tape._record(value, (a, vp, p, w1, b1, w2, b2), bw)


def softmax_affine(v: Var, w: Var, b: Var) -> Var:
    """softmax(v·W + b) for a vector v and a bias of W's width, as one record:
    the chain matmul -> add -> softmax."""
    if v.value.ndim != 1 or w.value.ndim != 2 or v.value.shape[0] != w.value.shape[0]:
        raise ValueError(f"softmax_affine needs a vector and a matching matrix: "
                         f"{v.value.shape} x {w.value.shape}")
    logits = _checked("add", _checked("matmul", v.value @ w.value) + b.value)
    # softmax of finite logits is finite
    probs, softmax_vjp = _softmax_kernel(logits)

    def bw(g):
        g = softmax_vjp(g)
        if b.needs_grad:
            b.accumulate(g)
        if v.needs_grad:
            v.accumulate(w.value @ g)
        if w.needs_grad:
            w.accumulate(np.outer(v.value, g))

    return v.tape._record(probs, (v, w, b), bw)


def bce(probs: Var, target: np.ndarray, eps: float) -> Var:
    """Binary cross-entropy summed over entries against a 0/1 `target`, as one record.

    -sum(log q) with q = p·(2y - 1) + (1 - y), each entry's likelihood of
    its target value, clipped to [eps, 1 - eps] inside the log with
    `clamped_log`'s saturating derivative: the chain mul -> add ->
    clamped_log -> vsum -> scale(-1).
    """
    sign = 2.0 * target - 1.0
    likelihood = _checked("mul", probs.value * sign)
    likelihood = _checked("add", likelihood + (1.0 - target))
    # the log of values clipped into [eps, 1 - eps] is finite, and so is its sum
    logs, log_vjp = _clamped_log_kernel(likelihood, eps, 1.0 - eps)
    total, sum_vjp = _vsum_kernel(logs)
    value, scale_vjp = _scale_kernel(total, -1.0)
    return probs.tape._record(
        value, (probs,), lambda g: probs.accumulate(log_vjp(sum_vjp(scale_vjp(g))) * sign)
    )
