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
`grad is None`.  On a tape made with `recording=False` no Var needs a
gradient: it keeps no backward rules, and each intermediate array is
freed as soon as nothing else refers to it.

`pairwise_distance` works in Gram form: its memory grows with
T*N + (T+N)*D rather than T*N*D, and its arithmetic runs as matrix products.
"""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

# Keeps the gradient of the distance finite at coincident points.
DISTANCE_EPS = 1e-12


class Var:
    """A node in the computation graph: a float64 array and its adjoint.

    `needs_grad` says whether a gradient can flow into this Var; it is
    false on a non-recording tape.  `grad` is None until the first
    adjoint arrives.  Its buffer then takes the value's memory order, as
    `np.empty_like` gives, rather than the order of the first adjoint:
    numpy's axis reductions follow memory order, so a buffer laid out
    differently would change the last bits of the gradients read from it.
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

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return add(self, scale(_coerce(other, self.tape), -1.0))

    def __rsub__(self, other):
        return add(_coerce(other, self.tape), scale(self, -1.0))

    def __neg__(self):
        return scale(self, -1.0)

    def __repr__(self):
        return f"Var(shape={self.value.shape})"


class Tape:
    """Ordered record of primitive applications (a Wengert list).

    Single-writer: a tape must not be shared across concurrent forward
    passes.  backward() consumes the records, so it runs once per tape.
    Only primitives with an operand that needs a gradient are recorded.
    Each record's closure refers back to Vars that refer to the tape, so
    a recording tape that is never run is freed only by the cyclic
    garbage collector.  A tape made with `recording=False` is for
    forward-only passes: none of its Vars needs a gradient, so it records
    nothing and holds no cycles.
    """

    def __init__(self, recording: bool = True):
        self.recording = recording
        self._records: list[tuple[Var, Callable[[np.ndarray], None]]] = []

    def var(self, value) -> Var:
        """Wrap an array as a leaf of this tape that needs a gradient if it records."""
        return Var(value, self, self.recording)

    def const(self, value) -> Var:
        """Wrap an array as a leaf of this tape that needs no gradient."""
        return Var(value, self, False)

    def _record(self, value: np.ndarray, operands, backward) -> Var:
        """The output Var of a primitive; keeps `backward` only if an operand needs a gradient."""
        out = Var(value, self, self.recording and any(v.needs_grad for v in operands))
        if out.needs_grad:
            self._records.append((out, backward))
        return out

    def backward(self, out: Var) -> None:
        """Propagate adjoints from scalar `out` back to every leaf that needs one."""
        if not self.recording:
            raise ValueError("backward requires a recording tape")
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
    if not np.all(np.isfinite(value)):
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
    c = float(c)

    def bw(g):
        a.accumulate(g * c)

    return a.tape._record(_checked("scale", a.value * c), (a,), bw)


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


def vsum(a: Var) -> Var:
    def bw(g):
        a.accumulate(g)

    return a.tape._record(_checked("vsum", np.asarray(a.value.sum())), (a,), bw)


def axis0_sum(a: Var) -> Var:
    """Sum a 2D array over its first (time) axis."""

    def bw(g):
        a.accumulate(g[None, :])

    return a.tape._record(_checked("axis0_sum", a.value.sum(axis=0)), (a,), bw)


def axis0_mean(a: Var) -> Var:
    return scale(axis0_sum(a), 1.0 / a.value.shape[0])


def relu(a: Var) -> Var:
    mask = a.value > 0.0

    def bw(g):
        a.accumulate(g * mask)

    return a.tape._record(_checked("relu", np.where(mask, a.value, 0.0)), (a,), bw)


def log(a: Var) -> Var:
    if np.any(a.value <= 0.0):
        raise ValueError("log requires strictly positive input; clamp first")

    def bw(g):
        a.accumulate(g / a.value)

    return a.tape._record(_checked("log", np.log(a.value)), (a,), bw)


def clamp(a: Var, lo: float | None = None, hi: float | None = None) -> Var:
    """Clip to [lo, hi]; gradient is zero outside the open interval."""
    out_val = np.clip(a.value, lo, hi)
    mask = np.ones_like(a.value, dtype=bool)
    if lo is not None:
        mask &= a.value > lo
    if hi is not None:
        mask &= a.value < hi

    def bw(g):
        a.accumulate(g * mask)

    return a.tape._record(_checked("clamp", out_val), (a,), bw)


def clamped_log(a: Var, lo: float, hi: float | None = None) -> Var:
    """log of values clipped to [lo, hi], with a saturating derivative.

    Unlike clamp+log, the gradient stays 1/clip(x) outside the interval so
    saturated probabilities keep pulling back toward it.
    """
    clipped = np.clip(a.value, lo, hi)

    def bw(g):
        a.accumulate(g / clipped)

    return a.tape._record(_checked("clamped_log", np.log(clipped)), (a,), bw)


def absval(a: Var) -> Var:
    sign = np.sign(a.value)

    def bw(g):
        a.accumulate(g * sign)

    return a.tape._record(_checked("absval", np.abs(a.value)), (a,), bw)


def softmax(a: Var) -> Var:
    """Softmax over a 1D vector of logits."""
    if a.value.ndim != 1:
        raise ValueError("softmax expects a 1D vector")
    shifted = a.value - a.value.max()
    e = np.exp(shifted)
    p = e / e.sum()

    def bw(g):
        a.accumulate(p * (g - float(g @ p)))

    return a.tape._record(_checked("softmax", p), (a,), bw)


def time_diff(a: Var) -> Var:
    """Consecutive-row differences of a 2D array: out[t] = a[t+1] - a[t]."""
    if a.value.shape[0] < 2:
        raise ValueError("time_diff needs at least two rows")

    def bw(g):
        ga = np.zeros_like(a.value)
        ga[1:] += g
        ga[:-1] -= g
        a.accumulate(ga)

    return a.tape._record(_checked("time_diff", a.value[1:] - a.value[:-1]), (a,), bw)


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

    return f.tape._record(_checked("pairwise_distance", dist), (f, p), bw)


def minmax_invert_rows(d: Var) -> Var:
    """Map each row to 1 - (x - min)/(max - min).

    Constant rows become all-ones (uniform affinity after normalization)
    and contribute no gradient.  Gradient flows only through the selected
    min/max entries; ties select the lowest index.
    """
    if d.value.ndim != 2:
        raise ValueError("minmax_invert_rows expects a 2D array")
    rows = np.arange(d.value.shape[0])
    i_min = np.argmin(d.value, axis=1)
    i_max = np.argmax(d.value, axis=1)
    mn = d.value[rows, i_min]
    mx = d.value[rows, i_max]
    rng = mx - mn
    degenerate = rng <= 0.0
    safe_rng = np.where(degenerate, 1.0, rng)
    out_val = 1.0 - (d.value - mn[:, None]) / safe_rng[:, None]
    out_val[degenerate] = 1.0

    def bw(g):
        g = np.where(degenerate[:, None], 0.0, g)
        gd = -g / safe_rng[:, None]
        via_min = (g * out_val).sum(axis=1) / safe_rng
        via_max = (g * (1.0 - out_val)).sum(axis=1) / safe_rng
        np.add.at(gd, (rows, i_min), via_min)
        np.add.at(gd, (rows, i_max), via_max)
        d.accumulate(gd)

    return d.tape._record(_checked("minmax_invert_rows", out_val), (d,), bw)


def row_normalize(a: Var) -> Var:
    """Divide each row by its sum so rows form distributions."""
    if a.value.ndim != 2:
        raise ValueError("row_normalize expects a 2D array")
    if np.any(a.value < 0.0):
        raise ValueError("row_normalize requires non-negative entries")
    sums = a.value.sum(axis=1)
    if np.any(sums <= 0.0):
        raise ValueError("row_normalize: zero-sum row")
    out_val = a.value / sums[:, None]

    def bw(g):
        a.accumulate((g - (g * out_val).sum(axis=1, keepdims=True)) / sums[:, None])

    return a.tape._record(_checked("row_normalize", out_val), (a,), bw)


# ---------------------------------------------------------------------------
# gradient verification


def finite_diff_check(
    fn: Callable[..., Var],
    inputs: Sequence[np.ndarray],
    h: float = 1e-5,
) -> float:
    """Compare tape gradients of a scalar-valued `fn` to central differences.

    `fn(tape, *vars)` must build a scalar Var from the wrapped inputs.
    Returns max over coordinates of |analytic - fd| / max(1, |fd|).
    """
    inputs = [np.array(x, dtype=np.float64) for x in inputs]
    tape = Tape()
    wrapped = [tape.var(x) for x in inputs]
    out = fn(tape, *wrapped)
    if out.value.shape != ():
        raise ValueError("finite_diff_check requires a scalar-valued function")
    if not np.isfinite(out.value):
        raise FloatingPointError("non-finite forward value in finite_diff_check")
    tape.backward(out)
    analytic = [np.zeros_like(v.value) if v.grad is None else v.grad for v in wrapped]

    def evaluate() -> float:
        t = Tape(recording=False)
        return float(fn(t, *[t.var(x) for x in inputs]).value)

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
