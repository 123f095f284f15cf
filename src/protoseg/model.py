"""Prototype-bank segmentation network.

Frames are embedded per-frame, compared to a global bank of trainable
prototypes to form a row-stochastic affinity matrix, and summarized into
two video representations: time-summed affinities (V^p) and the time
average (V^g) of the reconstructed frames
g = A·P + relu(A·P·W1 + b1)·W2 + b2.  Each representation feeds its own
activity classifier head.  Only the mean of g is ever read, so it is
computed in reassociated form and g itself is never built; the latent
path then costs T·N·d + N·d² per video instead of T·N·d + 2·T·d².

A training video records 6 tape operations: the fused embedding x·W + b
(`ad.linear`), the fused affinity, V^p's time sum, the fused mean latent,
and one fused softmax(v·W + b) per head; the losses add 4 more.
Inference runs the same arithmetic on constants: `infer` all of it, and
`infer_affinity` only the embedding and the affinity, for the stages
that label frames.  Both embed a video with `linear`'s kernel,
`ad._affine`, and compare it to the prototypes one row block at a time,
and read a video from its feature file one block at a time, so of the
frame-sized arrays only the T x N affinity is ever whole.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Var
from .data import FeatureSequence, require_int


@dataclass
class ModelConfig:
    input_dim: int
    n_activities: int
    n_prototypes: int = 50
    embed_dim: int | None = None  # None: 20 for small inputs, else min(input_dim, 1024)

    def __post_init__(self):
        for name in ("input_dim", "n_activities", "n_prototypes"):
            require_int(name, getattr(self, name), 1)
        if self.embed_dim is not None:
            require_int("embed_dim", self.embed_dim, 1)

    @property
    def resolved_embed_dim(self) -> int:
        if self.embed_dim is not None:
            return self.embed_dim
        return 20 if self.input_dim <= 64 else min(self.input_dim, 1024)


def parameter_layout(cfg: ModelConfig) -> Dict[str, tuple[tuple[int, ...], int]]:
    """Each parameter's shape and init fan-in.

    A model's parameters are a dict of float64 arrays with exactly these
    keys; initialization, serialization and the Adam update follow this
    order.  `infer` and `infer_affinity` also take a float32 `embed_w`,
    as the inference stages give it.
    """
    d_in, d, n, c = cfg.input_dim, cfg.resolved_embed_dim, cfg.n_prototypes, cfg.n_activities
    return {
        "embed_w": ((d_in, d), d_in),
        "embed_b": ((d,), d_in),
        "prototypes": ((n, d), d),
        "latent_w1": ((d, d), d),
        "latent_b1": ((d,), d),
        "latent_w2": ((d, d), d),
        "latent_b2": ((d,), d),
        "head_p_w": ((n, c), n),
        "head_p_b": ((c,), n),
        "head_g_w": ((d, c), d),
        "head_g_b": ((c,), d),
    }


def validate_parameters(params: Dict[str, np.ndarray], cfg: ModelConfig) -> None:
    """Check that `params` holds exactly the layout's tensors, shaped and finite."""
    layout = parameter_layout(cfg)
    missing = [name for name in layout if name not in params]
    unknown = [name for name in params if name not in layout]
    if missing or unknown:
        raise ValueError(f"parameters have missing keys {missing}, unknown keys {unknown}")
    for name, (shape, _) in layout.items():
        arr = params[name]
        if arr.shape != shape:
            raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} contains non-finite values")


def init_parameters(cfg: ModelConfig, seed: int) -> Dict[str, np.ndarray]:
    """Seeded init: uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) per tensor, drawn
    in `parameter_layout` order; the prototypes' fan-in is d."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, (shape, fan_in) in parameter_layout(cfg).items():
        bound = 1.0 / np.sqrt(fan_in)
        params[name] = rng.uniform(-bound, bound, size=shape)
    return params


@dataclass
class ForwardOutputs:
    affinity: Var  # T x N, rows sum to 1
    proto_probs: Var  # C-vector
    visual_probs: Var  # C-vector


def _frames(features) -> np.ndarray:
    features = np.asarray(features)
    if features.ndim != 2 or features.shape[0] < 1:
        raise ValueError("features must be a non-empty T x d_in array")
    return features


def forward(features: np.ndarray, bound: Dict[str, Var], cfg: ModelConfig) -> ForwardOutputs:
    """Run the full network for one video on the tape owning `bound`."""
    x = bound["embed_w"].tape.const(_frames(features))  # promoted to float64
    f = ad.linear(x, bound["embed_w"], bound["embed_b"])  # per frame: a width-1 convolution
    return _from_affinity(ad.affinity(f, bound["prototypes"]), bound)  # distance, inversion, norm


def _from_affinity(a: Var, bound: Dict[str, Var]) -> ForwardOutputs:
    """The network after its affinity record, on the tape owning `a`."""
    vp = ad.axis0_sum(a)  # V^p: occurrence and frequency evidence per prototype
    # V^g = (V^p/T)·P + mean_t(relu(A·(P·W1) + b1))·W2 + b2: no T-row
    # operand ever meets a d x d weight, forward or backward
    vg = ad.mean_latent(
        a,
        vp,
        bound["prototypes"],
        bound["latent_w1"],
        bound["latent_b1"],
        bound["latent_w2"],
        bound["latent_b2"],
    )
    # each head's activity probabilities, softmax(v·W + b)
    yp = ad.softmax_affine(vp, bound["head_p_w"], bound["head_p_b"])
    yg = ad.softmax_affine(vg, bound["head_g_w"], bound["head_g_b"])
    return ForwardOutputs(affinity=a, proto_probs=yp, visual_probs=yg)


# The float64 embedding of one row block takes at most this many bytes:
# 512 frames at D = 1024, and 26,214 at D = 20, where no video is split.
EMBEDDING_BLOCK_BYTES = 4 << 20


def _row_blocks(n_frames: int, embed_dim: int):
    """ceil(T / rows) near-equal [start, stop) row ranges, where `rows`
    frames fill `EMBEDDING_BLOCK_BYTES`: each block holds at least rows / 2."""
    rows = max(1, EMBEDDING_BLOCK_BYTES // (8 * embed_dim))
    n_blocks = -(-n_frames // rows)
    bounds = [n_frames * i // n_blocks for i in range(n_blocks + 1)]
    return zip(bounds, bounds[1:])


def _affinity(features, params: Dict[str, np.ndarray], p: Var) -> np.ndarray:
    """The T x N affinity of `features` to the prototypes `p`, one row block at a time.

    `features` is a T x d_in array, or a `FeatureSequence`, whose blocks
    are read as stored.  Each block is embedded by `linear`'s kernel,
    `autodiff._affine`, in the dtype of `params["embed_w"]`, and run
    through the fused affinity record on `p`'s tape; every step is
    row-wise, so only the products' blocking could move a bit.
    """
    if isinstance(features, FeatureSequence):
        n_frames, read = features.n_frames, features.read
    else:
        x = _frames(features)
        n_frames, read = len(x), lambda start, stop: x[start:stop]
    out = np.empty((n_frames, p.value.shape[0]))
    for start, stop in _row_blocks(n_frames, p.value.shape[1]):
        f = p.tape.const(ad._affine(read(start, stop), params["embed_w"], params["embed_b"]))
        out[start:stop] = ad.affinity(f, p).value
        del f  # before the next block is embedded
    return out


def infer(features, params: Dict[str, np.ndarray], cfg: ModelConfig):
    """Forward pass with constant parameters; returns (affinity, proto_probs, visual_probs).

    `features` is a T x d_in array or a `FeatureSequence`.  The affinity
    is `_affinity`'s, and the rest of the network runs on it in float64.
    With float64 parameters, and a video of one block, the outputs are
    bitwise those of `forward`.
    """
    tape = Tape()
    # a Var holds float64, so the weight, maybe float32, stays off the tape
    bound = {name: tape.const(arr) for name, arr in params.items() if name != "embed_w"}
    a = tape.const(_affinity(features, params, bound["prototypes"]))
    out = _from_affinity(a, bound)
    return a.value, out.proto_probs.value, out.visual_probs.value


# the parameters `infer_affinity` reads
AFFINITY_PARAMETERS = ("embed_w", "embed_b", "prototypes")


def infer_affinity(features, params: Dict[str, np.ndarray]) -> np.ndarray:
    """`infer`'s affinity matrix alone, bitwise: no V^g and no classifier head.

    `features` is a T x d_in array or a `FeatureSequence`, read one row
    block at a time; `params` needs only the `AFFINITY_PARAMETERS`.
    """
    return _affinity(features, params, Tape().const(params["prototypes"]))
