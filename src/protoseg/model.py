"""Prototype-bank segmentation network.

Frames are embedded per-frame, compared to a global bank of trainable
prototypes to form a row-stochastic affinity matrix, and summarized into
two video representations: time-summed affinities (V^p) and the time
average (V^g) of the reconstructed frames
g = A·P + relu(A·P·W1 + b1)·W2 + b2.  Each representation feeds its own
activity classifier head.  Only the mean of g is ever read, so it is
computed in reassociated form and g itself is never built; the latent
path then costs T·N·d + N·d² per video instead of T·N·d + 2·T·d².

A training video records 6 tape operations: the fused embedding x·W + b,
the fused affinity, V^p's time sum, the fused mean latent, and one fused
softmax(v·W + b) per head; the losses add 8 more.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Var
from .data import require_int


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
    order.
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
    validate_parameters(params, cfg)
    return params


def bind_parameters(params: Dict[str, np.ndarray], tape: Tape) -> Dict[str, Var]:
    """Wrap every parameter tensor as a leaf on `tape`."""
    return {name: tape.var(arr) for name, arr in params.items()}


@dataclass
class ForwardOutputs:
    affinity: Var  # T x N, rows sum to 1
    proto_probs: Var  # C-vector
    visual_probs: Var  # C-vector


def embed_frames(x: Var, w: Var, b: Var) -> Var:
    """Per-frame linear map (a width-1 convolution over time)."""
    if x.value.shape[1] != w.value.shape[0]:
        raise ValueError(
            f"feature dim {x.value.shape[1]} does not match embedding input {w.value.shape[0]}"
        )
    return ad.linear(x, w, b)


def forward(features: np.ndarray, bound: Dict[str, Var], cfg: ModelConfig) -> ForwardOutputs:
    """Run the full network for one video on the tape owning `bound`."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] < 1:
        raise ValueError("features must be a non-empty T x d_in array")
    tape = bound["embed_w"].tape
    x = tape.const(features)
    f = embed_frames(x, bound["embed_w"], bound["embed_b"])
    a = ad.affinity(f, bound["prototypes"])  # distance, min-max inversion, row norm
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


def infer(features: np.ndarray, params: Dict[str, np.ndarray], cfg: ModelConfig):
    """Forward pass with constant parameters; returns (affinity, proto_probs, visual_probs)."""
    tape = Tape()
    out = forward(features, {name: tape.const(arr) for name, arr in params.items()}, cfg)
    return out.affinity.value, out.proto_probs.value, out.visual_probs.value
