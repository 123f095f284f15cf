"""Prototype-bank segmentation network.

Frames are embedded per-frame, compared to a global bank of trainable
prototypes to form a row-stochastic affinity matrix, and summarized into
two video representations: time-summed affinities and time-averaged
reconstructed frames.  Each representation feeds its own activity
classifier head.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Var


@dataclass
class ModelConfig:
    input_dim: int
    n_activities: int
    n_prototypes: int = 50
    embed_dim: int | None = None  # None: 20 for small inputs, else min(input_dim, 1024)

    def __post_init__(self):
        if self.input_dim < 1 or self.n_activities < 1 or self.n_prototypes < 1:
            raise ValueError("model dimensions must be >= 1")

    @property
    def resolved_embed_dim(self) -> int:
        if self.embed_dim is not None:
            return self.embed_dim
        return 20 if self.input_dim <= 64 else min(self.input_dim, 1024)


# Serialization and initialization follow this order.
PARAM_NAMES = (
    "embed_w",
    "embed_b",
    "prototypes",
    "latent_w1",
    "latent_b1",
    "latent_w2",
    "latent_b2",
    "head_p_w",
    "head_p_b",
    "head_g_w",
    "head_g_b",
)


@dataclass
class ModelParameters:
    """All trainable tensors, as plain float64 arrays."""

    embed_w: np.ndarray  # input_dim x d
    embed_b: np.ndarray  # d
    prototypes: np.ndarray  # N x d
    latent_w1: np.ndarray  # d x d
    latent_b1: np.ndarray  # d
    latent_w2: np.ndarray  # d x d
    latent_b2: np.ndarray  # d
    head_p_w: np.ndarray  # N x C
    head_p_b: np.ndarray  # C
    head_g_w: np.ndarray  # d x C
    head_g_b: np.ndarray  # C

    def as_dict(self) -> Dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in PARAM_NAMES}

    @classmethod
    def from_dict(cls, tensors: Dict[str, np.ndarray]) -> "ModelParameters":
        missing = [n for n in PARAM_NAMES if n not in tensors]
        if missing:
            raise ValueError(f"missing parameter tensors: {missing}")
        return cls(**{n: np.asarray(tensors[n], dtype=np.float64) for n in PARAM_NAMES})

    def copy(self) -> "ModelParameters":
        return ModelParameters(**{n: getattr(self, n).copy() for n in PARAM_NAMES})

    def validate(self, cfg: ModelConfig) -> None:
        d = cfg.resolved_embed_dim
        expected = {
            "embed_w": (cfg.input_dim, d),
            "embed_b": (d,),
            "prototypes": (cfg.n_prototypes, d),
            "latent_w1": (d, d),
            "latent_b1": (d,),
            "latent_w2": (d, d),
            "latent_b2": (d,),
            "head_p_w": (cfg.n_prototypes, cfg.n_activities),
            "head_p_b": (cfg.n_activities,),
            "head_g_w": (d, cfg.n_activities),
            "head_g_b": (cfg.n_activities,),
        }
        for name, shape in expected.items():
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite values")


def init_parameters(cfg: ModelConfig, seed: int) -> ModelParameters:
    """Seeded init: uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) per layer,
    prototypes uniform(-1/sqrt(d), +1/sqrt(d))."""
    rng = np.random.default_rng(seed)
    d = cfg.resolved_embed_dim

    def uniform(fan_in: int, shape) -> np.ndarray:
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    params = ModelParameters(
        embed_w=uniform(cfg.input_dim, (cfg.input_dim, d)),
        embed_b=uniform(cfg.input_dim, (d,)),
        prototypes=uniform(d, (cfg.n_prototypes, d)),
        latent_w1=uniform(d, (d, d)),
        latent_b1=uniform(d, (d,)),
        latent_w2=uniform(d, (d, d)),
        latent_b2=uniform(d, (d,)),
        head_p_w=uniform(cfg.n_prototypes, (cfg.n_prototypes, cfg.n_activities)),
        head_p_b=uniform(cfg.n_prototypes, (cfg.n_activities,)),
        head_g_w=uniform(d, (d, cfg.n_activities)),
        head_g_b=uniform(d, (cfg.n_activities,)),
    )
    params.validate(cfg)
    return params


def bind_parameters(params: ModelParameters, tape: Tape) -> Dict[str, Var]:
    """Wrap every parameter tensor as a leaf on `tape`."""
    return {name: tape.var(arr) for name, arr in params.as_dict().items()}


@dataclass
class ForwardOutputs:
    frames: Var  # T x d embedded frames
    affinity: Var  # T x N, rows sum to 1
    latent: Var  # T x d reconstructed frames
    proto_repr: Var  # N-vector, sums to T
    visual_repr: Var  # d-vector
    proto_probs: Var  # C-vector
    visual_probs: Var  # C-vector


def embed_frames(x: Var, w: Var, b: Var) -> Var:
    """Per-frame linear map (a width-1 convolution over time)."""
    if x.value.shape[1] != w.value.shape[0]:
        raise ValueError(
            f"feature dim {x.value.shape[1]} does not match embedding input {w.value.shape[0]}"
        )
    return ad.matmul(x, w) + b


def compute_affinity(f: Var, p: Var) -> Var:
    """Distances -> per-row min/max inversion -> row normalization."""
    return ad.row_normalize(ad.minmax_invert_rows(ad.pairwise_distance(f, p)))


def reconstruct_latent(a: Var, p: Var, w1: Var, b1: Var, w2: Var, b2: Var) -> Var:
    """Affinity-weighted prototype sums refined by a two-layer residual map."""
    g0 = ad.matmul(a, p)
    hidden = ad.relu(ad.matmul(g0, w1) + b1)
    return g0 + (ad.matmul(hidden, w2) + b2)


def prototype_representation(a: Var) -> Var:
    """Sum affinities over time: occurrence and frequency evidence per prototype."""
    return ad.axis0_sum(a)


def visual_representation(g: Var) -> Var:
    """Average the reconstructed frames over time."""
    return ad.axis0_mean(g)


def classify(vp: Var, vg: Var, wp: Var, bp: Var, wg: Var, bg: Var) -> tuple[Var, Var]:
    yp = ad.softmax(ad.matmul(vp, wp) + bp)
    yg = ad.softmax(ad.matmul(vg, wg) + bg)
    return yp, yg


def forward(features: np.ndarray, bound: Dict[str, Var], cfg: ModelConfig) -> ForwardOutputs:
    """Run the full network for one video on the tape owning `bound`."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] < 1:
        raise ValueError("features must be a non-empty T x d_in array")
    tape = bound["embed_w"].tape
    x = tape.const(features)
    f = embed_frames(x, bound["embed_w"], bound["embed_b"])
    a = compute_affinity(f, bound["prototypes"])
    g = reconstruct_latent(
        a,
        bound["prototypes"],
        bound["latent_w1"],
        bound["latent_b1"],
        bound["latent_w2"],
        bound["latent_b2"],
    )
    vp = prototype_representation(a)
    vg = visual_representation(g)
    yp, yg = classify(
        vp, vg, bound["head_p_w"], bound["head_p_b"], bound["head_g_w"], bound["head_g_b"]
    )
    return ForwardOutputs(
        frames=f,
        affinity=a,
        latent=g,
        proto_repr=vp,
        visual_repr=vg,
        proto_probs=yp,
        visual_probs=yg,
    )


def infer(features: np.ndarray, params: ModelParameters, cfg: ModelConfig):
    """Forward pass on a non-recording tape; returns (affinity, proto_probs, visual_probs)."""
    out = forward(features, bind_parameters(params, Tape(recording=False)), cfg)
    return out.affinity.value, out.proto_probs.value, out.visual_probs.value
