"""Mini-batch Adam training with seeded, reproducible shuffling."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from . import losses as losses_mod
from . import model as model_mod
from .model import ModelConfig
from .autodiff import Tape, named_failures
from .data import require_int, require_number
from .losses import LossConfig
from .rng import Xoshiro256StarStar

# Adam's decay rates and denominator guard (Kingma & Ba 2015 defaults).
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class TrainConfig:
    lr: float = 0.001
    epochs: int = 240
    batch_size: int = 8
    seed: int = 0

    def __post_init__(self):
        require_int("epochs", self.epochs, 1)
        require_int("batch_size", self.batch_size, 1)
        require_int("seed", self.seed, 0)
        require_number("lr", self.lr, lambda x: x >= 0.0, ">= 0")


@dataclass
class AdamState:
    m: Dict[str, np.ndarray]
    v: Dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def zeros_like(cls, params: Dict[str, np.ndarray]) -> "AdamState":
        return cls(
            m={n: np.zeros_like(a) for n, a in params.items()},
            v={n: np.zeros_like(a) for n, a in params.items()},
        )


def adam_step(
    params: Dict[str, np.ndarray],
    grads: Dict[str, np.ndarray],
    state: AdamState,
    cfg: TrainConfig,
) -> None:
    """One bias-corrected Adam update of each tensor of `params`, in place."""
    state.step += 1
    t = state.step
    for name, param in params.items():
        g = grads[name]
        state.m[name] = BETA1 * state.m[name] + (1.0 - BETA1) * g
        state.v[name] = BETA2 * state.v[name] + (1.0 - BETA2) * g * g
        m_hat = state.m[name] / (1.0 - BETA1**t)
        v_hat = state.v[name] / (1.0 - BETA2**t)
        param[...] -= cfg.lr * m_hat / (np.sqrt(v_hat) + EPS)


def video_loss(video, params: Dict[str, np.ndarray], model_cfg: ModelConfig, loss_cfg: LossConfig):
    """Forward one video and return (loss Var, bound params, term values)."""
    tape = Tape()
    bound = {name: tape.var(arr) for name, arr in params.items()}
    out = model_mod.forward(video.features, bound, model_cfg)
    target = losses_mod.one_hot(video.activity, model_cfg.n_activities)
    lp = losses_mod.activity_loss(out.proto_probs, target)
    lg = losses_mod.activity_loss(out.visual_probs, target)
    ls = losses_mod.tmse_loss(out.affinity, loss_cfg.truncation)
    loss = losses_mod.total_loss(lp, lg, ls, loss_cfg)
    terms = (float(lp.value), float(lg.value), float(ls.value))
    return tape, loss, bound, terms


@dataclass
class TrainResult:
    params: Dict[str, np.ndarray]
    trace: list  # one dict per epoch: epoch, loss, loss_p, loss_g, loss_smooth
    rng_digest: str


def train(
    corpus: Sequence,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    loss_cfg: LossConfig,
) -> TrainResult:
    """Optimize the model on `corpus` (FeatureSequence-like objects).

    Videos are shuffled every epoch with a seeded Fisher-Yates, grouped
    into batches, forwarded individually (lengths vary), and the batch's
    mean gradients feed one Adam step.  Each video's features are read
    at its step, once per epoch, and dropped after its backward.
    A non-finite value in a video's forward or backward is one
    FloatingPointError that names its feature file (or id) and the epoch.
    """
    if len(corpus) == 0:
        raise ValueError("corpus is empty")
    for video in corpus:
        if not 1 <= video.activity <= model_cfg.n_activities:
            raise ValueError(
                f"video {video.video_id!r} activity {video.activity} outside "
                f"[1, {model_cfg.n_activities}]"
            )

    params = model_mod.init_parameters(model_cfg, train_cfg.seed)
    state = AdamState.zeros_like(params)
    shuffler = Xoshiro256StarStar(train_cfg.seed)
    order = list(range(len(corpus)))
    trace = []

    for epoch in range(train_cfg.epochs):
        shuffler.shuffle(order)
        epoch_terms = np.zeros(4)
        for start in range(0, len(order), train_cfg.batch_size):
            batch = order[start : start + train_cfg.batch_size]
            grads = {n: np.zeros_like(a) for n, a in params.items()}
            for idx in batch:
                video = corpus[idx]
                with named_failures(f"{video.path or repr(video.video_id)} at epoch {epoch}"):
                    tape, loss, bound, terms = video_loss(video, params, model_cfg, loss_cfg)
                    tape.backward(loss)
                for name, grad in grads.items():
                    grad += bound[name].grad
                epoch_terms += (float(loss.value), *terms)
            for grad in grads.values():
                grad /= len(batch)
            adam_step(params, grads, state, train_cfg)
        epoch_terms /= len(order)
        trace.append(
            {
                "epoch": epoch,
                "loss": epoch_terms[0],
                "loss_p": epoch_terms[1],
                "loss_g": epoch_terms[2],
                "loss_smooth": epoch_terms[3],
            }
        )

    return TrainResult(params=params, trace=trace, rng_digest=shuffler.state_digest())
