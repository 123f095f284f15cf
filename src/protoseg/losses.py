"""Training losses: per-video activity classification and temporal smoothing."""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .data import require_number
from .inference import LOG_EPS

# Softmax outputs can saturate numerically; clamp before logs.
PROB_EPS = 1e-7


@dataclass
class LossConfig:
    alpha: float = 0.5  # weight between the two classification heads
    smooth_weight: float = 0.15  # lambda on the temporal smoothing term
    truncation: float = 4.0  # tau on log-affinity jumps

    # field -> (test, rule); the CLI checks its config keys against these too
    RULES = {
        "alpha": (lambda x: 0 <= x <= 1, "in [0, 1]"),
        "smooth_weight": (lambda x: x >= 0, ">= 0"),
        "truncation": (lambda x: x > 0, "> 0"),
    }

    def __post_init__(self):
        for name, (ok, rule) in self.RULES.items():
            require_number(name, getattr(self, name), ok, rule)


def one_hot(label: int, n_classes: int) -> np.ndarray:
    """1-based class label -> indicator vector."""
    if not 1 <= label <= n_classes:
        raise ValueError(f"label {label} outside [1, {n_classes}]")
    y = np.zeros(n_classes)
    y[label - 1] = 1.0
    return y


def activity_loss(probs: Var, target: np.ndarray) -> Var:
    """Binary cross-entropy summed over classes against a one-hot target.

    Each class contributes one clamped log of the likelihood of its target
    value, q = p·(2y - 1) + (1 - y), which is p where y = 1 and 1 - p where
    y = 0.  q is clamped to [PROB_EPS, 1 - PROB_EPS] inside the log; the
    derivative saturates (1/eps) rather than cutting to zero, so badly
    saturated predictions still receive gradient.  One tape record.
    """
    target = np.asarray(target, dtype=np.float64)
    if target.shape != probs.value.shape:
        raise ValueError("target shape does not match probabilities")
    if not (np.all((target == 0.0) | (target == 1.0)) and target.sum() == 1.0):
        raise ValueError("target must be one-hot")
    return ad.bce(probs, target, PROB_EPS)


def tmse_loss(affinity: Var, truncation: float) -> Var:
    """Truncated mean squared error on consecutive log-affinity differences.

    Jumps larger than the truncation contribute truncation^2 with zero
    gradient.  Averaged over all T*N entries.  One tape record.
    """
    t, _ = affinity.value.shape
    if t < 2:
        warnings.warn("smoothing loss undefined for single-frame video; returning 0")
        return affinity.tape.const(0.0)
    return ad.tmse(affinity, LOG_EPS, float(truncation))


def total_loss(loss_p: Var, loss_g: Var, loss_smooth: Var, cfg: LossConfig) -> Var:
    """(loss_p·alpha + loss_g·(1 - alpha)) + loss_smooth·lambda, as one record."""
    return ad.weighted_sum(
        (loss_p, loss_g, loss_smooth), (cfg.alpha, 1.0 - cfg.alpha, cfg.smooth_weight)
    )
