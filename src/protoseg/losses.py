"""Training losses: per-video activity classification and temporal smoothing."""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Var

# Softmax outputs can saturate numerically; clamp before logs.
PROB_EPS = 1e-7
# Affinity entries can be exactly zero after min/max inversion.
LOG_EPS = 1e-12


@dataclass
class LossConfig:
    alpha: float = 0.5  # weight between the two classification heads
    smooth_weight: float = 0.15  # lambda on the temporal smoothing term
    truncation: float = 4.0  # tau on log-affinity jumps

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if self.smooth_weight < 0.0:
            raise ValueError("smooth_weight must be >= 0")
        if self.truncation <= 0.0:
            raise ValueError("truncation must be > 0")


def one_hot(label: int, n_classes: int) -> np.ndarray:
    """1-based class label -> indicator vector."""
    if not 1 <= label <= n_classes:
        raise ValueError(f"label {label} outside [1, {n_classes}]")
    y = np.zeros(n_classes)
    y[label - 1] = 1.0
    return y


def activity_loss(probs: Var, target: np.ndarray) -> Var:
    """Binary cross-entropy summed over classes against a one-hot target.

    Probabilities are clamped to [PROB_EPS, 1 - PROB_EPS] before the logs;
    the clamp derivative saturates (1/eps) rather than cutting to zero so
    badly saturated predictions still receive gradient.
    """
    target = np.asarray(target, dtype=np.float64)
    if target.shape != probs.value.shape:
        raise ValueError("target shape does not match probabilities")
    if not (np.all((target == 0.0) | (target == 1.0)) and target.sum() == 1.0):
        raise ValueError("target must be one-hot")
    pos = ad.mul(ad.clamped_log(probs, PROB_EPS, 1.0 - PROB_EPS), target)
    neg = ad.mul(ad.clamped_log(1.0 - probs, PROB_EPS, 1.0 - PROB_EPS), 1.0 - target)
    return ad.scale(ad.vsum(pos + neg), -1.0)


def tmse_loss(affinity: Var, truncation: float) -> Var:
    """Truncated mean squared error on consecutive log-affinity differences.

    Jumps larger than the truncation contribute truncation^2 with zero
    gradient.  Averaged over all T*N entries.
    """
    t, n = affinity.value.shape
    if t < 2:
        warnings.warn("smoothing loss undefined for single-frame video; returning 0")
        return affinity.tape.const(0.0)
    logs = ad.log(ad.clamp(affinity, LOG_EPS, None))
    delta = ad.absval(ad.time_diff(logs))
    trunc = ad.clamp(delta, None, float(truncation))
    return ad.scale(ad.vsum(ad.mul(trunc, trunc)), 1.0 / (t * n))


def total_loss(loss_p: Var, loss_g: Var, loss_smooth: Var, cfg: LossConfig) -> Var:
    return (
        ad.scale(loss_p, cfg.alpha)
        + ad.scale(loss_g, 1.0 - cfg.alpha)
        + ad.scale(loss_smooth, cfg.smooth_weight)
    )
