"""Construction of smoothing distributions and smoothed training labels.

A smoothed label mixes the one-hot target with a smoothing distribution:

    label(k)    = 1 - alpha + alpha * p_ls(k)
    label(j!=k) = alpha * p_ls(j)

Supported smoothing distributions: uniform (classical label smoothing), a
teacher model's output (distillation-style), and the closed-form optimum of
the bi-level label-regularization objective, which is the model's own
tempered output p^(1/tau) / sum(p^(1/tau)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics
from .numerics import check_logits, check_prob_vec, onehot, uniform
from .schema import MODES, SMOOTHING, Config

__all__ = [
    "MODES",
    "SmoothingConfig",
    "SmoothedLabel",
    "uniform_smooth",
    "mix_label",
    "labo_optimal_smoothing",
    "labo_from_logits",
    "adaptive_alpha",
    "build_label",
]


@dataclass(frozen=True)
class SmoothingConfig(Config, table=SMOOTHING):
    """Immutable smoothing hyperparameters.

    The KL weight beta is never stored; it is always derived as
    beta = alpha * tau, so tau is the single knob controlling the flatness
    of the optimal smoothing distribution. With the adaptive alpha rule the
    exponent alpha/beta = 1/tau stays constant and adaptivity only moves
    the mixing weight (and thereby the KL weight).
    """

    alpha_rule: str = "fixed"
    alpha: float = 0.1
    rho: float = 0.5
    tau: float = 1.25


@dataclass(frozen=True)
class SmoothedLabel:
    """A smoothed training target: the mixed distribution plus its class."""

    target: int
    alpha_used: float
    dist: np.ndarray

    def __post_init__(self):
        dist = check_prob_vec(self.dist)
        object.__setattr__(self, "dist", dist)
        if not 0 <= self.target < dist.shape[0]:
            raise ValueError(f"target {self.target} out of range for K={dist.shape[0]}")


def uniform_smooth(k: int, num_classes: int, alpha: float) -> SmoothedLabel:
    """Classical label smoothing: mass alpha spread uniformly over classes."""
    return mix_label(k, uniform(num_classes), alpha)


def mix_label(k: int, p_ls, alpha: float) -> SmoothedLabel:
    """General smoothed label: (1 - alpha) * onehot(k) + alpha * p_ls."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    p_ls = check_prob_vec(p_ls)
    if not 0 <= k < p_ls.shape[0]:
        raise ValueError(f"class index {k} out of range [0, {p_ls.shape[0]})")
    dist = alpha * p_ls
    dist[k] += 1.0 - alpha
    return SmoothedLabel(target=k, alpha_used=alpha, dist=dist)


def labo_optimal_smoothing(p, tau: float) -> np.ndarray:
    """Optimal smoothing distribution: p_j^(1/tau), renormalized.

    Computed in the log domain as softmax(log(p) / tau) so that small
    probabilities survive large exponents. Requires strictly positive p
    (softmax outputs always are).
    """
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    p = check_prob_vec(p)
    if np.any(p == 0):
        raise ValueError("optimal smoothing requires strictly positive p")
    return numerics.softmax(np.log(p) / tau)


def labo_from_logits(z, tau: float) -> np.ndarray:
    """Optimal smoothing straight from logits: identical to tempering.

    softmax(z / tau) equals labo_optimal_smoothing(softmax(z), tau) because
    the power transform commutes with the softmax normalization.
    """
    return numerics.tempered_softmax(z, tau)


def adaptive_alpha(p, rho: float) -> float:
    """Instance-specific mixing weight (log K - rho * H(p)) / log K.

    Confident predictions (low entropy) receive more smoothing; the result
    is kept in [1 - rho, 1], also where H(p) rounds above log K.
    """
    if not 0.5 <= rho <= 1.0:
        raise ValueError(f"rho must be in [0.5, 1], got {rho}")
    h = numerics.entropy(p)  # checks p
    h_u = np.log(np.shape(p)[0])
    return float(max((h_u - rho * h) / h_u, 1.0 - rho))


def build_label(k: int, z, mode: str, cfg: SmoothingConfig, teacher_p=None) -> SmoothedLabel:
    """Construct the training label for one instance in `mode` under `cfg`.

    The returned label is a plain constant: it holds freshly allocated
    arrays and is never differentiated through, matching the two-stage
    scheme where the smoothing distribution is recomputed from the current
    forward pass and then held fixed for the parameter update.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "labo":
        # alpha from the rule applied to the current model distribution (softmax
        # checks z), smoothing distribution from the tempered logits
        p = numerics.softmax(z)
        alpha = adaptive_alpha(p, cfg.rho) if cfg.alpha_rule == "adaptive" else cfg.alpha
        return mix_label(k, labo_from_logits(z, cfg.tau), alpha)
    num_classes = check_logits(z).shape[0]
    if mode == "none":
        return SmoothedLabel(target=k, alpha_used=0.0, dist=onehot(k, num_classes))
    if mode == "ls":
        return uniform_smooth(k, num_classes, cfg.alpha)
    if teacher_p is None:
        raise ValueError("kd mode requires teacher_p")
    return mix_label(k, teacher_p, cfg.alpha)
