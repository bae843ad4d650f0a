"""Training losses and their gradients with respect to logits.

The unified objective is a smoothed cross entropy plus a KL penalty that
keeps the smoothing distribution close to uniform:

    R = -sum_j label(j) * log p(j)  +  beta * KL(p_ls || U)

Classical label smoothing is the p_ls = U special case (the KL vanishes),
and distillation with temperature 1 is the p_ls = teacher special case up
to an additive constant (see `kd_decomposition_residual`).

The per-instance functions are the reference definitions. `batch_objective`
computes the labels, losses and logit gradient of a whole training batch in
one pass, for every training mode; its rows match the per-instance
functions. Batch reduction is the arithmetic mean, which keeps gradient
scale independent of batch size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics
from .numerics import check_prob_vec, onehot, uniform
from .smoothing import SmoothedLabel, SmoothingConfig, mix_label

__all__ = [
    "ObjectiveBreakdown",
    "smoothed_ce",
    "unified_objective",
    "cp_loss",
    "cp_grad_wrt_logits",
    "kd_loss",
    "kd_decomposition_residual",
    "grad_wrt_logits",
    "batch_objective",
]


@dataclass(frozen=True)
class ObjectiveBreakdown:
    """Cross-entropy term, KL term, and their sum, all in nats."""

    ce_term: float
    kl_term: float
    total: float

    @classmethod
    def of(cls, ce_term: float, kl_term: float) -> "ObjectiveBreakdown":
        return cls(ce_term=ce_term, kl_term=kl_term, total=ce_term + kl_term)


def smoothed_ce(label: SmoothedLabel, z) -> float:
    """Cross entropy of the model against a smoothed label."""
    logp = numerics.log_softmax(z)
    if label.dist.shape != logp.shape:
        raise ValueError(f"shape mismatch: label {label.dist.shape} vs logits {logp.shape}")
    return float(-(label.dist * logp).sum())


def unified_objective(k: int, z, p_ls, alpha: float, beta: float) -> ObjectiveBreakdown:
    """Smoothed CE with p_ls mixed in, plus beta * KL(p_ls || uniform)."""
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    label = mix_label(k, p_ls, alpha)  # checks p_ls
    ce = smoothed_ce(label, z)
    kl = beta * numerics.kl_div(p_ls, uniform(label.dist.shape[0]))
    return ObjectiveBreakdown.of(ce, kl)


def cp_loss(k: int, z, beta_cp: float) -> float:
    """Cross entropy plus a penalty on confident (low-entropy) outputs."""
    if beta_cp < 0:
        raise ValueError(f"beta_cp must be >= 0, got {beta_cp}")
    logp = numerics.log_softmax(z)
    return float(-logp[k] + beta_cp * (np.exp(logp) * logp).sum())


def cp_grad_wrt_logits(k: int, z, beta_cp: float) -> np.ndarray:
    """Analytic gradient of `cp_loss` with respect to the logits.

    d/dz_i [-log p_k] = p_i - 1{i=k}, and
    d/dz_i [-H(p)]    = p_i * (log p_i + H(p)),
    so the total is p - onehot(k) + beta_cp * p * (log p + H(p)).
    """
    logp = numerics.log_softmax(z)
    p = np.exp(logp)
    h = -(p * logp).sum()
    return p - onehot(k, logp.shape[0]) + beta_cp * p * (logp + h)


def kd_loss(k: int, z, teacher_p, alpha: float) -> float:
    """Distillation loss at temperature 1.

    (1 - alpha) * CE(onehot(k), p) + alpha * KL(teacher || p), with the KL
    taken against log p so that saturated logits stay finite.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    teacher_p = check_prob_vec(teacher_p)
    logp = numerics.log_softmax(z)
    if teacher_p.shape != logp.shape:
        raise ValueError(f"shape mismatch: teacher {teacher_p.shape} vs logits {logp.shape}")
    mask = teacher_p > 0
    kl = (teacher_p[mask] * (np.log(teacher_p[mask]) - logp[mask])).sum()
    return float((1.0 - alpha) * -logp[k] + alpha * kl)


def kd_decomposition_residual(k: int, z, teacher_p, alpha: float) -> float:
    """Gap between the distillation loss and its smoothed-label rewriting.

    KD at temperature 1 equals smoothed CE with the teacher mixed in, plus
    alpha * KL(teacher || U), minus the constant alpha * log K. Returns the
    absolute difference between the two evaluations (identically zero up to
    rounding).
    """
    lhs = kd_loss(k, z, teacher_p, alpha)  # checks alpha, teacher_p, z and their shapes
    label = mix_label(k, teacher_p, alpha)
    num_classes = label.dist.shape[0]
    rhs = (
        smoothed_ce(label, z)
        + alpha * numerics.kl_div(teacher_p, uniform(num_classes))
        - alpha * np.log(num_classes)
    )
    return float(abs(lhs - rhs))


def grad_wrt_logits(label: SmoothedLabel, z) -> np.ndarray:
    """Training gradient of the smoothed CE with the label held fixed.

    Returns softmax(z) - label.dist. This is also the full gradient of the
    unified objective when the smoothing distribution is the closed-form
    optimum: the KL term is constant once the label is detached, and the
    gradient through the inner solution vanishes because that solution is
    optimal on the simplex.
    """
    p = numerics.softmax(z)
    if label.dist.shape != p.shape:
        raise ValueError(f"shape mismatch: label {label.dist.shape} vs logits {p.shape}")
    return p - label.dist


def batch_objective(ks, Z, mode: str, cfg: SmoothingConfig, beta_cp: float = 0.0, teacher_logP=None):
    """Labels, per-row losses and mean-loss logit gradient of one batch.

    `mode` is a training mode: one of `smoothing.MODES`, or "cp" (one-hot
    labels plus the confidence penalty). Row i matches the per-instance
    path: the label is `build_label`, the loss is `smoothed_ce` (none, ls),
    `unified_objective` with beta = alpha * tau (labo), `kd_loss` (kd) or
    `cp_loss` (cp), and the gradient row is the per-instance logit gradient
    divided by n. `teacher_logP` holds the (n, K) teacher log-probabilities
    that kd requires.

    Returns (labels, alphas, losses, grad) of shapes (n, K), (n,), (n,),
    (n, K). Labels are rebuilt from Z on every call and held fixed in grad.
    """
    n, num_classes = Z.shape
    rows = np.arange(n)
    logp = numerics.log_softmax_rows(Z)
    P = np.exp(logp)
    if mode in ("none", "cp"):
        alphas = np.zeros(n)
        labels = np.zeros((n, num_classes))
    elif mode == "ls":
        alphas = np.full(n, cfg.alpha)
        labels = np.full((n, num_classes), cfg.alpha / num_classes)
    elif mode == "kd":
        if teacher_logP is None:
            raise ValueError("kd mode requires teacher_logP")
        alphas = np.full(n, cfg.alpha)
        teacher_P = np.exp(teacher_logP)
        labels = cfg.alpha * teacher_P
    elif mode == "labo":
        if cfg.alpha_rule == "adaptive":
            # (log K - rho * H(p)) / log K, with H(p) = -sum(p * log p), kept >= 1 - rho as in adaptive_alpha
            h_u = np.log(num_classes)
            alphas = np.maximum((h_u + cfg.rho * (P * logp).sum(axis=1)) / h_u, 1.0 - cfg.rho)
        else:
            alphas = np.full(n, cfg.alpha)
        logq = numerics.log_softmax_rows(Z / cfg.tau)
        P_ls = np.exp(logq)
        labels = alphas[:, None] * P_ls
    else:
        raise ValueError(f"unknown training mode {mode!r}")
    labels[rows, ks] += 1.0 - alphas
    losses = -(labels * logp).sum(axis=1)
    grad = P - labels

    if mode == "labo":
        # + beta * KL(p_ls || U) = alpha * tau * (log K - H(p_ls))
        losses += alphas * cfg.tau * (np.log(num_classes) + (P_ls * logq).sum(axis=1))
    elif mode == "kd":
        # the true distillation loss is the smoothed CE minus alpha * H(teacher)
        losses += cfg.alpha * (teacher_P * teacher_logP).sum(axis=1)
    elif mode == "cp":
        H = -(P * logp).sum(axis=1)
        losses -= beta_cp * H
        grad += beta_cp * P * (logp + H[:, None])
    grad /= n
    return labels, alphas, losses, grad
