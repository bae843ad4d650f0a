"""Training losses and their gradients with respect to logits.

The unified objective is a smoothed cross entropy plus a KL penalty that
keeps the smoothing distribution close to uniform:

    R = -sum_j label(j) * log p(j)  +  beta * KL(p_ls || U)

Classical label smoothing is the p_ls = U special case (the KL vanishes),
and distillation with temperature 1 is the p_ls = teacher special case up
to an additive constant (see `kd_decomposition_residual`).

`batch_objective` computes the labels, losses and logit gradient of a training
batch in one pass, for every mode; `kd_loss`, `cp_loss`, `cp_grad_wrt_logits`
and `smoothing.build_label` are checked one-row views of its kernel. Its rows,
`smoothed_ce` and `unified_objective` are pinned to 50-digit goldens
(`scripts/derive_test_constants.py`). Batch reduction is the arithmetic mean,
which keeps gradient scale independent of batch size.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import numerics
from .numerics import check_class_index, check_logits, check_prob_vec, uniform
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
    return ObjectiveBreakdown.of(smoothed_ce(label, z), beta * numerics.kl_div(p_ls, uniform(label.dist.shape[0])))


def _one_row(k: int, z, mode: str, cfg, beta_cp: float = 0.0, teacher_p=None):
    """Label, alpha, loss and logit gradient of the training kernel's `mode` on the one-row batch (k, z), checked first.
    It runs `_batch_objective_into` itself: its rows are training's whatever the name `batch_objective` holds."""
    if beta_cp < 0:
        raise ValueError(f"beta_cp must be >= 0, got {beta_cp}")
    z = check_logits(z)
    if teacher_p is not None and teacher_p.shape != z.shape:  # kd's teacher distribution, checked
        raise ValueError(f"shape mismatch: teacher {teacher_p.shape} vs logits {z.shape}")
    check_class_index(k, z.shape[0])  # before indexing: k = -1 would read the last class
    with np.errstate(divide="ignore"):  # a teacher's log 0 = -inf, which `_log0_clamped` takes as 0 * log 0 = 0
        teacher_logP = None if teacher_p is None else _log0_clamped(np.log(teacher_p[None, :]))
    labels, alphas, losses, grad = _batch_objective_into(np.array([k]), z[None, :], mode, cfg, beta_cp, teacher_logP,
                                                         _objective_buffers(1, z.shape[0]))
    return labels[0], float(alphas[0]), float(losses[0]), grad[0]


def cp_loss(k: int, z, beta_cp: float) -> float:
    """Cross entropy minus beta_cp * H(p): a penalty on confident (low-entropy) outputs."""
    return _one_row(k, z, "cp", None, beta_cp)[2]  # cp reads no smoothing setting


def cp_grad_wrt_logits(k: int, z, beta_cp: float) -> np.ndarray:
    """Analytic gradient of `cp_loss` with respect to the logits: p - onehot(k) + beta_cp * p * (log p + H(p))."""
    return _one_row(k, z, "cp", None, beta_cp)[3]


def kd_loss(k: int, z, teacher_p, alpha: float) -> float:
    """Distillation loss at temperature 1.

    (1 - alpha) * CE(onehot(k), p) + alpha * KL(teacher || p), with the KL
    taken against log p so that saturated logits stay finite, and 0 * log 0 := 0.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    # alpha is checked above: a namespace spares checking a whole SmoothingConfig again (8 us)
    return _one_row(k, z, "kd", SimpleNamespace(alpha=alpha), teacher_p=check_prob_vec(teacher_p))[2]


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
    rhs = smoothed_ce(label, z) + alpha * numerics.kl_div(teacher_p, uniform(num_classes)) - alpha * np.log(num_classes)
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
    labels plus the confidence penalty). Rows are pinned to 50-digit goldens;
    `build_label`, `kd_loss` and `cp_loss` are checked one-row views, and
    `smoothed_ce` and `unified_objective` (beta = alpha * tau) the independent
    routes to the loss. `teacher_logP` holds kd's (n, K) teacher log-
    probabilities: -inf counts as 0 * log 0 = 0, finite entries keep their bits.

    Returns (labels, alphas, losses, grad) of shapes (n, K), (n,), (n,),
    (n, K). Labels and alphas are rebuilt from Z on every call and held
    fixed in grad, so an adaptive alpha(z) counts as a per-row constant.
    For K <= 7 it runs class-major, with the same bits (`_objective_buffers`).
    """
    teacher_logP = None if teacher_logP is None else _log0_clamped(teacher_logP)
    return _batch_objective_into(ks, Z, mode, cfg, beta_cp, teacher_logP, _objective_buffers(*Z.shape))


def _log0_clamped(teacher_logP):
    """Teacher log-probabilities with -inf raised to -max: finite, so that the kd rows take 0 * log 0 as 0."""
    return np.maximum(teacher_logP, -np.finfo(float).max)


def _objective_buffers(n: int, num_classes: int, class_major=None) -> SimpleNamespace:
    """The arrays `batch_objective` writes for an (n, K) batch; one set serves any number of calls.

    For K <= 7 they are (n, K) views of class-major (K, n) arrays: a row's sum or max then runs over
    contiguous memory, 2-5x faster at K = 3, and numpy adds its K terms left to right, as row-major.
    From K = 8 numpy's row-major sum is pairwise, so the bits would differ. Z is copied in, and the
    gradient out, through C-ordered (n, K) arrays. `class_major` overrides the choice, for tests.
    """
    class_major = num_classes <= 7 if class_major is None else class_major
    new = (lambda: np.empty((num_classes, n)).T) if class_major else (lambda: np.empty((n, num_classes)))
    b = SimpleNamespace(**{name: new() for name in ("logp", "P", "labels", "g", "logq", "q", "work")},
                        alphas=np.empty(n), losses=np.empty(n), row=np.empty(n), col=np.empty((n, 1)),
                        rows=np.arange(n), Z=new() if class_major else None)
    b.grad = np.empty((n, num_classes)) if class_major else b.g
    return b


def _batch_objective_into(ks, Z, mode: str, cfg: SmoothingConfig, beta_cp, teacher_logP, b: SimpleNamespace):
    """`batch_objective` computed in the arrays of `b`, made for Z's shape, and returned as those arrays."""
    n, num_classes = Z.shape
    labels, alphas, work = b.labels, b.alphas, b.work
    if b.Z is not None:
        np.copyto(b.Z, Z)
        Z = b.Z

    def row_dots(A, B, out=b.row):  # (A * B).sum(axis=1), the product formed in `work`
        return np.add.reduce(np.multiply(A, B, out=work), axis=1, out=out)

    logp = numerics._log_softmax_rows_into(Z, b.logp, work, b.col)
    P = np.exp(logp, out=b.P)
    if mode in ("none", "cp"):
        alphas.fill(0.0)
        labels.fill(0.0)
    elif mode == "ls":
        alphas.fill(cfg.alpha)
        labels.fill(cfg.alpha / num_classes)
    elif mode == "kd":
        if teacher_logP is None:
            raise ValueError("kd mode requires teacher_logP")
        alphas.fill(cfg.alpha)
        teacher_P = np.exp(teacher_logP, out=b.q)
        np.multiply(cfg.alpha, teacher_P, out=labels)
    elif mode == "labo":
        if cfg.alpha_rule == "adaptive":
            # (log K - rho * H(p)) / log K, with H(p) = -sum(p * log p), kept >= 1 - rho as in adaptive_alpha
            h_u = np.log(num_classes)
            np.maximum((h_u + cfg.rho * row_dots(P, logp)) / h_u, 1.0 - cfg.rho, out=alphas)
        else:
            alphas.fill(cfg.alpha)
        logq = numerics._log_softmax_rows_into(np.divide(Z, cfg.tau, out=b.logq), b.logq, work, b.col)
        P_ls = np.exp(logq, out=b.q)
        np.multiply(alphas[:, None], P_ls, out=labels)
    else:
        raise ValueError(f"unknown training mode {mode!r}")
    labels[b.rows, ks] += 1.0 - alphas
    losses = np.negative(row_dots(labels, logp, b.losses), out=b.losses)
    grad = np.subtract(P, labels, out=b.g)

    if mode == "labo":
        # + beta * KL(p_ls || U) = alpha * tau * (log K - H(p_ls))
        losses += alphas * cfg.tau * (np.log(num_classes) + row_dots(P_ls, logq))
    elif mode == "kd":
        # the true distillation loss is the smoothed CE minus alpha * H(teacher)
        losses += cfg.alpha * row_dots(teacher_P, teacher_logP)
    elif mode == "cp":
        # d/dz_i [-log p_k] = p_i - 1{i=k} and d/dz_i [-H(p)] = p_i * (log p_i + H(p))
        H = -row_dots(P, logp)
        losses -= beta_cp * H
        grad += np.multiply(np.multiply(beta_cp, P, out=b.q), np.add(logp, H[:, None], out=work), out=work)
    return labels, alphas, losses, np.divide(grad, n, out=b.grad)
