"""Two-stage training loop plus baseline regularizers and diagnostics.

Each step: sample a mini-batch, run the forward pass, build training labels
(during the labo warm-up: uniform label smoothing; otherwise: whatever the
configured mode prescribes), take the mean logit gradient with the labels
held fixed, backpropagate, and apply SGD. Labels are rebuilt from the
current forward pass every step; nothing about them persists.

The diagnostics mirror the usual overconfidence analysis: besides accuracy
we track the mean probability assigned to the predicted class and its
histogram over the evaluation split.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import numerics
from .data import Dataset
from .io import atomic_write_text
from .model import MlpModel, SgdOptimizer, save_checkpoint
from .objectives import batch_objective
from .schema import TRAIN, TRAIN_MODES, Config
from .smoothing import SmoothingConfig

__all__ = [
    "TRAIN_MODES",
    "WARMUP_ALPHA",
    "TrainConfig",
    "EpochReport",
    "ConfidenceHistogram",
    "EvalResult",
    "evaluate",
    "run_training",
    "train_teacher",
    "write_reports_csv",
]

# Mixing weight for uniform label smoothing during warm-up steps.
WARMUP_ALPHA = 0.1
_WARMUP_SMOOTHING = SmoothingConfig(alpha=WARMUP_ALPHA)


@dataclass(frozen=True)
class TrainConfig(Config, table=TRAIN):
    steps: int = 2000
    warmup: int = 0
    batch_size: int = 128
    lr: float = 0.1
    seed: int = 0
    mode: str = "labo"
    smoothing: SmoothingConfig = field(default_factory=SmoothingConfig)
    eval_every: int = 200
    momentum: float = 0.9
    weight_decay: float = 5e-4
    beta_cp: float = 0.1

    def __post_init__(self):
        super().__post_init__()
        if self.warmup > self.steps:
            raise ValueError(f"warmup must be <= steps ({self.steps}), got {self.warmup}")


@dataclass(frozen=True)
class EpochReport:
    """Metrics emitted every `eval_every` steps.

    `train_loss` averages the per-batch objective over the reporting
    window; `mean_alpha` is the mean mixing weight applied in the batch at
    the reporting step itself, so it always reflects the currently active
    labeling rule.
    """

    step: int
    train_loss: float
    val_acc: float
    mean_confidence: float
    mean_entropy: float
    mean_alpha: float


@dataclass(frozen=True)
class ConfidenceHistogram:
    """Histogram of predicted-class probabilities over 20 uniform bins."""

    edges: np.ndarray  # (21,)
    counts: np.ndarray  # (20,) ints summing to the eval-set size

    @classmethod
    def from_confidences(cls, confidences: np.ndarray) -> "ConfidenceHistogram":
        edges = np.linspace(0.0, 1.0, 21)
        counts, _ = np.histogram(confidences, bins=edges)
        return cls(edges=edges, counts=counts)

    def to_dict(self) -> dict:
        return {"edges": self.edges.tolist(), "counts": self.counts.tolist()}


@dataclass(frozen=True)
class EvalResult:
    accuracy: float
    mean_confidence: float
    mean_entropy: float
    histogram: ConfidenceHistogram


def evaluate(model: MlpModel, data: Dataset, split: str = "val") -> EvalResult:
    """Deterministic accuracy/confidence/entropy metrics over a split."""
    X, y = data.split_arrays(split)
    if X.shape[0] == 0:
        raise ValueError(f"split {split!r} is empty")
    logP = numerics.log_softmax_rows(model.forward(X))
    P = np.exp(logP)
    predictions = P.argmax(axis=1)
    confidences = P.max(axis=1)
    return EvalResult(
        accuracy=float((predictions == y).mean()),
        mean_confidence=float(confidences.mean()),
        mean_entropy=float(-(P * logP).sum(axis=1).mean()),
        histogram=ConfidenceHistogram.from_confidences(confidences),
    )


def run_training(model, data, cfg: TrainConfig, teacher=None, step_callback=None):
    """Train `model` in place and return (best model, reports).

    In labo mode, steps t < cfg.warmup use uniform label smoothing (alpha
    0.1) and the closed-form labels take over from t >= cfg.warmup; every
    other mode trains on its own labels from step 0. Batches are drawn by
    shuffling the training indices once per epoch (full batches only, so a
    short final remainder rolls into the next epoch's shuffle). The model
    returned is the checkpoint with the best validation accuracy.

    `step_callback(steps_done, model)` runs after every parameter update.
    """
    if cfg.mode == "kd" and teacher is None:
        raise ValueError("kd mode requires a teacher model")
    rng = np.random.default_rng(cfg.seed)
    optimizer = SgdOptimizer(model, lr=cfg.lr, momentum=cfg.momentum, weight_decay=cfg.weight_decay)

    warmup = cfg.warmup if cfg.mode == "labo" else 0

    train_idx = data.splits["train"]
    if train_idx.size < cfg.batch_size:
        raise ValueError(f"batch size {cfg.batch_size} exceeds training set size {train_idx.size}")
    order = rng.permutation(train_idx)
    pos = 0

    reports: list[EpochReport] = []
    window_losses: list[float] = []
    best_acc = -1.0
    best_model = None

    for t in range(cfg.steps):
        if pos + cfg.batch_size > order.size:
            order = rng.permutation(train_idx)
            pos = 0
        batch = order[pos : pos + cfg.batch_size]
        pos += cfg.batch_size

        X = data.features[batch]
        ks = data.labels[batch]
        Z = model.forward(X)

        mode, smoothing = ("ls", _WARMUP_SMOOTHING) if t < warmup else (cfg.mode, cfg.smoothing)
        teacher_logP = numerics.log_softmax_rows(teacher.forward(X)) if mode == "kd" else None
        _, alphas, losses, grad = batch_objective(ks, Z, mode, smoothing, cfg.beta_cp, teacher_logP)

        batch_loss = float(losses.mean())
        if not np.isfinite(batch_loss):
            raise FloatingPointError(f"non-finite training loss at step {t}")
        window_losses.append(batch_loss)

        optimizer.step(model, model.backward(grad))
        if not np.isfinite(model.theta).all():
            raise FloatingPointError(f"non-finite parameters after step {t}")

        if step_callback is not None:
            step_callback(t + 1, model)

        if (t + 1) % cfg.eval_every == 0 or t + 1 == cfg.steps:
            ev = evaluate(model, data, split="val")
            reports.append(
                EpochReport(
                    step=t + 1,
                    train_loss=float(np.mean(window_losses)),
                    val_acc=ev.accuracy,
                    mean_confidence=ev.mean_confidence,
                    mean_entropy=ev.mean_entropy,
                    mean_alpha=float(alphas.mean()),
                )
            )
            window_losses = []
            if ev.accuracy > best_acc:
                best_acc = ev.accuracy
                best_model = model.copy()
    return best_model, reports


def train_teacher(data: Dataset, cfg: TrainConfig, hidden: int = 64, checkpoint_path=None):
    """Train a wider MLP with uniform label smoothing for use as a teacher."""
    teacher_cfg = replace(cfg, mode="ls")
    model = MlpModel([data.dim, hidden, data.num_classes], seed=cfg.seed)
    best, reports = run_training(model, data, teacher_cfg)
    if checkpoint_path is not None:
        save_checkpoint(best, checkpoint_path)
    return best, reports


def write_reports_csv(reports, path: str) -> None:
    lines = ["step,train_loss,val_acc,mean_confidence,mean_entropy,mean_alpha"]
    for r in reports:
        lines.append(
            f"{r.step},{r.train_loss!r},{r.val_acc!r},{r.mean_confidence!r},"
            f"{r.mean_entropy!r},{r.mean_alpha!r}"
        )
    atomic_write_text(path, "\n".join(lines) + "\n")
