"""Two-stage training loop plus baseline regularizers and diagnostics.

Each step: sample a mini-batch, run the forward pass, build training labels
(during the labo warm-up: uniform label smoothing; otherwise: whatever the
configured mode prescribes), take the mean logit gradient with the labels
held fixed, backpropagate, and apply SGD. Labels are rebuilt from the
current forward pass every step; nothing about them persists. The one
exception is the frozen kd teacher: its log-probabilities for the training
rows are computed once per run, before step 0, and each step gathers its
batch's rows.

The diagnostics mirror the usual overconfidence analysis: besides accuracy
we track the mean probability assigned to the predicted class and its
histogram over the evaluation split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import numerics
from .data import Dataset
from .io import atomic_write_text
from .model import MlpModel, SgdOptimizer, save_checkpoint
from .objectives import _batch_objective_into, _objective_buffers
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
    "shape_mismatch",
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


def shape_mismatch(what: str, model: MlpModel, data: Dataset) -> str | None:
    """Why `model` cannot read `data` (features or classes differ), or None if it can."""
    if model.input_dim == data.dim and model.num_classes == data.num_classes:
        return None
    return (
        f"{what} expects {model.input_dim} features / {model.num_classes} classes, "
        f"dataset has {data.dim} / {data.num_classes}"
    )


def _teacher_log_probs(teacher: MlpModel, data: Dataset, rows: np.ndarray, batch_size: int) -> np.ndarray:
    """The teacher's log-probabilities for `rows` of `data`, as an (len(rows), K) table.

    Computed in chunks of exactly `batch_size` contiguous rows (the last
    chunk ends at the last row, overlapping the one before), so every
    teacher matmul has the shape of a per-batch call. A row then gets the
    same bits as in a per-batch call wherever BLAS computes a row
    independently of its place in the block (on OpenBLAS, batch sizes that
    are a multiple of the kernel's row unroll, such as 32 or 128). Entries
    are finite (never -inf), so the step needs no `batch_objective` clamp.
    """
    table = np.empty((rows.size, teacher.num_classes))
    for start in range(0, rows.size, batch_size):
        start = min(start, rows.size - batch_size)
        chunk = slice(start, start + batch_size)
        table[chunk] = numerics.log_softmax_rows(teacher.forward(data.features[rows[chunk]]))
    return table


class _Step:
    """One `run_training` step over arrays allocated once per run: the batch gather, then the implementations
    behind `MlpModel.forward`, `batch_objective`, `MlpModel.backward` and `SgdOptimizer.step`, so each result
    has the bits of those calls, and the finite checks. Building it checks the SGD settings, the batch size,
    the kd teacher and the model's input width, and computes the teacher table."""

    def __init__(self, model: MlpModel, data: Dataset, cfg: TrainConfig, teacher=None):
        n, num_classes = cfg.batch_size, model.num_classes
        self.model, self.data, self.beta_cp = model, data, cfg.beta_cp
        self.optimizer = SgdOptimizer(model, lr=cfg.lr, momentum=cfg.momentum, weight_decay=cfg.weight_decay)
        self.train_idx = data.splits["train"]
        if self.train_idx.size < n:
            raise ValueError(f"batch size {n} exceeds training set size {self.train_idx.size}")
        if cfg.mode == "kd":
            if teacher is None:
                raise ValueError("kd mode requires a teacher model")
            if mismatch := shape_mismatch("teacher", teacher, data):
                raise ValueError(mismatch)
            self.teacher_table = _teacher_log_probs(teacher, data, self.train_idx, n)
            self.table_row = np.empty(data.features.shape[0], dtype=np.intp)  # dataset row -> table row
            self.table_row[self.train_idx] = np.arange(self.train_idx.size)
            self.teacher_logP = np.empty((n, num_classes))
        if model.input_dim != data.dim:  # what `MlpModel.forward` would say at step 0
            raise ValueError(f"expected input dim {model.input_dim}, got shape {(n, data.dim)}")
        self.X, self.arrays = np.empty((n, data.dim)), model._pass_arrays(n)
        self.objective, self.grad = _objective_buffers(n, num_classes), np.empty_like(model.theta)
        self.grad_views, self.finite = model._views(self.grad), np.empty(model.theta.shape, dtype=bool)

    def __call__(self, t: int, batch: np.ndarray, mode: str, smoothing: SmoothingConfig):
        """Train on the dataset rows `batch` as step `t`; return the batch's mean loss and its alphas."""
        Z = self.model._forward(self.arrays, self.data.features.take(batch, 0, out=self.X))
        teacher_logP = (self.teacher_table.take(self.table_row[batch], 0, out=self.teacher_logP)
                        if mode == "kd" else None)
        _, alphas, losses, grad = _batch_objective_into(self.data.labels[batch], Z, mode, smoothing, self.beta_cp,
                                                        teacher_logP, self.objective)
        loss = float(np.add.reduce(losses)) / losses.size  # the bits of losses.mean()
        if not math.isfinite(loss):
            raise FloatingPointError(f"non-finite training loss at step {t}")
        self.model._backward(self.arrays, grad, *self.grad_views)
        self.optimizer.step(self.model, self.grad)
        if not np.logical_and.reduce(np.isfinite(self.model.theta, out=self.finite)):
            raise FloatingPointError(f"non-finite parameters after step {t}")
        return loss, alphas


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # the finite checks of _Step report a blow-up
def run_training(model, data, cfg: TrainConfig, teacher=None, step_callback=None):
    """Train `model` in place and return (best model, reports).

    In labo mode, steps t < cfg.warmup use uniform label smoothing (alpha
    0.1) and the closed-form labels take over from t >= cfg.warmup; every
    other mode trains on its own labels from step 0. Batches are drawn by
    shuffling the training indices once per epoch (full batches only, so a
    short final remainder rolls into the next epoch's shuffle). The model
    returned is the checkpoint with the best validation accuracy.

    The kd teacher is frozen, so its log-probabilities for the training
    rows are computed once per run, before step 0; a step gathers its
    batch's rows from that table. A teacher whose shape does not fit `data`
    raises ValueError before any step, and so does everything else
    `_Step` checks; the arrays a step writes are allocated once per run.

    `step_callback(steps_done, model)` runs after every parameter update.
    """
    rng = np.random.default_rng(cfg.seed)
    step = _Step(model, data, cfg, teacher)
    warmup = cfg.warmup if cfg.mode == "labo" else 0
    order, pos = rng.permutation(step.train_idx), 0

    reports: list[EpochReport] = []
    window_losses: list[float] = []
    best_acc = -1.0
    best_model = None

    for t in range(cfg.steps):
        if pos + cfg.batch_size > order.size:
            order, pos = rng.permutation(step.train_idx), 0
        batch = order[pos : pos + cfg.batch_size]
        pos += cfg.batch_size

        mode, smoothing = ("ls", _WARMUP_SMOOTHING) if t < warmup else (cfg.mode, cfg.smoothing)
        batch_loss, alphas = step(t, batch, mode, smoothing)
        window_losses.append(batch_loss)

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
