"""Numerically stable probability kernels shared by every other module.

All kernels compute in the log domain and exponentiate last, so that the
large exponents produced by tempered transforms cannot underflow raw
probabilities. Everything is float64; the tolerances quoted in the test
suite assume double precision.

Each kernel exists once. Functions of logits are one-row views of the
training kernels, with the bits of a training row; functions of
distributions (`entropy`, `kl_div`) and the simplex oracle, which keeps its
own normalisation, are the independent routes that certify them.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "check_logits",
    "check_prob_vec",
    "check_class_index",
    "uniform",
    "softmax",
    "log_softmax",
    "tempered_softmax",
    "entropy",
    "kl_div",
    "log_softmax_rows",
]

# |sum(p) - 1| allowed for a probability vector
PROB_SUM_TOL = 1e-9


def check_logits(z) -> np.ndarray:
    """Validate a logit vector: 1-D, K >= 2, entries and range max - min finite."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1 or z.shape[0] < 2:
        raise ValueError(f"logits must be a 1-D vector with K >= 2, got shape {z.shape}")
    hi, lo = float(z.max()), float(z.min())  # max and min propagate nan
    if not np.isfinite(hi - lo):  # a finite range keeps the max-shift from overflowing
        if not np.isfinite([hi, lo]).all():
            raise ValueError("logits must be finite")
        raise ValueError(f"logit range {hi!r} - {lo!r} overflows float64")
    return z


def check_prob_vec(p) -> np.ndarray:
    """Validate a point on the probability simplex (entries >= 0, sum == 1)."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.shape[0] < 2:
        raise ValueError(f"probability vector must be 1-D with K >= 2, got shape {p.shape}")
    s = p.sum()
    if not (p.min() >= 0 and abs(s - 1.0) <= PROB_SUM_TOL):  # two reductions; a nan or inf entry fails one
        if not np.isfinite(p).all():
            raise ValueError("probability vector must be finite")
        if (p < 0).any():
            raise ValueError(f"probability vector has negative entries (min {p.min()})")
        raise ValueError(f"probability vector sums to {s!r}, expected 1 within {PROB_SUM_TOL}")
    return p


def check_class_index(k, num_classes: int) -> None:
    """Validate a class index: 0 <= k < num_classes."""
    if not 0 <= k < num_classes:
        raise ValueError(f"class index {k} out of range [0, {num_classes})")


def uniform(num_classes: int) -> np.ndarray:
    """Uniform distribution over `num_classes` classes."""
    if num_classes < 2:
        raise ValueError("need at least 2 classes")
    return np.full(num_classes, 1.0 / num_classes)


def softmax(z) -> np.ndarray:
    """Softmax of one logit vector as training computes it: exp(log_softmax(z)), the bits of a batch row."""
    return np.exp(log_softmax(z))


def log_softmax_rows(Z: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax of an (n, K) batch: Z - max - log(sum(exp(Z - max)))."""
    return _log_softmax_rows_into(Z, np.empty(Z.shape), np.empty(Z.shape), np.empty((Z.shape[0], 1)))


def _log_softmax_rows_into(Z, out, work, col):
    """`log_softmax_rows(Z)` written into `out` (which may be Z), with (n, K) `work` and (n, 1) `col` as scratch."""
    np.subtract(Z, np.maximum.reduce(Z, axis=1, keepdims=True, out=col), out=out)
    np.add.reduce(np.exp(out, out=work), axis=1, keepdims=True, out=col)
    return np.subtract(out, np.log(col, out=col), out=out)


def log_softmax(z) -> np.ndarray:
    """Log-softmax of one logit vector: `log_softmax_rows` on a one-row view."""
    return log_softmax_rows(check_logits(z)[None, :])[0]


def tempered_softmax(z, tau: float) -> np.ndarray:
    """softmax(z / tau); tau > 0. Larger tau flattens toward uniform."""
    if not tau > 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    return softmax(np.asarray(z, dtype=np.float64) / tau)


def entropy(p) -> float:
    """Shannon entropy in nats, with 0*log(0) := 0. Result in [0, log K]."""
    p = check_prob_vec(p)
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum())


def kl_div(p, q) -> float:
    """KL(p || q) in nats.

    Terms with p_j = 0 contribute zero. Raises ValueError when p puts mass
    where q has none (callers must handle degenerate supports explicitly
    rather than receiving an infinity).
    """
    p = check_prob_vec(p)
    q = check_prob_vec(q)
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {q.shape}")
    mask = p > 0
    if (q[mask] == 0).any():
        raise ValueError("support violation: p has mass where q is zero")
    return float((p[mask] * (np.log(p[mask]) - np.log(q[mask]))).sum())
