"""Deterministic synthetic dataset generation and small-file loaders.

Features are float64 throughout (even for byte images); at the scales this
package targets, simplicity beats memory. Splits are stratified so each
class keeps the same frequency in train/val/test.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass, field

import numpy as np

from .schema import BLOBS, check

__all__ = [
    "Dataset",
    "stratified_splits",
    "gaussian_blobs",
    "load_idx",
    "load_csv",
]

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


@dataclass
class Dataset:
    """Feature matrix, integer labels, and named index splits."""

    features: np.ndarray  # (N, D) float64, C-contiguous
    labels: np.ndarray  # (N,) int64 in [0, num_classes)
    num_classes: int
    splits: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        self.features = np.ascontiguousarray(self.features, dtype=np.float64)  # batches gather rows
        self.labels = np.asarray(self.labels, dtype=np.int64)
        n = self.features.shape[0]
        if self.labels.shape != (n,):
            raise ValueError(f"labels shape {self.labels.shape} does not match {n} rows")
        if self.num_classes < 2:
            raise ValueError("need at least 2 classes")
        if n and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError("labels out of range")
        seen = np.zeros(n, dtype=bool)
        for name, idx in self.splits.items():
            idx = np.asarray(idx, dtype=np.int64)
            self.splits[name] = idx
            if idx.size and (idx.min() < 0 or idx.max() >= n):
                raise ValueError(f"split {name!r} has out-of-range indices")
            if seen[idx].any():
                raise ValueError(f"split {name!r} overlaps another split")
            seen[idx] = True

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def split_arrays(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        idx = self.splits[name]
        return self.features[idx], self.labels[idx]


def stratified_splits(labels: np.ndarray) -> dict[str, np.ndarray]:
    """Per-class contiguous 80/10/10 partition into train/val/test.

    Deterministic: indices are taken in dataset order within each class.
    """
    names = ("train", "val", "test")
    out: dict[str, list] = {name: [] for name in names}
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        n = idx.size
        n_train = int(round(0.8 * n))
        n_val = int(round(0.1 * n))
        out["train"].append(idx[:n_train])
        out["val"].append(idx[n_train : n_train + n_val])
        out["test"].append(idx[n_train + n_val :])
    return {name: np.sort(np.concatenate(parts)) for name, parts in out.items()}


def gaussian_blobs(
    num_classes: int, per_class: int, dim: int = 2, std: float = 1.0, seed: int = 0
) -> Dataset:
    """Isotropic Gaussian clusters with means on a circle of radius 2.

    Class means live in the first two feature dimensions; any extra
    dimensions are pure noise. Deterministic under `seed`.
    """
    check(dict(num_classes=num_classes, per_class=per_class, dim=dim, std=std, seed=seed), BLOBS)
    rng = np.random.default_rng(seed)
    angles = 2.0 * np.pi * np.arange(num_classes) / num_classes
    means = np.zeros((num_classes, dim))
    means[:, 0] = 2.0 * np.cos(angles)
    means[:, 1] = 2.0 * np.sin(angles)
    features = np.empty((num_classes * per_class, dim))
    labels = np.empty(num_classes * per_class, dtype=np.int64)
    for cls in range(num_classes):
        rows = slice(cls * per_class, (cls + 1) * per_class)
        features[rows] = means[cls] + std * rng.standard_normal((per_class, dim))
        labels[rows] = cls
    return Dataset(features, labels, num_classes, splits=stratified_splits(labels))


def _read_be32(f, path: str, what: str) -> int:
    data = f.read(4)
    if len(data) != 4:
        raise ValueError(f"truncated IDX file {path}: could not read {what}")
    return struct.unpack(">I", data)[0]


def _read_exact(f, count: int, path: str, what: str) -> bytes:
    data = f.read(count)
    if len(data) != count:
        raise ValueError(f"truncated IDX file {path}: expected {count} bytes of {what}, got {len(data)}")
    return data


def load_idx(images_path: str, labels_path: str) -> Dataset:
    """Parse big-endian IDX image/label files (MNIST-style).

    Pixels are scaled to [0, 1] and images flattened to rows*cols features.
    """
    with open(images_path, "rb") as f:
        magic = _read_be32(f, images_path, "magic")
        if magic != IDX_IMAGE_MAGIC:
            raise ValueError(f"bad magic {magic:#010x} in image file {images_path}, expected {IDX_IMAGE_MAGIC:#010x}")
        count = _read_be32(f, images_path, "item count")
        rows = _read_be32(f, images_path, "row count")
        cols = _read_be32(f, images_path, "column count")
        raw = _read_exact(f, count * rows * cols, images_path, "pixels")
    images = np.frombuffer(raw, dtype=np.uint8).reshape(count, rows * cols)

    with open(labels_path, "rb") as f:
        magic = _read_be32(f, labels_path, "magic")
        if magic != IDX_LABEL_MAGIC:
            raise ValueError(f"bad magic {magic:#010x} in label file {labels_path}, expected {IDX_LABEL_MAGIC:#010x}")
        label_count = _read_be32(f, labels_path, "item count")
        raw = _read_exact(f, label_count, labels_path, "labels")
    labels = np.frombuffer(raw, dtype=np.uint8).astype(np.int64)

    if label_count != count:
        raise ValueError(f"image/label count mismatch: {count} images vs {label_count} labels")
    features = images.astype(np.float64) / 255.0
    num_classes = int(labels.max()) + 1 if labels.size else 2
    return Dataset(features, labels, max(num_classes, 2), splits=stratified_splits(labels))


def load_csv(path: str, label_column: str) -> Dataset:
    """Load a rectangular CSV of finite numbers with a header row.

    Labels come from the distinct sorted values of `label_column`, mapped
    to contiguous class indices; the remaining columns become features.
    """
    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"empty CSV file {path}") from None
        if label_column not in header:
            raise ValueError(f"label column {label_column!r} not in header {header}")
        label_idx = header.index(label_column)
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ValueError(f"{path}:{lineno}: ragged row with {len(row)} cells, expected {len(header)}")
            try:
                rows.append([float(cell) for cell in row])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric cell") from None
    if not rows:
        raise ValueError(f"no data rows in {path}")
    table = np.asarray(rows, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(table).all(axis=1))
    if bad.size:  # row i was read from line i + 2
        raise ValueError(f"{path}:{bad[0] + 2}: non-finite cell")
    raw_labels = table[:, label_idx]
    feature_cols = [i for i in range(len(header)) if i != label_idx]
    features = np.take(table, feature_cols, axis=1)  # C-ordered, unlike table[:, feature_cols]
    values = np.unique(raw_labels)
    if values.size < 2:
        raise ValueError(f"{path}: need at least 2 distinct label values, found {values.size}")
    labels = np.searchsorted(values, raw_labels).astype(np.int64)
    return Dataset(features, labels, int(values.size), splits=stratified_splits(labels))

