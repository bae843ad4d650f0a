"""Dataset generator and loader tests."""

import struct

import numpy as np
import pytest

from labo.data import Dataset, gaussian_blobs, load_csv, load_idx, stratified_splits


def nearest_centroid_accuracy(data: Dataset) -> float:
    """Independent sanity classifier used to pin the blob geometry."""
    Xtr, ytr = data.split_arrays("train")
    Xte, yte = data.split_arrays("test")
    centroids = np.stack([Xtr[ytr == c].mean(axis=0) for c in range(data.num_classes)])
    d2 = ((Xte[:, None, :] - centroids[None]) ** 2).sum(axis=-1)
    return float((d2.argmin(axis=1) == yte).mean())


def write_idx_fixture(tmp_path, pixels, labels, image_magic=0x803, label_magic=0x801,
                      truncate_images=False, label_count=None):
    """pixels: list of 2x2 images as 4 raw byte values each."""
    img_path = tmp_path / "images.idx"
    lbl_path = tmp_path / "labels.idx"
    buf = struct.pack(">IIII", image_magic, len(pixels), 2, 2)
    for img in pixels:
        buf += bytes(img)
    if truncate_images:
        buf = buf[:-2]
    img_path.write_bytes(buf)
    n = len(labels) if label_count is None else label_count
    lbl_path.write_bytes(struct.pack(">II", label_magic, n) + bytes(labels))
    return str(img_path), str(lbl_path)


class TestGaussianBlobs:
    def test_deterministic_under_seed(self):
        a = gaussian_blobs(3, 50, dim=2, std=1.0, seed=9)
        b = gaussian_blobs(3, 50, dim=2, std=1.0, seed=9)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)
        for name in a.splits:
            np.testing.assert_array_equal(a.splits[name], b.splits[name])

    def test_tiny_spread_is_perfectly_separable(self):
        data = gaussian_blobs(3, 50, dim=2, std=1e-6, seed=0)
        assert nearest_centroid_accuracy(data) == 1.0

    def test_pinned_geometry_hits_target_difficulty(self):
        """std=1.0 on the radius-2 circle: Bayes-limited but learnable."""
        data = gaussian_blobs(3, 2000, dim=2, std=1.0, seed=7)
        assert 0.85 <= nearest_centroid_accuracy(data) <= 0.95

    def test_extra_dimensions_are_noise(self):
        data = gaussian_blobs(3, 40, dim=5, std=0.5, seed=1)
        assert data.dim == 5
        class_means = np.stack(
            [data.features[data.labels == c].mean(axis=0) for c in range(3)]
        )
        assert np.abs(class_means[:, 2:]).max() < 0.5

    def test_splits_partition_everything(self):
        data = gaussian_blobs(4, 30, dim=2, std=1.0, seed=3)
        joined = np.concatenate([data.splits[n] for n in ("train", "val", "test")])
        assert joined.size == data.features.shape[0]
        assert np.unique(joined).size == joined.size

    def test_splits_are_stratified(self):
        data = gaussian_blobs(3, 100, dim=2, std=1.0, seed=3)
        for name, frac in [("train", 0.8), ("val", 0.1), ("test", 0.1)]:
            labels = data.labels[data.splits[name]]
            counts = np.bincount(labels, minlength=3)
            np.testing.assert_array_equal(counts, [int(frac * 100)] * 3)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            gaussian_blobs(1, 10)
        with pytest.raises(ValueError):
            gaussian_blobs(3, 10, std=0.0)
        with pytest.raises(ValueError):
            gaussian_blobs(3, 10, dim=1)


class TestLoadIdx:
    def test_hand_crafted_fixture(self, tmp_path):
        img, lbl = write_idx_fixture(tmp_path, [[0, 1, 2, 255], [10, 20, 30, 40]], [0, 1])
        data = load_idx(img, lbl)
        assert data.features.shape == (2, 4)
        np.testing.assert_array_equal(
            data.features,
            np.array([[0, 1, 2, 255], [10, 20, 30, 40]], dtype=np.float64) / 255.0,
        )
        np.testing.assert_array_equal(data.labels, [0, 1])
        assert data.num_classes == 2

    def test_bad_image_magic(self, tmp_path):
        img, lbl = write_idx_fixture(tmp_path, [[0, 0, 0, 0]], [0], image_magic=0x123)
        with pytest.raises(ValueError, match="bad magic"):
            load_idx(img, lbl)

    def test_bad_label_magic(self, tmp_path):
        img, lbl = write_idx_fixture(tmp_path, [[0, 0, 0, 0]], [0], label_magic=0x123)
        with pytest.raises(ValueError, match="bad magic"):
            load_idx(img, lbl)

    def test_truncated_pixels(self, tmp_path):
        img, lbl = write_idx_fixture(tmp_path, [[0, 0, 0, 0]], [0], truncate_images=True)
        with pytest.raises(ValueError, match="truncated"):
            load_idx(img, lbl)

    def test_count_mismatch(self, tmp_path):
        img, lbl = write_idx_fixture(tmp_path, [[0, 0, 0, 0], [1, 1, 1, 1]], [0])
        with pytest.raises(ValueError, match="mismatch"):
            load_idx(img, lbl)


class TestLoadCsv:
    def test_toy_fixture(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("a,b,label\n1.0,2.0,10\n3.0,4.0,20\n5.5,6.5,10\n0.0,-1.0,20\n")
        data = load_csv(str(path), "label")
        np.testing.assert_array_equal(
            data.features, [[1.0, 2.0], [3.0, 4.0], [5.5, 6.5], [0.0, -1.0]]
        )
        np.testing.assert_array_equal(data.labels, [0, 1, 0, 1])
        assert data.num_classes == 2

    def test_label_column_position_is_flexible(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("label,a\n1,0.5\n0,0.25\n")
        data = load_csv(str(path), "label")
        np.testing.assert_array_equal(data.features, [[0.5], [0.25]])
        np.testing.assert_array_equal(data.labels, [1, 0])

    def test_features_are_c_contiguous_parsed_columns(self, tmp_path):
        """The label column sits between feature columns; the rest come back C-ordered, as parsed."""
        rng = np.random.default_rng(3)
        table = rng.normal(size=(40, 6))
        table[:, 2] = np.arange(40) % 4
        path = tmp_path / "mid.csv"
        path.write_text("a,b,label,c,d,e\n" + "".join(",".join(map(repr, row.tolist())) + "\n" for row in table))
        data = load_csv(str(path), "label")
        assert data.features.flags.c_contiguous
        np.testing.assert_array_equal(data.features, table[:, [0, 1, 3, 4, 5]])
        np.testing.assert_array_equal(data.labels, table[:, 2].astype(np.int64))

    def test_single_class_rejected(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("a,label\n1.0,3\n2.0,3\n")
        with pytest.raises(ValueError, match="distinct"):
            load_csv(str(path), "label")

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b,label\n1.0,2.0,0\n1.0,1\n")
        with pytest.raises(ValueError, match="ragged"):
            load_csv(str(path), "label")

    def test_non_numeric_cell_rejected(self, tmp_path):
        path = tmp_path / "text.csv"
        path.write_text("a,label\noops,0\n1.0,1\n")
        with pytest.raises(ValueError, match="non-numeric"):
            load_csv(str(path), "label")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_rejected(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"a,label\n1.0,0\n{cell},1\n")
        with pytest.raises(ValueError, match="bad.csv:3: non-finite cell"):
            load_csv(str(path), "label")

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="label column"):
            load_csv(str(path), "y")

    def test_round_trip_of_generated_blobs(self, tmp_path):
        data = gaussian_blobs(3, 20, dim=3, std=0.7, seed=5)
        path = tmp_path / "blobs.csv"
        rows = [",".join(map(repr, x.tolist())) + f",{y}" for x, y in zip(data.features, data.labels)]
        path.write_text("x0,x1,x2,label\n" + "\n".join(rows) + "\n")
        loaded = load_csv(str(path), "label")
        np.testing.assert_array_equal(loaded.features, data.features)  # repr round-trips every double
        np.testing.assert_array_equal(loaded.labels, data.labels)


class TestDatasetInvariants:
    def test_rejects_overlapping_splits(self):
        with pytest.raises(ValueError, match="overlap"):
            Dataset(
                features=np.zeros((4, 2)),
                labels=np.array([0, 1, 0, 1]),
                num_classes=2,
                splits={"train": np.array([0, 1]), "val": np.array([1, 2])},
            )

    def test_features_are_stored_c_contiguous(self):
        features = np.asfortranarray(np.arange(12.0).reshape(6, 2))
        data = Dataset(features=features, labels=np.array([0, 1] * 3), num_classes=2)
        assert data.features.flags.c_contiguous
        np.testing.assert_array_equal(data.features, features)

    def test_rejects_out_of_range_labels(self):
        with pytest.raises(ValueError, match="range"):
            Dataset(features=np.zeros((2, 2)), labels=np.array([0, 5]), num_classes=2)

    def test_stratified_splits_fraction(self):
        labels = np.repeat([0, 1], 50)
        splits = stratified_splits(labels)
        assert splits["train"].size == 80
        assert splits["val"].size == 10
        assert splits["test"].size == 10
