"""The field tables and their checker (`labo.schema`)."""

import json
import math
import os
import re
import sys

import numpy as np
import pytest

from labo.cli import ExperimentConfig
from labo.model import MlpModel, SgdOptimizer
from labo.schema import BLOBS, DATASETS, EXPERIMENT, REQUIRED, Field, check
from labo.smoothing import SmoothingConfig
from labo.train import TrainConfig

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestRows:
    @pytest.mark.parametrize("value", [math.nan, True, "0.1"])
    def test_float_must_be_a_finite_number(self, value):
        with pytest.raises(ValueError, match="x must be a finite number"):
            check({"x": value}, {"x": Field(float)})

    def test_float_accepts_an_int(self):
        assert check({"x": 3}, {"x": Field(float)}) == {"x": 3}

    @pytest.mark.parametrize(
        "row, value, path",
        [(float, 10**400, "x"), ([float], [0.5, -(10**400)], "x[1]"), ([[float]], [[0.5], [10**400]], "x[1][0]")],
        ids=["float", "float-list", "float-rows"],
    )
    def test_int_beyond_float64_is_named_in_a_short_message(self, row, value, path):
        with pytest.raises(ValueError, match=f"^{re.escape(path)} must be a finite number, got -?1000") as err:
            check({"x": value}, {"x": Field(row)})
        assert len(str(err.value)) < 80
        assert check({"x": int(sys.float_info.max)}, {"x": Field(float)})["x"] == int(sys.float_info.max)

    def test_float_rows_come_back_as_float64_arrays(self):
        doc = {"w": [[1, 2.5], [3.0, -4]], "b": [1, 2.0]}
        out = check(doc, {"w": Field([[float]]), "b": Field([float])})
        np.testing.assert_array_equal(out["w"], np.array([[1.0, 2.5], [3.0, -4.0]]))
        np.testing.assert_array_equal(out["b"], np.array([1.0, 2.0]))
        assert out["w"].dtype == out["b"].dtype == np.float64
        assert check({"b": [np.float32(0.5)]}, {"b": Field([float])})["b"].tolist() == [0.5]

    def test_numpy_scalars_count(self):
        assert TrainConfig(steps=np.int64(5), lr=np.float32(0.5)).steps == 5
        with pytest.raises(ValueError, match="n must be an integer"):
            check({"n": np.True_}, {"n": Field(int)})

    @pytest.mark.parametrize(
        "rng, inside, outside",
        [("positive", 1e-300, 0), (">= 1", 1, 0), ("[0, 1]", 1, 1.0000001), ("[0, 1)", 0, 1), ("[0.5, 1]", 0.5, 0.49)],
    )
    def test_range_bounds(self, rng, inside, outside):
        table = {"x": Field(float, rng)}
        check({"x": inside}, table)
        with pytest.raises(ValueError, match=re.escape(f"x must be {rng if rng[0] in 'p>' else 'in ' + rng}")):
            check({"x": outside}, table)

    def test_list_entry_is_named_by_index(self):
        table = {"rows": Field([{"w": Field([[float]], default=REQUIRED)}])}
        with pytest.raises(ValueError, match=r"^rows\[1\]\.w\[0\]\[2\] must be a finite number, got 'x'$"):
            check({"rows": [{"w": [[1.0]]}, {"w": [[1.0, 2.0, "x"]]}]}, table)

    def test_repeats_are_allowed_unless_distinct(self):
        assert ExperimentConfig(dataset={}, hidden=[8, 8]).hidden == [8, 8]
        with pytest.raises(ValueError, match="without repeats"):
            check({"h": [8, 8]}, {"h": Field([int], distinct=True)})


class TestConfigs:
    def test_rule_across_fields_is_named_by_its_path(self):
        with pytest.raises(ValueError, match=r"^train\.warmup must be <= steps \(5\), got 6$"):
            ExperimentConfig.from_dict({"dataset": {}, "train": {"steps": 5, "warmup": 6}})

    def test_nested_config_given_as_a_dict_becomes_a_config(self):
        assert TrainConfig(smoothing={"tau": 2.0}).smoothing == SmoothingConfig(tau=2.0)
        cfg = ExperimentConfig(dataset={}, train={"steps": 5, "smoothing": {"alpha": 0.2}})
        assert cfg.train == TrainConfig(steps=5, smoothing=SmoothingConfig(alpha=0.2))
        with pytest.raises(ValueError, match=r"^smoothing\.tau must be positive, got -1$"):
            TrainConfig(smoothing={"tau": -1})

    @pytest.mark.parametrize("name, value", [("lr", 0.0), ("momentum", 1.0), ("weight_decay", math.inf)])
    def test_sgd_and_train_config_share_their_rows(self, name, value):
        with pytest.raises(ValueError) as from_sgd:
            SgdOptimizer(MlpModel([2, 3]), **{"lr": 0.1, name: value})
        with pytest.raises(ValueError) as from_config:
            TrainConfig(**{name: value})
        assert str(from_sgd.value) == str(from_config.value)


def _documented_fields() -> dict:
    """Field -> default cell of the README's configuration table."""
    rows = {}
    with open(os.path.join(REPO_ROOT, "README.md")) as f:
        for line in f:
            cells = [c.strip() for c in line.split("|")[1:-1]]
            if line.startswith("| `") and len(cells) == 4:
                for name in re.findall(r"`([a-z_.]+)`", cells[0]):
                    rows[name] = cells[3]
    return rows


def _table_fields(table: dict, where: str = "") -> set:
    names = set()
    for name, f in table.items():
        path = f"{where}.{name}" if where else name
        names |= _table_fields(f.type, path) if isinstance(f.type, dict) else {path}
    return names


def test_readme_table_lists_every_config_field_with_its_default():
    documented = _documented_fields()
    dataset_fields = {f"dataset.{name}" for table in DATASETS.values() for name in table}
    assert set(documented) == _table_fields(EXPERIMENT) | dataset_fields
    defaults = {f"train.{k}": v for k, v in vars(TrainConfig()).items() if k != "smoothing"}
    defaults |= {f"train.smoothing.{k}": v for k, v in vars(SmoothingConfig()).items()}
    defaults |= {k: v for k, v in vars(ExperimentConfig(dataset={})).items() if k not in ("dataset", "train")}
    defaults |= {f"dataset.{k}": f.default for k, f in BLOBS.items()}
    for name, value in defaults.items():
        cell = documented[name].split(":")[0].split(";")[0].strip("` ")
        assert json.loads(cell) == value, name
