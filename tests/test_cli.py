"""End-to-end command-line tests (in-process through `main`)."""

import dataclasses
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import labo.objectives as objectives_mod
import labo.smoothing as smoothing_mod
from labo.cli import ExperimentConfig, _load_experiment, build_dataset, main
from labo.model import MlpModel, load_checkpoint, save_checkpoint
import golden

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TEMPERED_210_TAU2 = golden.value("labo_from_logits", "q", z="K3-210", tau=2.0)


def strict_json(text):
    """json.loads that refuses the NaN/Infinity constants, which are not JSON."""

    def refuse(name):
        raise ValueError(f"non-JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


def small_config(tmp_path, **overrides):
    doc = {
        "dataset": {"kind": "blobs", "num_classes": 3, "per_class": 60, "dim": 2, "std": 1.0, "seed": 7},
        "hidden": [8],
        "train": {
            "steps": 60,
            "warmup": 20,
            "batch_size": 16,
            "lr": 0.1,
            "seed": 0,
            "mode": "labo",
            "smoothing": {"mode": "labo", "alpha_rule": "adaptive", "alpha": 0.1, "rho": 0.5, "tau": 1.25},
            "eval_every": 20,
            "momentum": 0.9,
            "weight_decay": 0.0005,
            "beta_cp": 0.1,
        },
        "modes": ["none", "ls", "labo"],
        "seeds": [1, 2],
        "out_dir": None,
        "teacher_checkpoint": None,
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


# Each check of `labo verify --quick` in order, with the first word of its
# detail: the instance count, or `tau=1` where the detail reports errors only.
QUICK_CHECKS = [
    ("closed-form-vs-solver", "100"),
    ("tempering-limits", "tau=1"),
    ("temperature-identity", "100"),
    ("kd-decomposition", "100"),
    ("objective-equivalence", "100"),
    ("hessian-diagonal", "10"),
    ("model-gradient-gate", "3"),
    ("zero-hypergradient", "10"),
    ("cp-gradient", "10"),
    ("solver-init-invariance", "5"),
]


def perfbench_checks():
    """The benchmark's output checks (`perfbench/checks.py`), loaded by path."""
    spec = importlib.util.spec_from_file_location("perfbench_checks", os.path.join(REPO_ROOT, "perfbench", "checks.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def cp_losses_scaled(batch_objective, factor=1.01):
    """`batch_objective` with its mode-cp loss rows multiplied by `factor` and every gradient untouched."""

    def mutated(ks, Z, mode, cfg, *args):
        labels, alphas, losses, grad = batch_objective(ks, Z, mode, cfg, *args)
        return labels, alphas, losses * factor if mode == "cp" else losses, grad

    return mutated


def verify_rows(out):
    """(name, status, detail) of each check line of `labo verify` stdout, and its last line."""
    *lines, last = out.splitlines()
    return [(name, status, detail) for name, status, _, detail in (line.split(None, 3) for line in lines)], last


class TestVerifyCommand:
    def test_quick_suite_passes(self, capsys):
        assert main(["verify", "--quick"]) == 0
        rows, last = verify_rows(capsys.readouterr().out)
        assert [(name, status, detail.split()[0]) for name, status, detail in rows] == [
            (name, "PASS", lead) for name, lead in QUICK_CHECKS
        ]
        assert last == "10/10 checks passed"

    @pytest.mark.parametrize(
        "module, name, mutate, check, message",
        [
            # tau <-> 1/tau
            (smoothing_mod, "labo_optimal_smoothing", lambda f: lambda p, tau: f(p, 1.0 / tau), "tempering-limits",
             "tau=1e6 distance from uniform"),
            # a NaN on every instance, which a running `max(worst, x)` drops
            (objectives_mod, "kd_decomposition_residual", lambda f: lambda *args: math.nan, "kd-decomposition",
             "AssertionError: kd decomposition residual nan > 1e-10"),
            # the training loss's tau off by 1% while the per-instance label keeps it
            (objectives_mod, "batch_objective",
             lambda f: lambda ks, Z, mode, cfg, *a: f(ks, Z, mode, dataclasses.replace(cfg, tau=cfg.tau * 1.01), *a),
             "zero-hypergradient", r"AssertionError: hypergradient relative error \d\.\d{3}e-\d\d > 0\.0001$"),
            # the training loss's cp rows 1% high while the cp gradient keeps its value
            (objectives_mod, "batch_objective", cp_losses_scaled, "cp-gradient",
             r"AssertionError: cp gradient relative error \d\.\d{3}e-\d\d > 1e-06$"),
        ],
        ids=["inverted-exponent", "nan-kd-residual", "training-loss-tau", "cp-training-loss"],
    )
    def test_detects_mutation(self, capsys, monkeypatch, module, name, mutate, check, message):
        monkeypatch.setattr(module, name, mutate(getattr(module, name)))
        assert main(["verify", "--quick"]) == 1
        status, detail = {name: (status, detail) for name, status, detail in verify_rows(capsys.readouterr().out)[0]}[check]
        assert status == "FAIL" and re.search(message, detail), detail

    @pytest.mark.parametrize("mutated", [False, True], ids=["passing", "inverted-exponent"])
    def test_json_lists_the_checks_of_the_text_mode(self, capsys, monkeypatch, mutated):
        if mutated:
            wrong = smoothing_mod.labo_optimal_smoothing
            monkeypatch.setattr(smoothing_mod, "labo_optimal_smoothing", lambda p, tau: wrong(p, 1.0 / tau))
        text_code = main(["verify", "--quick"])
        rows, _ = verify_rows(capsys.readouterr().out)
        json_code = main(["verify", "--quick", "--json"])
        results = json.loads(capsys.readouterr().out)
        assert json_code == text_code == (1 if mutated else 0)
        assert [r["name"] for r in results] == list(perfbench_checks().VERIFY_CHECKS)
        assert [(r["name"], "PASS" if r["passed"] else "FAIL", r["detail"]) for r in results] == rows
        assert all(set(r) == {"name", "passed", "detail", "seconds"} and r["seconds"] >= 0 for r in results)


class TestTrainCommand:
    def test_comparison_runs_and_writes_outputs(self, tmp_path, capsys):
        cfg_path = small_config(tmp_path)
        out = tmp_path / "out"
        assert main(["train", "--config", cfg_path, "--out", str(out)]) == 0

        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) == {"none", "ls", "labo"}
        for row in summary.values():
            assert len(row["test_acc"]) == 2
            assert row["failures"] == []
        table = (out / "summary.txt").read_text()
        assert "+/-" in table

        for mode in ("none", "ls", "labo"):
            for seed in (1, 2):
                csv_path = out / f"{mode}_seed{seed}.csv"
                header = csv_path.read_text().split("\n")[0]
                assert header == "step,train_loss,val_acc,mean_confidence,mean_entropy,mean_alpha"
                assert (out / f"{mode}_seed{seed}.checkpoint.json").exists()

    def test_rerun_is_deterministic(self, tmp_path):
        cfg_path = small_config(tmp_path, modes=["ls"], seeds=[3])
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", cfg_path, "--out", str(out_a)]) == 0
        assert main(["train", "--config", cfg_path, "--out", str(out_b)]) == 0
        assert (out_a / "summary.json").read_text() == (out_b / "summary.json").read_text()

    def test_missing_config_is_usage_error(self, tmp_path, capsys):
        assert main(["train", "--config", str(tmp_path / "nope.json")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_unreadable_config_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["train", "--config", str(tmp_path), "--out", str(out)]) == 2
        assert str(tmp_path) in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_config_reports_line(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"dataset": {,}')
        assert main(["train", "--config", str(path)]) == 2
        assert "line" in capsys.readouterr().err

    def test_kd_without_teacher_path_is_config_error(self, tmp_path, capsys):
        cfg_path = small_config(tmp_path, modes=["kd"])
        assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
        assert "teacher_checkpoint" in capsys.readouterr().err

    def test_kd_with_missing_file_names_the_path(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.teacher.json")
        cfg_path = small_config(tmp_path, modes=["kd"], teacher_checkpoint=missing)
        assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
        assert missing in capsys.readouterr().err

    def test_failed_runs_are_recorded_and_do_not_stop_others(self, tmp_path, capsys):
        cfg_path = small_config(tmp_path, modes=["none"], seeds=[1, 2])
        doc = json.loads(Path(cfg_path).read_text())
        doc["train"]["lr"] = 1e12  # guaranteed numeric blow-up
        broken = tmp_path / "broken_lr.json"
        broken.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["train", "--config", str(broken), "--out", str(out)]) == 1
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["none"]["failures"]) == 2
        assert "step" in summary["none"]["failures"][0]["error"]
        assert "RuntimeWarning" not in capsys.readouterr().err

    def test_teacher_run_failure_is_an_error_line(self, tmp_path, capsys):
        doc = json.loads(Path(small_config(tmp_path)).read_text())
        doc["train"]["lr"] = 1e12  # guaranteed numeric blow-up
        broken = tmp_path / "broken_lr.json"
        broken.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["teacher", "--config", str(broken), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "error: teacher run failed: FloatingPointError: non-finite training loss at step" in err
        assert "RuntimeWarning" not in err
        assert not (out / "teacher.checkpoint.json").exists()

    def test_teacher_then_kd_pipeline(self, tmp_path):
        cfg_path = small_config(tmp_path, modes=["kd"], seeds=[1])
        out = tmp_path / "out"
        assert main(["teacher", "--config", cfg_path, "--out", str(out), "--seed", "1"]) == 0
        teacher_path = out / "teacher.checkpoint.json"
        assert teacher_path.exists()

        cfg_path = small_config(tmp_path, modes=["kd"], seeds=[1], teacher_checkpoint=str(teacher_path))
        assert main(["train", "--config", cfg_path, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["kd"]["failures"] == []


class TestConfigPreflight:
    """Bad dataset, batch size or teacher: exit 2 naming the field, before any run."""

    @pytest.mark.parametrize("command", ["train", "teacher", "hist"])
    def test_unknown_dataset_kind(self, tmp_path, capsys, command):
        cfg_path = small_config(tmp_path, dataset={"kind": "nope"})
        ckpt = tmp_path / "model.checkpoint.json"
        save_checkpoint(MlpModel([2, 8, 3], seed=0), str(ckpt))
        out = tmp_path / "out"
        argv = [command, "--config", cfg_path, "--out", str(out)]
        if command == "hist":
            argv += ["--checkpoint", str(ckpt)]
        assert main(argv) == 2
        assert "dataset" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_csv_file(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.csv")
        cfg_path = small_config(tmp_path, dataset={"kind": "csv", "path": missing, "label_column": "y"})
        assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "dataset" in err and missing in err
        assert not (tmp_path / "out").exists()

    def test_non_finite_csv_cell(self, tmp_path, capsys):
        csv_path = tmp_path / "data.csv"
        rows = [f"{i % 7}.0,{i % 3}" for i in range(90)]
        rows[40] = "nan,1"
        csv_path.write_text("x,y\n" + "\n".join(rows) + "\n")
        cfg_path = small_config(tmp_path, dataset={"kind": "csv", "path": str(csv_path), "label_column": "y"})
        out = tmp_path / "out"
        assert main(["train", "--config", cfg_path, "--out", str(out)]) == 2
        assert f"{csv_path}:42: non-finite cell" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    def test_empty_split(self, tmp_path, capsys):
        # one row per class rounds the 10% validation share down to nothing
        cfg_path = small_config(tmp_path, dataset={"kind": "blobs", "num_classes": 3, "per_class": 1})
        assert main(["teacher", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 2
        assert "split 'val' is empty" in capsys.readouterr().err

    def test_batch_size_larger_than_training_split(self, tmp_path, capsys):
        cfg_path = small_config(tmp_path)
        doc = json.loads(Path(cfg_path).read_text())
        doc["train"]["batch_size"] = 100000
        (tmp_path / "config.json").write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["train", "--config", cfg_path, "--out", str(out)]) == 2
        assert "train.batch_size" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    def test_kd_with_mismatched_teacher(self, tmp_path, capsys):
        teacher_path = tmp_path / "k3.teacher.json"
        save_checkpoint(MlpModel([2, 8, 3], seed=0), str(teacher_path))
        four_class = {"kind": "blobs", "num_classes": 4, "per_class": 60, "dim": 2, "std": 1.0, "seed": 7}
        cfg_path = small_config(tmp_path, dataset=four_class, modes=["kd"], teacher_checkpoint=str(teacher_path))
        out = tmp_path / "out"
        assert main(["train", "--config", cfg_path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: teacher_checkpoint {teacher_path} expects 2 features / 3 classes, dataset has 2 / 4\n"
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize(
        "section, name, value, named",
        [
            ("train", "steps", 0, "train.steps must be >= 1"),
            ("train", "lr", 0, "train.lr"),
            ("train", "momentum", 1.0, "train.momentum"),
            ("train", "weight_decay", -0.1, "train.weight_decay"),
            ("smoothing", "mode", "uniform_ls", "train.smoothing.mode must be one of"),
            (None, "hidden", [0], "hidden"),
            (None, "hidden", "abc", "hidden"),
            (None, "seeds", ["x"], "seeds"),
            ("train", "seed", -1, "train.seed"),
            (None, "train", "x", "train must be an object"),
            ("train", "smoothing", "x", "train.smoothing must be an object"),
            ("train", "batch_size", 64.5, "train.batch_size must be an integer"),
            ("train", "eval_every", 2.5, "train.eval_every must be an integer"),
            ("train", "warmup", 2.5, "train.warmup must be an integer"),
            ("train", "steps", True, "train.steps must be an integer"),
            ("smoothing", "tau", float("inf"), "train.smoothing.tau must be a finite number"),
            ("train", "beta_cp", float("inf"), "train.beta_cp must be a finite number"),
            ("train", "weight_decay", float("inf"), "train.weight_decay must be a finite number"),
            ("dataset", "std", float("inf"), "dataset.std must be a finite number"),
            ("train", "steps", "10", "train.steps must be an integer"),
            ("train", "lr", "0.1", "train.lr must be a finite number"),
            ("smoothing", "alpha", "0.1", "train.smoothing.alpha must be a finite number"),
            (None, "modes", "labo", "modes must be a list"),
            ("dataset", "nclasses", 4, "dataset.nclasses is not a known field"),
            ("dataset", "per_class", "x", "dataset.per_class must be an integer"),
            (None, "dataset", "x", "dataset must be an object"),
            (None, "out_dir", 5, "out_dir must be a string or null"),
            (None, "dataset", {"kind": "csv", "path": 0, "label_column": "y"}, "dataset.path must be a string"),
            (None, "dataset", {"kind": "idx", "images": 0, "labels": "y"}, "dataset.images must be a string"),
            (None, "dataset", {"kind": "idx", "images": "x", "labels": 1}, "dataset.labels must be a string"),
            (None, "teacher_checkpoint", 0, "teacher_checkpoint must be a string or null"),
            (None, "seeds", [1, 1], "seeds must be a non-empty list without repeats"),
            (None, "modes", ["ls", "none", "ls"], "modes must be a non-empty list without repeats"),
            ("smoothing", "tau", 10**400, "train.smoothing.tau must be a finite number"),
            # 4.16 EiB: more than any address space, whatever the overcommit policy
            (None, "hidden", [10**17], "hidden [100000000000000000] needs 600000000000000003 parameters"),
        ],
        ids=[
            "steps", "lr", "momentum", "weight_decay", "smoothing.mode", "hidden-zero", "hidden-str", "seeds", "seed",
            "train-not-object", "smoothing-not-object", "batch_size-float", "eval_every-float", "warmup-float",
            "steps-bool", "tau-inf", "beta_cp-inf", "weight_decay-inf", "std-inf", "steps-str", "lr-str", "alpha-str",
            "modes-str", "dataset-unknown-key", "per_class-str", "dataset-not-object", "out_dir-int", "path-int",
            "images-int", "labels-int", "teacher_checkpoint-int", "seeds-repeated", "modes-repeated", "tau-huge-int",
            "hidden-huge",
        ],
    )
    def test_bad_field_is_named_before_any_run(self, tmp_path, capsys, section, name, value, named):
        doc = json.loads(Path(small_config(tmp_path)).read_text())
        sections = {"train": doc["train"], "smoothing": doc["train"]["smoothing"], "dataset": doc["dataset"]}
        target = {**sections, None: doc}[section]
        target[name] = value
        (tmp_path / "config.json").write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["train", "--config", str(tmp_path / "config.json"), "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_teacher_rejects_bad_lr(self, tmp_path, capsys):
        doc = json.loads(Path(small_config(tmp_path)).read_text())
        doc["train"]["lr"] = 0
        (tmp_path / "config.json").write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["teacher", "--config", str(tmp_path / "config.json"), "--out", str(out)]) == 2
        assert "train.lr must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_checkpoint_with_missing_layer(self, tmp_path, capsys):
        ckpt = tmp_path / "cut.checkpoint.json"
        save_checkpoint(MlpModel([2, 8, 3], seed=0), str(ckpt))
        doc = json.loads(ckpt.read_text())
        doc["layers"] = doc["layers"][:1]
        ckpt.write_text(json.dumps(doc))
        out = tmp_path / "out"
        argv = ["hist", "--checkpoint", str(ckpt), "--config", small_config(tmp_path), "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert str(ckpt) in err and "layers" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "doc",
        [
            {"format": "labo-mlp-checkpoint-v1", "layer_sizes": [2, 8, 3], "seed": 0},
            [1, 2],
            {"format": "labo-mlp-checkpoint-v1", "layer_sizes": [2, 8, 3], "seed": 0, "layers": [1, 2]},
            {
                "format": "labo-mlp-checkpoint-v1",
                "layer_sizes": [2, 3],
                "seed": 0,
                "layers": [
                    {
                        "weight_shape": [2, 3],
                        "weight": [["1", "0", "0"], ["0", "1", "0"]],
                        "bias_shape": [3],
                        "bias": [0, 0, 0],
                    }
                ],
            },
        ],
        ids=["missing-layers", "not-an-object", "layers-not-objects", "weight-not-numeric"],
    )
    def test_malformed_checkpoint(self, tmp_path, capsys, doc):
        ckpt = tmp_path / "bad.checkpoint.json"
        ckpt.write_text(json.dumps(doc))
        out = tmp_path / "out"
        argv = ["hist", "--checkpoint", str(ckpt), "--config", small_config(tmp_path), "--out", str(out)]
        assert main(argv) == 2
        assert str(ckpt) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, entry, value, named",
        [
            ("weight", (0, 1), "0.5", "layers[1].weight[0][1] must be a finite number, got '0.5'"),
            ("bias", (2,), True, "layers[1].bias[2] must be a finite number, got True"),
            ("weight", (1, 0), None, "layers[1].weight[1][0] must be a finite number, got None"),
            ("bias", (0,), math.nan, "layers[1].bias[0] must be a finite number, got nan"),
            ("weight", (0, 0), 10**400, "layers[1].weight[0][0] must be a finite number, got 1000"),
            ("weight", (1,), [0.0, 0.0], "layers[1].weight must be a list of rows of equal length"),
            ("weight", (), "flat", "layers[1].weight[0] must be a list, got "),
            ("weight_shape", (), [3, 8], "layers[1].weight and weight_shape are [[8, 3], [3, 8]]; need [8, 3]"),
            ("layer_sizes", (1,), 10**12, "layers[0].weight and weight_shape are [[2, 8], [2, 8]]; need [2, 1000000000000]"),
        ],
        ids=[
            "string", "true", "null", "nan", "overflowing-int", "ragged-row", "flat-weight", "weight_shape-disagrees",
            "huge-width",
        ],
    )
    def test_bad_checkpoint_array_is_named(self, tmp_path, capsys, field, entry, value, named):
        ckpt = tmp_path / "bad.checkpoint.json"
        save_checkpoint(MlpModel([2, 8, 3], seed=0), str(ckpt))
        doc = json.loads(ckpt.read_text())
        holder = doc if field == "layer_sizes" else doc["layers"][1]
        if value == "flat":
            value = [x for row in holder[field] for x in row]
        if entry:
            *outer, last = entry
            target = holder[field]
            for i in outer:
                target = target[i]
            target[last] = value
        else:
            holder[field] = value
        ckpt.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as err:
            load_checkpoint(str(ckpt))
        message = str(err.value)
        assert str(ckpt) in message and named in message
        assert len(message) < len(str(ckpt)) + 200  # an overflowing int is not printed in full
        out = tmp_path / "out"
        argv = ["hist", "--checkpoint", str(ckpt), "--config", small_config(tmp_path), "--out", str(out)]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["verify", "teacher"])
    def test_negative_seed_flag(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        argv = [command, "--seed", "-1"]
        if command == "teacher":
            argv += ["--config", small_config(tmp_path), "--out", str(out)]
        assert main(argv) == 2
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()


# Allocates and frees two 256 KiB arrays 50 times after one `main` call and
# prints the page faults this took; they are 0 when the freed blocks are
# reused from the heap rather than unmapped or trimmed and faulted in again.
HEAP_REUSE_SCRIPT = """
import resource
import numpy as np
from labo.cli import main
assert main(["smooth", "--logits", "2,1,0"]) == 0
a, b = np.ones((128, 64)), np.ones((64, 256))
for _ in range(5):
    np.maximum(a @ b, 0.0)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(50):
    np.maximum(a @ b, 0.0)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc mallopt thresholds")
def test_step_sized_temporaries_stay_on_the_heap():
    proc = subprocess.run(
        [sys.executable, "-c", HEAP_REUSE_SCRIPT],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.split()[-1]) == 0


class TestSmoothCommand:
    def test_inspects_pipeline(self, capsys):
        assert main(["smooth", "--logits", "2,1,0", "--k", "0", "--tau", "2", "--alpha", "0.4"]) == 0
        doc = strict_json(capsys.readouterr().out)
        np.testing.assert_allclose(doc["optimal_smoothing"], TEMPERED_210_TAU2, atol=1e-9)
        assert doc["alpha_used"] == 0.4
        assert doc["objective"]["total"] == pytest.approx(
            doc["objective"]["ce_term"] + doc["objective"]["kl_term"], abs=1e-12
        )

    def test_default_temperature(self, capsys):
        assert main(["smooth", "--logits", "1,0"]) == 0
        doc = strict_json(capsys.readouterr().out)
        assert doc["tau"] == 1.25

    def test_zero_alpha_unit_tau_gives_onehot(self, capsys):
        assert main(["smooth", "--logits", "2,1,0", "--k", "1", "--tau", "1", "--alpha", "0"]) == 0
        doc = strict_json(capsys.readouterr().out)
        np.testing.assert_array_equal(doc["label"], [0.0, 1.0, 0.0])

    def test_malformed_logits(self, capsys):
        assert main(["smooth", "--logits", "2,spam,0"]) == 2
        assert "logits" in capsys.readouterr().err

    def test_logit_range_overflow(self, capsys):
        assert main(["smooth", "--logits", "1e308,-1e308,0"]) == 2
        out, err = capsys.readouterr()
        assert "logit range" in err and out == ""

    def test_target_out_of_range(self, capsys):
        assert main(["smooth", "--logits", "2,1,0", "--k", "7"]) == 2

    def test_uniform_logits_at_unit_rho(self, capsys):
        # H(p) of a uniform p rounds above log 5; alpha stays at 1 - rho = 0, not just below it
        assert main(["smooth", "--logits", "0,0,0,0,0", "--rho", "1"]) == 0
        doc = strict_json(capsys.readouterr().out)
        assert doc["alpha_used"] == 0.0
        assert doc["label"] == [1.0, 0.0, 0.0, 0.0, 0.0]

    @pytest.mark.parametrize("flag, value", [("--tau", "inf"), ("--alpha", "nan"), ("--rho", "inf")])
    def test_non_finite_hyperparameter(self, capsys, flag, value):
        assert main(["smooth", "--logits", "2,1,0", flag, value]) == 2
        out, err = capsys.readouterr()
        assert f"{flag} must be a finite number" in err and out == ""


class TestHistCommand:
    def test_zero_weight_checkpoint_concentrates_at_uniform(self, tmp_path):
        cfg_path = small_config(tmp_path)
        ckpt = tmp_path / "zero.checkpoint.json"
        save_checkpoint(MlpModel([2, 8, 3], seed=0, init=False), str(ckpt))
        out = tmp_path / "h"
        assert main(["hist", "--checkpoint", str(ckpt), "--config", cfg_path, "--out", str(out)]) == 0
        doc = json.loads((out / "hist.json").read_text())
        counts = doc["histogram"]["counts"]
        assert sum(counts) == 18  # test split of 180-sample blobs
        assert counts[6] == 18  # 1/3 lands in [0.30, 0.35)
        dat = (out / "hist.dat").read_text().strip().split("\n")
        assert len(dat) == 20
        assert float(dat[6].split()[0]) == pytest.approx(0.325)

    def test_shape_mismatch_is_config_error(self, tmp_path, capsys):
        cfg_path = small_config(tmp_path)
        ckpt = tmp_path / "wide.checkpoint.json"
        save_checkpoint(MlpModel([9, 4, 3], seed=0), str(ckpt))
        assert main(["hist", "--checkpoint", str(ckpt), "--config", cfg_path, "--out", str(tmp_path)]) == 2
        assert "features" in capsys.readouterr().err


class TestExperimentConfig:
    def test_committed_example_loads(self):
        cfg, data = _load_experiment(os.path.join(REPO_ROOT, "configs", "blobs_comparison.json"))
        assert cfg.modes == ["none", "ls", "cp", "labo"]
        assert cfg.seeds == [1, 2, 3, 4, 5]
        assert data.num_classes == 3

    def test_requires_modes_and_seeds(self):
        with pytest.raises(ValueError):
            ExperimentConfig(dataset={"kind": "blobs"}, modes=[])
        with pytest.raises(ValueError):
            ExperimentConfig(dataset={"kind": "blobs"}, seeds=[])
        with pytest.raises(ValueError):
            ExperimentConfig(dataset={"kind": "blobs"}, modes=["bogus"])

    def test_build_dataset_kinds(self, tmp_path):
        blobs = build_dataset({"kind": "blobs", "num_classes": 3, "per_class": 10})
        assert blobs.num_classes == 3
        with pytest.raises(ValueError, match="kind"):
            build_dataset({"kind": "parquet"})


class TestOutputDirPrecedence:
    def test_env_var_is_used_and_overridden(self, tmp_path, monkeypatch, capsys):
        env_dir = tmp_path / "from-env"
        monkeypatch.setenv("LABO_OUT", str(env_dir))
        cfg_path = small_config(tmp_path, modes=["ls"], seeds=[1])
        assert main(["train", "--config", cfg_path]) == 0
        assert (env_dir / "summary.json").exists()

        flag_dir = tmp_path / "from-flag"
        assert main(["train", "--config", cfg_path, "--out", str(flag_dir)]) == 0
        assert (flag_dir / "summary.json").exists()
