"""The benchmark's workloads: inputs, set-up, and one round of operations.

A round has the same shape on every workload: one `labo train` call per
mode (`none`, `ls`, `cp`, `kd`, `labo`), each over the workload's training
seeds, followed by `labo verify`. The workloads differ in the dataset and
model the table trains and in the size of the verify suite:

- blobs-k3:    the committed 3-class blobs problem, 2->32->3 MLP, 500 steps x
               2 seeds per mode; `labo verify --quick` twice.
- wide-k100:   100 Gaussian classes in 64 features, generated from the seed and
               read back through `labo.data.load_csv`; 64->256->100 MLP, 200
               steps x 2 seeds per mode; `labo verify --quick` twice.
- verify-full: the blobs-k3 table, then the full `labo verify`.

Everything goes through `labo.cli.main`; outputs are checked after each call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

import checks
from checks import MODES
import labo.cli
from labo.data import gaussian_blobs, load_csv

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBE = os.path.join(HERE, "setup_probe.py")
SETUP_REPEATS = 5  # set-up is timed in fresh interpreters; setup_s is their median

# dataset of configs/blobs_comparison.json
BLOBS = {"kind": "blobs", "num_classes": 3, "per_class": 2000, "dim": 2, "std": 1.0, "seed": 7}

# the wide problem: class means ~ N(0, WIDE_SEP^2 I), unit noise; a
# nearest-class-mean classifier scores about 0.95 on it
WIDE_CLASSES, WIDE_DIM, WIDE_PER_CLASS, WIDE_SEP = 100, 64, 60, 0.6

# training hyperparameters of configs/blobs_comparison.json
TRAIN = {
    "batch_size": 128,
    "lr": 0.1,
    "momentum": 0.9,
    "weight_decay": 0.0005,
    "beta_cp": 0.1,
    "smoothing": {"mode": "labo", "alpha_rule": "adaptive", "alpha": 0.1, "rho": 0.5, "tau": 1.25},
}


@dataclass(frozen=True)
class Table:
    """The training table one round runs."""

    dataset: str  # "blobs" or "wide"
    hidden: int
    steps: int
    warmup: int  # labo runs only
    eval_every: int
    seeds_per_mode: int
    margin: float  # allowed accuracy shortfall below nearest-class-mean


@dataclass(frozen=True)
class Workload:
    name: str
    table: Table
    quick_verify: bool


BLOBS_TABLE = Table("blobs", hidden=32, steps=500, warmup=125, eval_every=100, seeds_per_mode=2, margin=0.03)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("blobs-k3", BLOBS_TABLE, quick_verify=True),
        Workload(
            "wide-k100",
            Table("wide", hidden=256, steps=200, warmup=50, eval_every=50, seeds_per_mode=2, margin=0.15),
            quick_verify=True,
        ),
        Workload("verify-full", BLOBS_TABLE, quick_verify=False),
    )
}


# This VM's speed drifts by up to +-30% within minutes as other tenants load
# the host: the same full `labo verify` took 4.6 s and 7.2 s three minutes
# apart. Each timed call is therefore followed by a fixed job that never
# touches labo, and its wall time is divided by the machine's speed at that
# moment: the mean of the job's times before and after it, over
# PROBE_NOMINAL_S. The figures read as wall times on a machine where the job
# takes PROBE_NOMINAL_S.
PROBE_NOMINAL_S = 0.015


class SpeedProbe:
    """Times a fixed numpy/Python job: a 128x64x256 matmul, row softmaxes, float parsing."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((128, 64))
        self._b = rng.standard_normal((64, 256))
        self._z = rng.standard_normal((128, 3))
        self._cells = [repr(float(x)) for x in rng.standard_normal(256)]
        self.job()  # the first call pays numpy's lazy set-up
        self._last = self.job()
        self.speeds: list[float] = []

    def job(self) -> float:
        start = time.perf_counter()
        for _ in range(60):
            np.maximum(self._a @ self._b, 0.0)
            e = np.exp(self._z - self._z.max(axis=1, keepdims=True))
            e /= e.sum(axis=1, keepdims=True)
            [float(c) for c in self._cells]
        return time.perf_counter() - start

    def scale(self, seconds: float) -> float:
        """Wall `seconds` of the call that just ended, at the nominal machine speed."""
        after = self.job()
        speed = (self._last + after) / (2.0 * PROBE_NOMINAL_S)
        self._last = after
        self.speeds.append(speed)
        return seconds / speed


class BenchError(Exception):
    """A workload could not run at all."""


@dataclass
class RoundResult:
    train_s: dict  # mode -> wall seconds of its `labo train` call, at nominal speed
    verify_s: list  # wall seconds of each `labo verify` call, at nominal speed
    attempted: int
    failed: int
    problems: list


def write_wide_csv(path: str, seed: int):
    """Generate the wide problem from `seed`, write it as CSV, return (features, labels)."""
    rng = np.random.default_rng([seed, WIDE_CLASSES, WIDE_DIM])
    means = WIDE_SEP * rng.standard_normal((WIDE_CLASSES, WIDE_DIM))
    labels = rng.permutation(np.repeat(np.arange(WIDE_CLASSES), WIDE_PER_CLASS))
    features = means[labels] + rng.standard_normal((labels.size, WIDE_DIM))
    lines = [",".join([f"x{i}" for i in range(WIDE_DIM)] + ["label"])]
    lines += [",".join(map(repr, row.tolist())) + f",{label}" for row, label in zip(features, labels)]
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    return features, labels


class Bench:
    """One workload in one output directory: set-up, rounds and their checks."""

    def __init__(self, workload: Workload, seed: int, out_dir: str):
        self.w = workload
        self.t = workload.table
        self.out = out_dir
        rng = np.random.default_rng([seed, 7])
        self.seeds = sorted(int(s) for s in rng.choice(1_000_000, size=self.t.seeds_per_mode, replace=False))
        os.makedirs(out_dir, exist_ok=True)

        # inputs, made apart from the program and not timed as set-up
        if self.t.dataset == "wide":
            csv_path = os.path.join(out_dir, "wide.csv")
            features, labels = write_wide_csv(csv_path, seed)
            self.dataset_spec = {"kind": "csv", "path": csv_path, "label_column": "label"}
            data = load_csv(csv_path, "label")
            self.data_problems = checks.check_loaded_dataset(data, features, labels)
        else:
            self.dataset_spec = dict(BLOBS)
            data = gaussian_blobs(**{k: v for k, v in BLOBS.items() if k != "kind"})
            self.data_problems = []
        self.test_x, self.test_y = data.split_arrays("test")
        train_x, train_y = data.split_arrays("train")
        self.ncm_acc = checks.nearest_mean_accuracy(train_x, train_y, self.test_x, self.test_y, data.num_classes)

        self.teacher_dir = os.path.join(out_dir, "teacher")
        self.configs = {mode: self._write_config(mode) for mode in MODES}
        self.probe = SpeedProbe()

    def _write_config(self, mode: str) -> str:
        doc = {
            "dataset": self.dataset_spec,
            "hidden": [self.t.hidden],
            "train": {**TRAIN, "steps": self.t.steps, "warmup": self.t.warmup, "eval_every": self.t.eval_every},
            "modes": [mode],
            "seeds": self.seeds,
            "out_dir": os.path.join(self.out, mode),
            "teacher_checkpoint": os.path.join(self.teacher_dir, "teacher.checkpoint.json"),
        }
        path = os.path.join(self.out, f"{mode}.json")
        with open(path, "w") as f:
            json.dump(doc, f, indent=1)
        return path

    def setup(self) -> list[float]:
        """Run the set-up in fresh interpreters; return each one's wall seconds at nominal speed.

        One set-up is interpreter start, `import labo`, and `labo teacher`
        (dataset build or CSV load plus the kd teacher). The teacher the last
        one writes is the one the kd runs use.
        """
        times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, SETUP_PROBE, self.configs["kd"], self.teacher_dir],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                timeout=120,
            )
            times.append(self.probe.scale(time.perf_counter() - start))
            if proc.returncode != 0:
                raise BenchError(f"set-up exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return times

    def run_round(self) -> RoundResult:
        train_s = {}
        attempted, failed, problems = 0, 0, []
        for mode in MODES:
            shutil.rmtree(os.path.join(self.out, mode), ignore_errors=True)
            code, _, seconds = _call_cli(["train", "--config", self.configs[mode]])
            train_s[mode] = self.probe.scale(seconds)
            for seed, found in self._check_mode(mode, code):
                attempted += 1
                if found:
                    failed += 1
                    problems.append(f"{mode} seed {seed}: {'; '.join(found)}")

        # a quick suite is short next to the table, so it runs twice for as
        # many verify_s samples per run as the other metrics get
        args = ["verify", "--quick"] if self.w.quick_verify else ["verify"]
        verify_s = []
        for _ in range(2 if self.w.quick_verify else 1):
            code, text, seconds = _call_cli(args)
            verify_s.append(self.probe.scale(seconds))
            for name, found in checks.check_verify_output(text, code, self.w.quick_verify).items():
                attempted += 1
                if found:
                    failed += 1
                    problems.append(f"verify {name}: {'; '.join(found)}")
        return RoundResult(train_s, verify_s, attempted, failed, problems)

    def _check_mode(self, mode: str, exit_code: int):
        """Yield (seed, problems) for each run of one `labo train` call."""
        mode_dir = os.path.join(self.out, mode)
        try:
            with open(os.path.join(mode_dir, "summary.json")) as f:
                row = json.load(f)[mode]
        except (OSError, ValueError, KeyError) as e:
            for seed in self.seeds:
                yield seed, [f"no summary (exit code {exit_code}): {e}"]
            return
        failures = {f["seed"]: f["error"] for f in row["failures"]}
        ok_seeds = [s for s in self.seeds if s not in failures]
        if len(row["test_acc"]) != len(ok_seeds) or (exit_code != 0) != bool(failures):
            for seed in self.seeds:
                yield seed, [f"summary lists {len(row['test_acc'])} results, {len(failures)} failures, exit code {exit_code}"]
            return
        accs = dict(zip(ok_seeds, row["test_acc"]))
        for seed in self.seeds:
            if seed in failures:
                yield seed, [f"failed: {failures[seed]}"]
                continue
            run = os.path.join(mode_dir, f"{mode}_seed{seed}")
            try:
                with open(run + ".csv") as f:
                    csv_text = f.read()
                with open(run + ".checkpoint.json") as f:
                    checkpoint = json.load(f)
            except (OSError, ValueError) as e:
                yield seed, [f"missing output: {e}"]
                continue
            yield seed, checks.check_training_run(
                mode=mode,
                test_acc=accs[seed],
                csv_text=csv_text,
                checkpoint=checkpoint,
                test_x=self.test_x,
                test_y=self.test_y,
                floor_acc=self.ncm_acc - self.t.margin,
                steps=self.t.steps,
                eval_every=self.t.eval_every,
                warmup=self.t.warmup if mode == "labo" else 0,
                alpha=TRAIN["smoothing"]["alpha"],
                rho=TRAIN["smoothing"]["rho"],
            )


def _call_cli(argv: list) -> tuple[int, str, float]:
    """Run `labo.cli.main(argv)` in this process; return (exit code, output, wall seconds)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        start = time.perf_counter()
        code = labo.cli.main(argv)
        seconds = time.perf_counter() - start
    return code, buf.getvalue(), seconds
