"""Output checks that do not trust the program's own arithmetic.

Each check takes parsed outputs (summary rows, metrics CSV text, a checkpoint
document, `labo verify` stdout) and returns a list of problems; an empty
list means the output passed. The checks compare against computations made
here (a nearest-class-mean classifier, a plain numpy ReLU forward pass) or
against properties the method must have, never against stored outputs.
`self_test` feeds each check a deliberately wrong input to show it fails.
"""

from __future__ import annotations

import math
import re
from types import SimpleNamespace

import numpy as np

# The header `labo train` documents for its metrics CSV.
CSV_HEADER = "step,train_loss,val_acc,mean_confidence,mean_entropy,mean_alpha"

# Uniform smoothing weight `labo train` documents for the labo warm-up steps.
WARMUP_ALPHA = 0.1

# `mean_alpha` is a mean over the batch, so a constant alpha comes back with
# the rounding of np.mean (0.1 reads 0.10000000000000002 at batch 128).
ALPHA_TOL = 1e-12

MODES = ("none", "ls", "cp", "kd", "labo")

VERIFY_CHECKS = (
    "closed-form-vs-solver",
    "tempering-limits",
    "temperature-identity",
    "kd-decomposition",
    "objective-equivalence",
    "hessian-diagonal",
    "model-gradient-gate",
    "zero-hypergradient",
    "cp-gradient",
    "solver-init-invariance",
)

# Leading count each check reports in its detail, (full, quick);
# tempering-limits reports its errors only.
VERIFY_COUNTS = {
    "closed-form-vs-solver": (1000, 100),
    "temperature-identity": (1000, 100),
    "kd-decomposition": (1000, 100),
    "objective-equivalence": (1000, 100),
    "hessian-diagonal": (100, 10),
    "model-gradient-gate": (10, 3),
    "zero-hypergradient": (50, 10),
    "cp-gradient": (100, 10),
    "solver-init-invariance": (20, 5),
}

_VERIFY_LINE = re.compile(r"^(\S+)\s+(PASS|FAIL)\s+\d+\.\d+s\s+(.*)$")


def nearest_mean_accuracy(train_x, train_y, test_x, test_y, num_classes: int) -> float:
    """Test accuracy of classifying each row to the closest training class mean."""
    means = np.stack([train_x[train_y == k].mean(axis=0) for k in range(num_classes)])
    dist = (test_x**2).sum(axis=1)[:, None] - 2.0 * test_x @ means.T + (means**2).sum(axis=1)[None, :]
    return float((dist.argmin(axis=1) == test_y).mean())


def checkpoint_accuracy(doc: dict, test_x, test_y) -> float:
    """Test accuracy of a `labo-mlp-checkpoint-v1` document, by a plain ReLU forward pass."""
    layers = doc["layers"]
    a = test_x
    for i, layer in enumerate(layers):
        a = a @ np.asarray(layer["weight"], dtype=np.float64) + np.asarray(layer["bias"], dtype=np.float64)
        if i < len(layers) - 1:
            a = np.maximum(a, 0.0)
    return float((a.argmax(axis=1) == test_y).mean())


def check_loaded_dataset(dataset, features, labels) -> list[str]:
    """Problems with a dataset the program loaded from a CSV this benchmark wrote."""
    problems = []
    if dataset.num_classes != int(labels.max()) + 1:
        problems.append(f"{dataset.num_classes} classes, wrote {int(labels.max()) + 1}")
    if dataset.features.shape != features.shape or not np.array_equal(dataset.features, features):
        problems.append("features differ from the ones written")
    if dataset.labels.shape != labels.shape or not np.array_equal(dataset.labels, labels):
        problems.append("labels differ from the ones written")
    return problems


def check_training_run(
    *,
    mode: str,
    test_acc: float,
    csv_text: str,
    checkpoint: dict,
    test_x,
    test_y,
    floor_acc: float,
    steps: int,
    eval_every: int,
    warmup: int,
    alpha: float,
    rho: float,
) -> list[str]:
    """Problems with one successful (mode, seed) run of `labo train`."""
    problems = []
    if not test_acc >= floor_acc:
        problems.append(f"test accuracy {test_acc!r} below nearest-class-mean floor {floor_acc!r}")
    ckpt_acc = checkpoint_accuracy(checkpoint, test_x, test_y)
    if ckpt_acc != test_acc:
        problems.append(f"checkpoint gives test accuracy {ckpt_acc!r}, summary says {test_acc!r}")

    lines = csv_text.strip().split("\n")
    if lines[0] != CSV_HEADER:
        return problems + [f"metrics CSV header {lines[0]!r}"]
    expected_steps = list(range(eval_every, steps + 1, eval_every))
    if not expected_steps or expected_steps[-1] != steps:
        expected_steps.append(steps)
    rows = [line.split(",") for line in lines[1:]]
    if [int(r[0]) for r in rows] != expected_steps:
        problems.append(f"metrics CSV steps {[r[0] for r in rows]}, expected {expected_steps}")
    for r in rows:
        step, loss, mean_alpha = int(r[0]), float(r[1]), float(r[5])
        if not math.isfinite(loss):
            problems.append(f"train_loss {r[1]} at step {step}")
        if mode in ("none", "cp"):
            ok = mean_alpha == 0.0
        elif mode in ("ls", "kd"):
            ok = abs(mean_alpha - alpha) <= ALPHA_TOL
        elif step <= warmup:
            ok = abs(mean_alpha - WARMUP_ALPHA) <= ALPHA_TOL
        else:
            ok = 1.0 - rho <= mean_alpha <= 1.0
        if not ok:
            problems.append(f"mean_alpha {r[5]} at step {step} is wrong for mode {mode}")
    return problems


def check_verify_output(text: str, exit_code: int, quick: bool) -> dict[str, list[str]]:
    """Problems per check for one `labo verify` run, keyed by check name."""
    problems: dict[str, list[str]] = {name: [] for name in VERIFY_CHECKS}
    seen: dict[str, tuple[str, str]] = {}
    summary = None
    for line in text.splitlines():
        m = _VERIFY_LINE.match(line)
        if m:
            seen[m.group(1)] = (m.group(2), m.group(3))
        elif line.endswith(" checks passed"):
            summary = line
    for name in VERIFY_CHECKS:
        if name not in seen:
            problems[name].append("missing from output")
            continue
        status, detail = seen[name]
        if status != "PASS":
            problems[name].append(f"FAIL: {detail}")
        if name in VERIFY_COUNTS:
            count = VERIFY_COUNTS[name][1 if quick else 0]
            if not detail.startswith(f"{count} "):
                problems[name].append(f"expected {count} instances, detail {detail!r}")
    expected = f"{len(VERIFY_CHECKS)}/{len(VERIFY_CHECKS)} checks passed"
    if exit_code != 0 or summary != expected or set(seen) != set(VERIFY_CHECKS):
        # the suite as a whole disagrees with its own lines: blame every check
        for name in VERIFY_CHECKS:
            problems[name].append(f"exit code {exit_code}, summary {summary!r}")
    return problems


def self_test() -> list[str]:
    """Feed every check a right and a deliberately wrong input.

    Returns the cases that behaved unexpectedly; empty means every check
    passed its right input and failed its wrong one.
    """
    rng = np.random.default_rng(0)
    num_classes, dim = 3, 2
    means = 3.0 * rng.standard_normal((num_classes, dim))
    y = np.repeat(np.arange(num_classes), 200)
    x = means[y] + rng.standard_normal((y.size, dim))
    train, test = np.arange(y.size) % 5 != 0, np.arange(y.size) % 5 == 0
    floor = nearest_mean_accuracy(x[train], y[train], x[test], y[test], num_classes) - 0.05

    # a "trained" checkpoint: one linear layer scoring -|x - mean|^2, behind
    # an identity ReLU layer, so it equals the nearest-mean classifier
    shift = 100.0
    checkpoint = {
        "format": "labo-mlp-checkpoint-v1",
        "layers": [
            {"weight": np.eye(dim).tolist(), "bias": [shift] * dim},
            {"weight": (2.0 * means.T).tolist(), "bias": (-(means**2).sum(axis=1) - 2.0 * shift * means.sum(axis=1)).tolist()},
        ],
    }
    acc = checkpoint_accuracy(checkpoint, x[test], y[test])

    def csv(alphas, losses=None):
        losses = losses or [0.5] * len(alphas)
        rows = [f"{100 * (i + 1)},{loss!r},0.9,0.8,0.3,{a!r}" for i, (a, loss) in enumerate(zip(alphas, losses))]
        return "\n".join([CSV_HEADER, *rows]) + "\n"

    base = dict(
        mode="labo", test_acc=acc, csv_text=csv([0.1, 0.1, 0.7, 0.8]), checkpoint=checkpoint,
        test_x=x[test], test_y=y[test], floor_acc=floor, steps=400, eval_every=100, warmup=200,
        alpha=0.1, rho=0.5,
    )
    perturbed = {**checkpoint, "layers": [checkpoint["layers"][0], {**checkpoint["layers"][1], "bias": [0.0, 0.0, 1e4]}]}
    cases = [
        ("right labo run", {}, True),
        ("right ls run", dict(mode="ls", csv_text=csv([0.10000000000000002] * 4)), True),
        ("right none run", dict(mode="none", csv_text=csv([0.0] * 4)), True),
        ("perturbed checkpoint", dict(checkpoint=perturbed), False),
        ("accuracy below the nearest-mean floor", dict(floor_acc=acc + 0.01), False),
        ("non-finite train_loss", dict(csv_text=csv([0.1, 0.1, 0.7, 0.8], [0.5, float("nan"), 0.5, 0.5])), False),
        ("missing eval row", dict(csv_text=csv([0.1, 0.1, 0.7])), False),
        ("labo alpha below 1 - rho after warm-up", dict(csv_text=csv([0.1, 0.1, 0.4, 0.8])), False),
        ("labo alpha not the warm-up alpha", dict(csv_text=csv([0.1, 0.2, 0.7, 0.8])), False),
        ("ls alpha off the configured one", dict(mode="ls", csv_text=csv([0.1, 0.1, 0.1, 0.11])), False),
        ("cp alpha not exactly 0", dict(mode="cp", csv_text=csv([0.0, 0.0, 1e-300, 0.0])), False),
    ]
    bad = []
    for name, change, should_pass in cases:
        problems = check_training_run(**{**base, **change})
        if (not problems) != should_pass:
            bad.append(f"{name}: problems {problems}")

    def verify_text(lines_by_name, summary="10/10 checks passed"):
        out = []
        for name in VERIFY_CHECKS:
            detail = lines_by_name.get(name)
            if detail is None:
                count = VERIFY_COUNTS.get(name, (None,))[0]
                detail = f"{count} instances, max gap 1e-16" if count else "tau=1 err 1e-16"
            status = "FAIL" if detail.startswith("!") else "PASS"
            out.append(f"{name:<24}  {status}  {1.0:6.2f}s  {detail.lstrip('!')}")
        return "\n".join(out + [summary]) + "\n"

    verify_cases = [
        ("right verify", verify_text({}), 0, True),
        ("failed verify check", verify_text({"cp-gradient": "!AssertionError: off"}, "9/10 checks passed"), 1, False),
        ("verify at reduced counts", verify_text({"kd-decomposition": "100 instances, max residual 1e-15"}), 0, False),
        ("verify exit code 1", verify_text({}), 1, False),
    ]
    for name, text, code, should_pass in verify_cases:
        problems = check_verify_output(text, code, quick=False)
        if (not any(problems.values())) != should_pass:
            bad.append(f"{name}: problems {problems}")

    loaded = SimpleNamespace(features=x.copy(), labels=y.copy(), num_classes=num_classes)
    if check_loaded_dataset(loaded, x, y):
        bad.append("right loaded dataset: flagged")
    loaded.features[7, 1] += 1e-9
    if not check_loaded_dataset(loaded, x, y):
        bad.append("loaded dataset with one changed cell: passed")
    return bad
