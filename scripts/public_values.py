"""Outputs of labo's public per-instance functions and of `labo smooth` on fixed inputs, as one JSON document.

    PYTHONPATH=CHECKOUT/src python scripts/public_values.py OUT.json

`scripts/same_numbers.py` runs this in each checkout it compares. It calls
every function of `CALLS` on each instance of `instances()` (seeded, with
K in {2, 3, 7, 8, 10}: both sides of the batch objective's layout
threshold; and the K = 3 instance again with a teacher that has a zero
entry and with a one-hot teacher), and `labo.cli.main` on the `labo smooth`
grid `SMOOTH_LOGITS` x `SMOOTH_TAUS` x `SMOOTH_RHOS`. Results are keyed by
their inputs (the instance's K and teacher, the `labo smooth` flags), so a
differing value's JSON path names them. A call that raises is recorded as
its exception's type and message; a `labo smooth` call as its exit code,
stdout (parsed when it is JSON) and stderr. Floats are written with `repr`,
so the document holds every bit.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import io
import json
import sys

import numpy as np

import labo

SEED = 2024
CLASS_COUNTS = (2, 3, 7, 8, 10)
SMOOTH_LOGITS = ("2,1,0", "3,-1,0.5", "0,0,0,0", "4,-2,1,0.5,-3,2,0", "1.5,-0.5,3,2,-1,0.25,-2,1")
SMOOTH_TAUS = (0.5, 1.0, 1.25, 10.0)
SMOOTH_RHOS = (0.5, 0.75, 1.0)


def _labo_cfg(c, rule):
    return labo.SmoothingConfig(alpha_rule=rule, alpha=c["alpha"], rho=c["rho"], tau=c["tau"])


# name -> call on one instance; every public per-instance function of labo, and cp_grad_wrt_logits
CALLS = {
    "softmax": lambda c: labo.softmax(c["z"]),
    "log_softmax": lambda c: labo.log_softmax(c["z"]),
    "tempered_softmax": lambda c: labo.tempered_softmax(c["z"], c["tau"]),
    "entropy": lambda c: labo.entropy(c["teacher"]),
    "kl_div": lambda c: labo.kl_div(c["teacher"], c["p_ls"]),
    "uniform_smooth": lambda c: labo.uniform_smooth(c["k"], c["z"].size, c["alpha"]),
    "mix_label": lambda c: labo.mix_label(c["k"], c["p_ls"], c["alpha"]),
    "labo_optimal_smoothing": lambda c: labo.labo_optimal_smoothing(labo.softmax(c["z"]), c["tau"]),
    "labo_from_logits": lambda c: labo.labo_from_logits(c["z"], c["tau"]),
    "adaptive_alpha": lambda c: labo.adaptive_alpha(labo.softmax(c["z"]), c["rho"]),
    "build_label": lambda c: {
        **{mode: labo.build_label(c["k"], c["z"], mode, _labo_cfg(c, "fixed"), c["teacher"])
           for mode in ("none", "ls", "kd", "labo")},
        "labo-adaptive": labo.build_label(c["k"], c["z"], "labo", _labo_cfg(c, "adaptive"))},
    "smoothed_ce": lambda c: labo.smoothed_ce(labo.mix_label(c["k"], c["p_ls"], c["alpha"]), c["z"]),
    "unified_objective": lambda c: labo.unified_objective(c["k"], c["z"], c["p_ls"], c["alpha"],
                                                          c["alpha"] * c["tau"]),
    "cp_loss": lambda c: labo.cp_loss(c["k"], c["z"], c["beta_cp"]),
    "cp_grad_wrt_logits": lambda c: importlib.import_module("labo.objectives").cp_grad_wrt_logits(c["k"], c["z"],
                                                                                                  c["beta_cp"]),
    "kd_loss": lambda c: labo.kd_loss(c["k"], c["z"], c["teacher"], c["alpha"]),
    "kd_decomposition_residual": lambda c: labo.kd_decomposition_residual(c["k"], c["z"], c["teacher"], c["alpha"]),
    "grad_wrt_logits": lambda c: labo.grad_wrt_logits(labo.mix_label(c["k"], c["p_ls"], c["alpha"]), c["z"]),
    "solve_inner_numeric": lambda c: labo.solve_inner_numeric(c["p_ls"], c["alpha"], c["alpha"] * c["tau"]),
    "verify_closed_form": lambda c: labo.verify_closed_form(c["p_ls"], c["alpha"], c["alpha"] * c["tau"]),
    "hessian_check": lambda c: labo.hessian_check(c["p_ls"], c["alpha"] * c["tau"]),
}
# labo's public functions that are not per instance: data, models and training
NOT_PER_INSTANCE = {"gaussian_blobs", "load_csv", "load_idx", "load_checkpoint", "save_checkpoint", "evaluate",
                    "run_training", "train_teacher"}


def instances() -> dict:
    """Instances by name: logits, class, teacher, smoothing distribution and weights.

    One seeded instance per class count, "K=..", and the K = 3 one with two
    teachers that have zero entries, where kd takes 0 * log 0 as 0.
    """
    rng = np.random.default_rng(SEED)
    out = {}
    for num_classes in CLASS_COUNTS:
        out[f"K={num_classes}"] = {
            "z": rng.normal(0.0, 3.0, size=num_classes),
            "k": int(rng.integers(num_classes)),
            "teacher": rng.dirichlet(np.ones(num_classes)),
            "p_ls": 0.9 * rng.dirichlet(np.ones(num_classes)) + 0.1 / num_classes,
            "alpha": float(rng.uniform(0.0, 1.0)),
            "tau": float(rng.uniform(0.5, 10.0)),
            "rho": float(rng.uniform(0.5, 1.0)),
            "beta_cp": float(rng.uniform(0.0, 1.0)),
        }
    for teacher in ([0.7, 0.3, 0.0], [0.0, 1.0, 0.0]):
        out[f"K=3 teacher={','.join(map(repr, teacher))}"] = {**out["K=3"], "teacher": np.array(teacher)}
    return out


def encode(value):
    """`value` as JSON: arrays as lists, dataclasses as dicts, numpy scalars as Python numbers."""
    if dataclasses.is_dataclass(value):
        return {f.name: encode(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {key: encode(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    return value


def _smooth(argv: list) -> dict:
    import labo.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = labo.cli.main(argv)
    try:
        stdout = json.loads(out.getvalue())
    except ValueError:
        stdout = out.getvalue()
    return {"exit": code, "stdout": stdout, "stderr": err.getvalue()}


def values() -> dict:
    """{"instances": {name: inputs}, "calls": {function: {name: result}}, "smooth": {flags: result}}."""
    cases = instances()
    calls = {}
    for name, call in CALLS.items():
        calls[name] = {}
        for key, c in cases.items():
            try:
                calls[name][key] = {"value": encode(call(c))}
            except Exception as e:  # a raise is an output to compare
                calls[name][key] = {"raises": f"{type(e).__name__}: {e}"}
    smooth = {}
    for z in SMOOTH_LOGITS:
        for tau in SMOOTH_TAUS:
            for rho in SMOOTH_RHOS:
                flags = [f"--logits={z}", "--tau", repr(tau), "--rho", repr(rho)]
                smooth[" ".join(flags)] = _smooth(["smooth", *flags])
    return {"instances": encode(cases), "calls": calls, "smooth": smooth}


if __name__ == "__main__":
    with open(sys.argv[1], "w") as f:
        json.dump(values(), f, indent=1)
