"""labo against the 50-digit golden table (`golden.py`, written by scripts/derive_test_constants.py).

Every training row of the table is checked twice: stacked into one
`batch_objective` call per setting, and through the per-instance functions
that give the same label, loss and gradient. The remaining rows pin the
numerics and smoothing functions those are built from.
"""

import numpy as np
import pytest

import golden
from labo.numerics import entropy, kl_div, log_softmax, softmax, tempered_softmax, uniform
from labo.objectives import (
    batch_objective,
    cp_grad_wrt_logits,
    cp_loss,
    grad_wrt_logits,
    kd_loss,
    smoothed_ce,
    unified_objective,
)
from labo.smoothing import SmoothingConfig, adaptive_alpha, build_label, labo_from_logits, labo_optimal_smoothing
from labo.train import TRAIN_MODES

CLASS_COUNTS = (2, 3, 8, 1000)
ITEM5 = "ROADMAP item 5: the labo objective is inaccurate at extreme tau"


def _num_classes(name):
    spec = golden.TABLE["logits"][name]
    return spec["K"] if "K" in spec else len(spec["z"])


def _cfg(row):
    if "rho" in row:
        return SmoothingConfig(alpha_rule="adaptive", rho=row["rho"], tau=row["tau"])
    return SmoothingConfig(**{key: row[key] for key in ("alpha", "tau") if key in row})


def _objective_rows(mode, num_classes):
    """The training rows of `mode` at K = `num_classes` that have an output not marked xfail."""
    return [r for r in golden.rows("objective", mode=mode)
            if _num_classes(r["z"]) == num_classes and set(r["out"]) - set(r.get("xfail", ()))]


def _where(route, row):
    inputs = {key: v for key, v in row.items() if key not in ("fn", "out", "xfail")}
    return f"{route} {inputs}"


def _compare(row, got, route):
    """Mismatch lines for the outputs in `got` that the row holds and does not mark xfail."""
    return [line for quantity, v in got.items() if quantity in row["out"] and quantity not in row.get("xfail", ())
            for line in golden.mismatches(v, row["out"][quantity], quantity, _where(route, row))]


def _batch_outputs(group, mode):
    """{quantity: value} of each row of `group` (one setting) from one stacked `batch_objective` call."""
    Z, ks, pins = zip(*(golden.logits(r["z"]) for r in group))
    with np.errstate(divide="ignore"):  # a teacher's zero entry has log-probability -inf
        teacher_logP = np.log([golden.probs(r["teacher"]) for r in group]) if mode == "kd" else None
    first = group[0]
    labels, alphas, losses, grad = batch_objective(np.array(ks), np.array(Z), mode, _cfg(first),
                                                   first.get("beta_cp", 0.0), teacher_logP)
    n = len(group)
    return [{"label": labels[i, pin], "alpha": alphas[i], "loss": losses[i], "grad": grad[i, pin] * n}
            for i, pin in enumerate(pins)]


@pytest.mark.parametrize("num_classes", CLASS_COUNTS)
@pytest.mark.parametrize("mode", TRAIN_MODES)
def test_batch_objective_rows(mode, num_classes):
    """Label, alpha, loss and gradient (times n) of every golden row, batched by setting."""
    groups = {}
    for r in _objective_rows(mode, num_classes):
        groups.setdefault(tuple(r.get(key) for key in ("alpha", "rho", "tau", "beta_cp")), []).append(r)
    assert groups
    fails = [line for group in groups.values() for r, got in zip(group, _batch_outputs(group, mode))
             for line in _compare(r, got, "batch_objective")]
    assert not fails, "\n".join(fails)


def _per_instance_outputs(row, mode):
    """{quantity: value} of one golden row from the per-instance functions."""
    z, k, pin = golden.logits(row["z"])
    cfg = _cfg(row)
    teacher = golden.probs(row["teacher"]) if mode == "kd" else None
    label = build_label(k, z, "none" if mode == "cp" else mode, cfg, teacher_p=teacher)
    got = {"label": label.dist[pin], "alpha": label.alpha_used}
    if mode == "cp":
        return {**got, "loss": cp_loss(k, z, row["beta_cp"]), "grad": cp_grad_wrt_logits(k, z, row["beta_cp"])[pin]}
    got["grad"] = grad_wrt_logits(label, z)[pin]
    if mode == "kd":
        got["loss"] = kd_loss(k, z, teacher, row["alpha"])
    elif mode == "labo":
        alpha = label.alpha_used
        bd = unified_objective(k, z, labo_from_logits(z, cfg.tau), alpha, alpha * cfg.tau)
        got.update(loss=bd.total, ce_term=bd.ce_term, kl_term=bd.kl_term)
    else:
        got["loss"] = smoothed_ce(label, z)
    return got


@pytest.mark.parametrize("num_classes", CLASS_COUNTS)
@pytest.mark.parametrize("mode", TRAIN_MODES)
def test_per_instance_rows(mode, num_classes):
    """`build_label`, the mode's loss function and its logit gradient on every golden row."""
    rows = _objective_rows(mode, num_classes)
    assert rows
    fails = [line for r in rows for line in _compare(r, _per_instance_outputs(r, mode), "per-instance")]
    assert not fails, "\n".join(fails)


def _q(row):
    p = golden.probs(row["p"])
    return uniform(p.size) if row["q"] == "uniform" else golden.probs(row["q"])


# function -> (table rows, quantity, call on a row)
CALLS = {
    "softmax": ("softmax", "p", lambda r: softmax(golden.logits(r["z"])[0])),
    "log_softmax": ("log_softmax", "logp", lambda r: log_softmax(golden.logits(r["z"])[0])),
    "labo_from_logits": ("labo_from_logits", "q", lambda r: labo_from_logits(golden.logits(r["z"])[0], r["tau"])),
    "tempered_softmax": ("labo_from_logits", "q", lambda r: tempered_softmax(golden.logits(r["z"])[0], r["tau"])),
    "entropy": ("entropy", "h", lambda r: entropy(golden.probs(r["p"]))),
    "kl_div": ("kl_div", "kl", lambda r: kl_div(golden.probs(r["p"]), _q(r))),
    "adaptive_alpha": ("adaptive_alpha", "alpha", lambda r: adaptive_alpha(golden.probs(r["p"]), r["rho"])),
    "labo_optimal_smoothing": ("labo_optimal_smoothing", "q",
                               lambda r: labo_optimal_smoothing(golden.probs(r["p"]), r["tau"])),
}


@pytest.mark.parametrize("function", CALLS)
def test_function_rows(function):
    fn, quantity, call = CALLS[function]
    rows = golden.rows(fn)
    assert rows
    fails = []
    for r in rows:
        got = call(r)
        if "z" in r:
            got = got[golden.logits(r["z"])[2]]
        fails += golden.mismatches(got, r["out"][quantity], quantity, _where(function, r))
    assert not fails, "\n".join(fails)


def _item5_cases():
    routes = {"loss": ("batch_objective", "unified_objective"), "kl_term": ("unified_objective",),
              "label": ("batch_objective", "build_label")}
    for r in golden.rows("objective"):
        for quantity in r.get("xfail", ()):
            for route in routes[quantity]:
                yield pytest.param(r, quantity, route, id=f"{route}-{quantity}-tau={r['tau']!r}",
                                   marks=pytest.mark.xfail(strict=True, reason=ITEM5))


@pytest.mark.parametrize("row, quantity, route", list(_item5_cases()))
def test_item5_rows(row, quantity, route):
    """The rows labo gets wrong today; each fails until ROADMAP item 5 lands, then passes as XPASS."""
    if route == "batch_objective":
        got = _batch_outputs([row], "labo")[0][quantity]
    elif route == "build_label":
        got = _per_instance_outputs(row, "labo")["label"]
    else:
        got = _per_instance_outputs(row, "labo")["kl_term" if quantity == "kl_term" else "loss"]
    fails = golden.mismatches(got, row["out"][quantity], quantity, _where(route, row))
    assert not fails, "\n".join(fails)


def test_every_xfail_row_is_an_item5_row():
    """Only the extreme-tau rows of ROADMAP item 5 may be marked xfail."""
    marked = [(r["tau"], tuple(r["xfail"])) for r in golden.TABLE["rows"] if "xfail" in r]
    assert marked == [(1e9, ("loss", "kl_term")), (1e15, ("loss", "kl_term")), (5e-324, ("label",))]
