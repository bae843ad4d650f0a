"""Acceptance suite: every release criterion at its stated tolerance.

Run `pytest tests/test_acceptance.py -v -s` to see one pass/fail line per
criterion. The desk-scale comparison (criterion 9) trains 15 models and
dominates the runtime (well under its 5-minute budget on one core).
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

import labo.smoothing as smoothing_mod
from labo.cli import main as cli_main
from labo.data import gaussian_blobs
from labo.model import MlpModel
from labo.numerics import softmax, uniform
from labo.objectives import (
    grad_wrt_logits,
    kd_decomposition_residual,
    kd_loss,
    smoothed_ce,
    unified_objective,
)
from labo.oracle import hessian_check, inner_gradient, numerical_hessian, verify_closed_form
from labo.smoothing import labo_from_logits, labo_optimal_smoothing, mix_label, uniform_smooth
from labo.train import TrainConfig, evaluate, run_training
from labo.smoothing import SmoothingConfig
from conftest import interior_simplex


def _report(num: int, name: str, passed: bool, detail: str = ""):
    print(f"[criterion {num:2d}] {'PASS' if passed else 'FAIL'} {name}: {detail}")


@pytest.fixture(scope="module")
def blobs():
    return gaussian_blobs(3, 2000, dim=2, std=1.0, seed=7)


@pytest.fixture(scope="module")
def comparison(blobs):
    """5-seed comparison of one-hot, uniform LS, and two-stage training."""
    start = time.perf_counter()
    results = {}
    for mode, warmup in [("none", 0), ("ls", 0), ("labo", 500)]:
        accs, confs = [], []
        for seed in (1, 2, 3, 4, 5):
            cfg = TrainConfig(
                steps=4000,
                warmup=warmup,
                batch_size=128,
                lr=0.1,
                seed=seed,
                mode=mode,
                smoothing=SmoothingConfig(alpha_rule="adaptive", rho=0.5, tau=1.25, alpha=0.1),
                eval_every=200,
            )
            model = MlpModel([2, 32, 3], seed=seed)
            best, _ = run_training(model, blobs, cfg)
            ev = evaluate(best, blobs, split="test")
            accs.append(ev.accuracy)
            confs.append(ev.mean_confidence)
        results[mode] = {"acc": float(np.mean(accs)), "conf": float(np.mean(confs))}
    results["elapsed"] = time.perf_counter() - start
    return results


def test_criterion_1_closed_form_oracle_equivalence():
    """Closed form vs exponentiated-gradient minimizer over 1000 instances."""
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    try:
        for _ in range(1000):
            num_classes = int(rng.choice([2, 3, 10, 50]))
            p = interior_simplex(rng, num_classes)
            tau = rng.uniform(1.05, 20.0)
            alpha = rng.uniform(0.3, 1.0)
            # raises if the closed form's objective loses by more than 1e-9
            worst = np.maximum(worst, verify_closed_form(p, alpha, alpha * tau, tol=1e-9))
        elapsed = time.perf_counter() - start
        passed = worst <= 1e-6 and elapsed <= 30.0
        _report(1, "closed-form oracle equivalence", passed, f"max L-inf {worst:.2e}, {elapsed:.1f}s")
        assert passed
    except RuntimeError as e:
        _report(1, "closed-form oracle equivalence", False, str(e))
        raise


def test_criterion_2_temperature_identity():
    rng = np.random.default_rng(102)
    worst = 0.0
    taus = [1.15, 1.25]
    for i in range(1000):
        num_classes = int(rng.choice([2, 3, 10]))
        z = rng.normal(0, 3, size=num_classes)
        tau = taus[i % 2] if i < 200 else rng.uniform(1.0, 10.0)
        gap = np.abs(labo_from_logits(z, tau) - labo_optimal_smoothing(softmax(z), tau)).max()
        worst = np.maximum(worst, gap)
    passed = worst <= 1e-12
    _report(2, "temperature identity", passed, f"max per-entry gap {worst:.2e}")
    assert passed


def test_criterion_3_kd_decomposition():
    rng = np.random.default_rng(103)
    worst = 0.0
    for i in range(1000):
        num_classes = int(rng.choice([2, 3, 10]))
        z = rng.normal(0, 3, size=num_classes)
        teacher = interior_simplex(rng, num_classes)
        alpha = rng.uniform(0.0, 1.0)
        k = int(rng.integers(num_classes))
        worst = np.maximum(worst, kd_decomposition_residual(k, z, teacher, alpha))
        if i < 100:
            # independent spelling of the same identity, constant written out
            from labo.numerics import kl_div

            lhs = kd_loss(k, z, teacher, alpha)
            rhs = (
                smoothed_ce(mix_label(k, teacher, alpha), z)
                + alpha * kl_div(teacher, uniform(num_classes))
                - alpha * math.log(num_classes)
            )
            worst = np.maximum(worst, abs(lhs - rhs))
    passed = worst <= 1e-10
    _report(3, "distillation decomposition", passed, f"max residual {worst:.2e}")
    assert passed


def test_criterion_4_temperature_limits():
    rng = np.random.default_rng(104)
    worst_id, worst_flat = 0.0, 0.0
    for _ in range(100):
        num_classes = int(rng.choice([2, 3, 10]))
        p = interior_simplex(rng, num_classes)
        worst_id = np.maximum(worst_id, np.abs(labo_optimal_smoothing(p, 1.0) - p).max())
        worst_flat = np.maximum(
            worst_flat, np.abs(labo_optimal_smoothing(p, 1e6) - uniform(num_classes)).max()
        )
    passed = worst_id <= 1e-12 and worst_flat <= 1e-5
    _report(4, "temperature limits", passed, f"tau=1 err {worst_id:.2e}, tau=1e6 err {worst_flat:.2e}")
    assert passed


def test_criterion_5_zero_hypergradient():
    """Detached-label gradient equals the finite-difference derivative of
    the full objective, labels recomputed under perturbation."""
    rng = np.random.default_rng(105)
    alpha, tau = 0.4, 1.25
    beta = alpha * tau
    h = 1e-5
    worst_rel, worst_tan = 0.0, 0.0
    for _ in range(50):
        m = MlpModel([2, 8, 3], seed=int(rng.integers(1 << 30)))
        x = rng.normal(size=2)
        k = int(rng.integers(3))
        theta0 = m.params_flat()

        def full(theta):
            m.set_params_flat(theta)
            z = m.forward(x)
            return unified_objective(k, z, labo_from_logits(z, tau), alpha, beta).total

        fd = np.empty_like(theta0)
        for i in range(theta0.size):
            e = np.zeros_like(theta0)
            e[i] = h
            fd[i] = (full(theta0 + e) - full(theta0 - e)) / (2 * h)
        m.set_params_flat(theta0)
        z = m.forward(x)
        p_star = labo_from_logits(z, tau)
        analytic = m.backward(grad_wrt_logits(mix_label(k, p_star, alpha), z))
        worst_rel = np.maximum(worst_rel, np.linalg.norm(fd - analytic) / np.linalg.norm(fd))

        g = inner_gradient(p_star, softmax(z), alpha, beta)
        worst_tan = np.maximum(worst_tan, float(np.linalg.norm(g - g.mean())))
    passed = worst_rel <= 1e-4 and worst_tan <= 1e-8
    _report(5, "zero hypergradient", passed, f"rel L2 {worst_rel:.2e}, tangent norm {worst_tan:.2e}")
    assert passed


def test_criterion_6_hessian_structure():
    rng = np.random.default_rng(106)
    worst = 0.0
    all_positive = True
    for _ in range(100):
        num_classes = int(rng.choice([2, 3, 10]))
        p_ls = interior_simplex(rng, num_classes, floor_mix=0.1)
        beta = rng.uniform(0.5, 5.0)
        worst = np.maximum(worst, hessian_check(p_ls, beta))
        logp = np.log(p_ls)

        def f(x):
            return float(-(x * logp).sum() + beta * (x * np.log(num_classes * x)).sum())

        H = numerical_hessian(f, p_ls.copy(), 3e-4 * p_ls**0.75 / beta**0.25)
        all_positive &= bool(np.all(np.diag(H) > 0))
    passed = worst <= 1e-4 and all_positive
    _report(6, "hessian structure", passed, f"max deviation {worst:.2e}, diagonals positive: {all_positive}")
    assert passed


def test_criterion_7_model_gradient_gate():
    rng = np.random.default_rng(107)
    h = 1e-5
    worst = 0.0
    for arch, batch in [([2, 8, 3], 1), ([4, 6, 6, 5], 1), ([2, 8, 3], 4)]:
        m = MlpModel(arch, seed=int(rng.integers(1 << 30)))
        X = rng.normal(size=(batch, arch[0]))
        ks = rng.integers(arch[-1], size=batch)
        labels = [uniform_smooth(int(k), arch[-1], 0.1) for k in ks]

        def loss():
            Z = np.atleast_2d(m.forward(X))
            return float(np.mean([smoothed_ce(lbl, z) for lbl, z in zip(labels, Z)]))

        theta0 = m.params_flat()
        fd = np.empty_like(theta0)
        for i in range(theta0.size):
            e = np.zeros_like(theta0)
            e[i] = h
            m.set_params_flat(theta0 + e)
            up = loss()
            m.set_params_flat(theta0 - e)
            down = loss()
            fd[i] = (up - down) / (2 * h)
        m.set_params_flat(theta0)
        Z = np.atleast_2d(m.forward(X))
        G = np.stack([grad_wrt_logits(lbl, z) for lbl, z in zip(labels, Z)]) / batch
        m.forward(X)
        analytic = m.backward(G if batch > 1 else G[0])
        offset = 0
        for W, b in zip(m.weights, m.biases):
            for size in (W.size, b.size):
                fd_t, an_t = fd[offset : offset + size], analytic[offset : offset + size]
                rel = np.linalg.norm(fd_t - an_t) / max(np.linalg.norm(fd_t), 1e-12)
                worst = np.maximum(worst, rel)
                offset += size
    passed = worst <= 1e-5
    _report(7, "model gradient gate", passed, f"worst per-tensor rel error {worst:.2e}")
    assert passed


def test_criterion_8_warmup_equivalence(blobs):
    t_w = 500
    base = dict(
        batch_size=128,
        lr=0.1,
        seed=21,
        smoothing=SmoothingConfig(alpha_rule="adaptive", rho=0.5, tau=1.25, alpha=0.1),
        eval_every=200,
    )
    snapshot = {}

    def capture(step, model):
        if step == t_w:
            snapshot["params"] = model.params_flat()

    labo_model = MlpModel([2, 32, 3], seed=21)
    run_training(labo_model, blobs, TrainConfig(steps=600, warmup=t_w, mode="labo", **base), step_callback=capture)
    ls_model = MlpModel([2, 32, 3], seed=21)
    run_training(ls_model, blobs, TrainConfig(steps=t_w, warmup=0, mode="ls", **base))
    identical = bool(np.array_equal(snapshot["params"], ls_model.params_flat()))
    _report(8, "warm-up equivalence", identical, f"first {t_w} steps bit-identical: {identical}")
    assert identical


def test_criterion_9_desk_scale_directional(blobs, comparison):
    from test_data import nearest_centroid_accuracy

    centroid_acc = nearest_centroid_accuracy(blobs)
    pinned = 0.85 <= centroid_acc <= 0.95

    labo, ls, none = comparison["labo"], comparison["ls"], comparison["none"]
    acc_vs_none = labo["acc"] >= none["acc"] - 0.005
    acc_vs_ls = abs(labo["acc"] - ls["acc"]) <= 0.015
    conf_gap = none["conf"] - labo["conf"]
    in_time = comparison["elapsed"] <= 300.0
    passed = pinned and acc_vs_none and acc_vs_ls and conf_gap >= 0.05 and in_time
    _report(
        9,
        "desk-scale directional comparison",
        passed,
        f"centroid {centroid_acc:.3f}; acc none/ls/labo "
        f"{none['acc']:.4f}/{ls['acc']:.4f}/{labo['acc']:.4f}; "
        f"conf gap {conf_gap:.3f}; {comparison['elapsed']:.0f}s",
    )
    assert passed


def test_criterion_10_verify_command(monkeypatch, capsys):
    proc = subprocess.run(
        [sys.executable, "-m", "labo.cli", "verify"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    fresh_ok = proc.returncode == 0

    original = smoothing_mod.labo_optimal_smoothing
    monkeypatch.setattr(
        smoothing_mod, "labo_optimal_smoothing", lambda p, tau: original(p, 1.0 / tau)
    )
    mutated_rc = cli_main(["verify", "--quick"])
    monkeypatch.undo()
    capsys.readouterr()
    passed = fresh_ok and mutated_rc == 1
    _report(10, "verify command gate", passed, f"fresh exit 0: {fresh_ok}, mutated exit {mutated_rc}")
    assert passed
