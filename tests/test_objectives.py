"""Loss and gradient tests.

Gradients are checked against central finite differences; the distillation
decomposition and the reduced-form expansion of the unified objective are
checked by evaluating both sides independently.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labo.numerics import PROB_SUM_TOL, entropy, log_softmax, log_softmax_rows, softmax, uniform
from labo.objectives import (
    ObjectiveBreakdown,
    _batch_objective_into,
    _objective_buffers,
    batch_objective,
    cp_grad_wrt_logits,
    cp_loss,
    grad_wrt_logits,
    kd_decomposition_residual,
    kd_loss,
    smoothed_ce,
    unified_objective,
)
from labo.smoothing import SmoothingConfig, build_label, labo_from_logits, mix_label, uniform_smooth
from labo.train import TRAIN_MODES
import golden
from conftest import interior_simplex

# golden values at k = 0, z = (2, 1, 0): uniform LS with alpha = 0.1
SMOOTHED_CE_EX = golden.value("objective", "loss", z="K3-210", mode="ls", alpha=0.1)
# beta_cp = 0.1
CP_EX = golden.value("objective", "loss", z="K3-210", mode="cp", beta_cp=0.1)
# p_ls = tempered(tau=2), alpha = 0.4, beta = 0.8
UNIFIED_CE_EX, UNIFIED_KL_EX, UNIFIED_TOTAL_EX = (golden.value("objective", term, z="K3-210", mode="labo", alpha=0.4,
                                                                tau=2.0) for term in ("ce_term", "kl_term", "loss"))

# Bound on |batch row loss - per-instance loss| / ((1 + beta) * max(1, |loss|)),
# with beta = alpha * tau for labo and 0 otherwise: the two routes round the
# KL(p_ls || U) term differently and beta multiplies that rounding. Over
# 40 000 random batches from `_random_logits` the worst ratio was 5.1e-14
# (labo); kd and cp stayed under 7.2e-15, none and ls were exact.
BATCH_LOSS_RTOL = 2e-13


def fd_grad(f, x, h=1e-5):
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


class TestSmoothedCe:
    def test_onehot_label_is_plain_ce(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            z = rng.normal(0, 3, size=4)
            k = int(rng.integers(4))
            label = uniform_smooth(k, 4, 0.0)
            assert smoothed_ce(label, z) == pytest.approx(-log_softmax(z)[k], abs=1e-12)

    def test_uniform_logits_give_log_k(self):
        label = uniform_smooth(1, 5, 0.37)
        assert smoothed_ce(label, np.zeros(5)) == pytest.approx(math.log(5), abs=1e-12)

    def test_derived_value(self):
        label = uniform_smooth(0, 3, 0.1)
        assert smoothed_ce(label, [2.0, 1.0, 0.0]) == pytest.approx(SMOOTHED_CE_EX, abs=1e-12)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            smoothed_ce(uniform_smooth(0, 3, 0.1), [1.0, 0.0])


class TestUnifiedObjective:
    def test_uniform_smoothing_reduces_to_ls_loss(self):
        z = np.array([2.0, 1.0, 0.0])
        bd = unified_objective(0, z, uniform(3), 0.1, 0.8)
        assert bd.kl_term == pytest.approx(0.0, abs=1e-15)
        assert bd.total == pytest.approx(SMOOTHED_CE_EX, abs=1e-12)

    def test_zero_beta_is_pure_ce(self):
        z = np.array([0.4, -1.0, 0.2])
        p_ls = np.array([0.6, 0.3, 0.1])
        bd = unified_objective(1, z, p_ls, 0.3, 0.0)
        assert bd.total == bd.ce_term and bd.kl_term == 0.0

    def test_derived_value_and_reduced_expansion(self):
        """Direct CE + beta*KL evaluation equals the single-sum expansion."""
        z = np.array([2.0, 1.0, 0.0])
        alpha, beta = 0.4, 0.8
        p_star = labo_from_logits(z, beta / alpha)
        bd = unified_objective(0, z, p_star, alpha, beta)
        assert bd.ce_term == pytest.approx(UNIFIED_CE_EX, abs=1e-12)
        assert bd.kl_term == pytest.approx(UNIFIED_KL_EX, abs=1e-12)
        assert bd.total == pytest.approx(UNIFIED_TOTAL_EX, abs=1e-12)
        label = mix_label(0, p_star, alpha).dist
        expansion = float((-label * log_softmax(z) + beta * p_star * np.log(3 * p_star)).sum())
        assert bd.total == pytest.approx(expansion, abs=1e-12)

    def test_equivalence_over_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            num_classes = int(rng.choice([2, 3, 10]))
            z = rng.normal(0, 3, size=num_classes)
            k = int(rng.integers(num_classes))
            tau = rng.uniform(1.05, 10.0)
            alpha = rng.uniform(0.05, 1.0)
            beta = alpha * tau
            p_star = labo_from_logits(z, tau)
            bd = unified_objective(k, z, p_star, alpha, beta)
            label = mix_label(k, p_star, alpha).dist
            expansion = float(
                (-label * log_softmax(z) + beta * p_star * np.log(num_classes * p_star)).sum()
            )
            assert abs(bd.total - expansion) <= 1e-10

    def test_breakdown_additivity(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            bd = ObjectiveBreakdown.of(rng.normal(), abs(rng.normal()))
            assert bd.total == pytest.approx(bd.ce_term + bd.kl_term, abs=1e-12)

    def test_rejects_negative_beta(self):
        with pytest.raises(ValueError):
            unified_objective(0, [1.0, 0.0], uniform(2), 0.1, -0.5)


class TestCpLoss:
    def test_zero_penalty_is_plain_ce(self):
        z = np.array([1.0, -2.0, 0.3])
        assert cp_loss(2, z, 0.0) == pytest.approx(-log_softmax(z)[2], abs=1e-15)

    def test_uniform_logits(self):
        assert cp_loss(0, np.zeros(4), 0.3) == pytest.approx((1 - 0.3) * math.log(4), abs=1e-12)

    def test_derived_value(self):
        assert cp_loss(0, [2.0, 1.0, 0.0], 0.1) == pytest.approx(CP_EX, abs=1e-12)

    def test_analytic_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(100):
            num_classes = int(rng.choice([2, 3, 10]))
            z = rng.normal(0, 3, size=num_classes)
            k = int(rng.integers(num_classes))
            beta_cp = rng.uniform(0.0, 1.0)
            fd = fd_grad(lambda zz: cp_loss(k, zz, beta_cp), z)
            an = cp_grad_wrt_logits(k, z, beta_cp)
            worst = np.maximum(worst, np.linalg.norm(fd - an) / max(np.linalg.norm(fd), 1e-12))
        assert worst <= 1e-6

    @pytest.mark.parametrize("cp", [cp_loss, cp_grad_wrt_logits])
    @pytest.mark.parametrize(
        "z, beta_cp, message",
        [([1.0, 0.0], -0.1, "beta_cp must be >= 0, got -0.1"), ([np.nan, 0.0], 0.1, "logits must be finite")],
        ids=["negative-beta", "nan-logit"],
    )
    def test_bad_input_is_rejected_before_the_batch_call(self, cp, z, beta_cp, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            cp(0, z, beta_cp)

    def test_saturated_logits_give_finite_gradient(self):
        """p * log p is 0 * -1000 on the underflowed class, not 0 * log(0)."""
        with np.errstate(divide="raise", invalid="raise"):
            grad = cp_grad_wrt_logits(1, [0.0, 1000.0], 0.1)
        np.testing.assert_array_equal(grad, [0.0, 0.0])


class TestKdLoss:
    def test_zero_alpha_is_plain_ce(self):
        z = np.array([0.5, 1.5, -0.5])
        teacher = np.array([0.2, 0.5, 0.3])
        assert kd_loss(0, z, teacher, 0.0) == pytest.approx(-log_softmax(z)[0], abs=1e-15)

    def test_matching_teacher_removes_kl_term(self):
        z = np.array([0.5, 1.5, -0.5])
        teacher = softmax(z)
        expected = (1 - 0.4) * -log_softmax(z)[0]
        assert kd_loss(0, z, teacher, 0.4) == pytest.approx(expected, abs=1e-12)

    def test_saturated_logits_stay_finite(self):
        """softmax underflows to 0 on the first class, log_softmax does not:
        KL([0.5, 0.5] || p) = 0.5 * 1000 - log 2."""
        loss = kd_loss(1, [0.0, 1000.0], [0.5, 0.5], 0.3)
        assert loss == pytest.approx(0.3 * (500.0 - math.log(2.0)), rel=1e-15)


@pytest.mark.parametrize(
    "loss",
    [lambda k: cp_loss(k, [1.0, 0.0], 0.1), lambda k: cp_grad_wrt_logits(k, [1.0, 0.0], 0.1),
     lambda k: kd_loss(k, [1.0, 0.0], [0.5, 0.5], 0.3)],
    ids=["cp_loss", "cp_grad_wrt_logits", "kd_loss"],
)
@pytest.mark.parametrize("k", [-1, 2])
def test_class_index_out_of_range_is_rejected(loss, k):
    """k = -1 must not read the last class, k = K must not escape as an IndexError."""
    with pytest.raises(ValueError, match=re.escape(f"class index {k} out of range [0, 2)")):
        loss(k)


class TestKdDecomposition:
    def test_residual_small_on_random_instances(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(1000):
            num_classes = int(rng.choice([2, 3, 10]))
            z = rng.normal(0, 3, size=num_classes)
            teacher = interior_simplex(rng, num_classes)
            alpha = rng.uniform(0.0, 1.0)
            k = int(rng.integers(num_classes))
            worst = np.maximum(worst, kd_decomposition_residual(k, z, teacher, alpha))
        assert worst <= 1e-10

    def test_zero_alpha_residual_is_zero(self):
        assert kd_decomposition_residual(0, [1.0, 0.0, -1.0], [0.5, 0.25, 0.25], 0.0) == 0.0

    def test_uniform_teacher_reduces_to_ls(self):
        """With a uniform teacher the smoothed-CE side is exactly the LS
        loss and the distillation loss differs from it only by the
        constant -alpha * log K."""
        z = np.array([2.0, 1.0, 0.0])
        residual = kd_decomposition_residual(0, z, uniform(3), 0.1)
        assert residual <= 1e-12
        expected = SMOOTHED_CE_EX - 0.1 * math.log(3)
        assert kd_loss(0, z, uniform(3), 0.1) == pytest.approx(expected, abs=1e-12)
        ls_side = smoothed_ce(mix_label(0, uniform(3), 0.1), z)
        assert ls_side == pytest.approx(SMOOTHED_CE_EX, abs=1e-12)


class TestGradWrtLogits:
    def test_zero_at_matching_label(self):
        z = np.array([0.7, -0.1, 1.3])
        label = mix_label(0, softmax(z), 1.0)
        np.testing.assert_allclose(grad_wrt_logits(label, z), np.zeros(3), atol=1e-15)

    def test_entries_sum_to_zero(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            num_classes = int(rng.integers(2, 8))
            z = rng.normal(0, 3, size=num_classes)
            label = mix_label(int(rng.integers(num_classes)), interior_simplex(rng, num_classes), rng.uniform(0, 1))
            assert abs(grad_wrt_logits(label, z).sum()) <= 1e-12

    def test_matches_finite_differences_of_smoothed_ce(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(50):
            num_classes = int(rng.integers(2, 8))
            z = rng.normal(0, 2, size=num_classes)
            label = mix_label(int(rng.integers(num_classes)), interior_simplex(rng, num_classes), rng.uniform(0, 1))
            fd = fd_grad(lambda zz: smoothed_ce(label, zz), z)
            an = grad_wrt_logits(label, z)
            worst = np.maximum(worst, np.linalg.norm(fd - an) / max(np.linalg.norm(fd), 1e-12))
        assert worst <= 1e-6

    def test_matches_finite_differences_of_full_objective(self):
        """FD through label recomputation and the KL term: the gradient
        through the inner solution contributes nothing."""
        rng = np.random.default_rng(42)
        alpha, tau = 0.4, 1.25
        beta = alpha * tau
        worst = 0.0
        for _ in range(50):
            num_classes = int(rng.integers(2, 8))
            z = rng.normal(0, 2, size=num_classes)
            k = int(rng.integers(num_classes))

            def full(zz):
                p_star = labo_from_logits(zz, tau)
                return unified_objective(k, zz, p_star, alpha, beta).total

            fd = fd_grad(full, z)
            label = mix_label(k, labo_from_logits(z, tau), alpha)
            an = grad_wrt_logits(label, z)
            worst = np.maximum(worst, np.linalg.norm(fd - an) / max(np.linalg.norm(fd), 1e-12))
        assert worst <= 1e-4

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            grad_wrt_logits(uniform_smooth(0, 3, 0.1), [1.0, 0.0])


def _random_logits(rng, n, num_classes, scale):
    """(n, K) logits in [-1e4, 1e4]: Gaussian, near-one-hot and exactly uniform rows."""
    Z = rng.normal(0.0, scale, size=(n, num_classes))
    for i, kind in enumerate(rng.integers(3, size=n)):
        if kind == 1:
            Z[i] = -scale
            Z[i, rng.integers(num_classes)] = scale
        elif kind == 2:
            Z[i] = rng.uniform(-1e4, 1e4)
    return np.clip(Z, -1e4, 1e4)


def _reference_loss(mode, k, z, cfg, label, teacher_p, beta_cp):
    if mode == "labo":
        alpha = label.alpha_used
        return unified_objective(k, z, labo_from_logits(z, cfg.tau), alpha, alpha * cfg.tau).total
    if mode == "kd":
        return kd_loss(k, z, teacher_p, cfg.alpha)
    if mode == "cp":
        return cp_loss(k, z, beta_cp)
    return smoothed_ce(label, z)


class TestBatchObjective:
    """Every row of the batched objective against the per-instance functions."""

    # more examples than the suite default: hypothesis favours boundary draws
    # (beta_cp = 0, one-hot rows), and a dropped cp entropy term survived 2 of
    # 10 seeds at 50 examples
    @settings(max_examples=300)
    @given(
        mode=st.sampled_from(TRAIN_MODES),
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 6),
        num_classes=st.one_of(st.integers(2, 12), st.integers(13, 1000)),
        log_scale=st.floats(-3.0, 4.0),
        log_tau=st.floats(-2.0, 3.0),
        alpha=st.floats(0.0, 1.0),
        rho=st.floats(0.5, 1.0),
        adaptive=st.booleans(),
        beta_cp=st.floats(0.0, 1.0),
    )
    def test_rows_match_per_instance_functions(
        self, mode, seed, n, num_classes, log_scale, log_tau, alpha, rho, adaptive, beta_cp
    ):
        rng = np.random.default_rng(seed)
        Z = _random_logits(rng, n, num_classes, 10.0**log_scale)
        ks = rng.integers(num_classes, size=n)
        teacher_logP = log_softmax_rows(_random_logits(rng, n, num_classes, 10.0**log_scale))
        cfg = SmoothingConfig(
            alpha_rule="adaptive" if adaptive else "fixed",
            alpha=alpha,
            rho=rho,
            tau=10.0**log_tau,
        )
        labels, alphas, losses, grad = batch_objective(ks, Z, mode, cfg, beta_cp, teacher_logP)

        for out in (labels, alphas, losses, grad):
            assert np.all(np.isfinite(out))
        assert np.all(np.abs(labels.sum(axis=1) - 1.0) <= PROB_SUM_TOL)
        for i in range(n):
            k, z, teacher_p = int(ks[i]), Z[i], np.exp(teacher_logP[i])
            single = build_label(k, z, "none" if mode == "cp" else mode, cfg, teacher_p=teacher_p)
            np.testing.assert_allclose(labels[i], single.dist, rtol=0, atol=1e-14)
            assert alphas[i] == pytest.approx(single.alpha_used, rel=0, abs=1e-14)
            ref = _reference_loss(mode, k, z, cfg, single, teacher_p, beta_cp)
            beta = single.alpha_used * cfg.tau if mode == "labo" else 0.0
            assert abs(losses[i] - ref) <= BATCH_LOSS_RTOL * (1.0 + beta) * max(1.0, abs(ref))
            if mode == "cp":
                np.testing.assert_array_equal(grad[i], cp_grad_wrt_logits(k, z, beta_cp) / n)
            else:
                np.testing.assert_allclose(grad[i], grad_wrt_logits(single, z) / n, rtol=0, atol=1e-14)


class TestClassMajorLayout:
    """For K <= 7 the batch objective runs class-major; the row-major layout is the reference."""

    @pytest.mark.parametrize("alpha_rule", ["fixed", "adaptive"])
    @pytest.mark.parametrize("mode", TRAIN_MODES)
    @pytest.mark.parametrize("num_classes", [2, 3, 7])
    def test_layouts_give_the_same_bits(self, num_classes, mode, alpha_rule):
        rng = np.random.default_rng([num_classes, len(mode)])
        cfg = SmoothingConfig(alpha_rule=alpha_rule, alpha=0.3, rho=0.75, tau=1.25)
        n = 128
        layouts = [_objective_buffers(n, num_classes, class_major=False), _objective_buffers(n, num_classes)]
        for scale in (0.1, 3.0, 30.0, 1e3):  # the same batches in both layouts, each reusing its arrays
            Z = _random_logits(rng, n, num_classes, scale)
            ks = rng.integers(num_classes, size=n)
            teacher_logP = log_softmax_rows(_random_logits(rng, n, num_classes, scale))
            row_major, class_major = (
                [out.copy() for out in _batch_objective_into(ks, Z, mode, cfg, 0.3, teacher_logP, b)] for b in layouts)
            for name, a, b in zip(("labels", "alphas", "losses", "grad"), row_major, class_major):
                assert a.shape == b.shape and (a == b).all(), name

    def test_layout_is_picked_from_the_class_count(self):
        for num_classes in (2, 3, 7, 8, 100):
            b = _objective_buffers(16, num_classes)
            assert b.labels.flags.f_contiguous == (num_classes <= 7), num_classes
            assert b.grad.flags.c_contiguous  # the gradient `_backward` reads is row-major in both


def test_adaptive_alpha_is_held_fixed_in_the_labo_gradient():
    """The adaptive alpha(z) is a per-row weight held fixed like the label.

    The `labo` gradient row is the derivative of its loss row with alpha
    frozen at that row's adaptive value (worst relative error 2.1e-8 here);
    with alpha left live in the differences, the same draws read 30.
    """
    rng = np.random.default_rng(22)
    worst = 0.0
    for _ in range(200):
        num_classes = int(rng.choice([2, 3, 10]))
        z = rng.normal(0.0, 3.0, size=num_classes)
        ks = rng.integers(num_classes, size=1)
        rho = float(rng.choice([0.5, 0.75, 1.0]))
        adaptive = SmoothingConfig(alpha_rule="adaptive", rho=rho, tau=1.25)
        _, alphas, _, grad = batch_objective(ks, z[None, :], "labo", adaptive)
        frozen = SmoothingConfig(alpha=float(alphas[0]), tau=1.25)
        fd = fd_grad(lambda zz: batch_objective(ks, zz[None, :], "labo", frozen)[2][0], z)
        worst = max(worst, np.linalg.norm(fd - grad[0]) / max(np.linalg.norm(fd), 1e-12))
    assert worst <= 1e-6
