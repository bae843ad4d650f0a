"""Smoothed-label construction tests.

Derived expectations are 50-digit mpmath values read from the golden table
(`golden.py`).
"""

import math
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from labo.numerics import entropy, log_softmax_rows, softmax, tempered_softmax, uniform
from labo.objectives import batch_objective
from labo.smoothing import (
    SmoothingConfig,
    adaptive_alpha,
    build_label,
    labo_from_logits,
    labo_optimal_smoothing,
    mix_label,
    uniform_smooth,
)
import golden
from conftest import interior_simplex

LABO_721_TAU2 = golden.value("labo_optimal_smoothing", "q", p="K3-721", tau=2.0)
ADAPTIVE_721_RHO05 = golden.value("adaptive_alpha", "alpha", p="K3-721", rho=0.5)
# (1 - a) * onehot(0) + a * tempered_softmax((2,1,0), 2) with a = adaptive_alpha(softmax((2,1,0)), 0.5)
ADAPTIVE_SM210_RHO05 = golden.value("objective", "alpha", z="K3-210", mode="labo", rho=0.5, tau=2.0)
LABO_LABEL_EX = golden.value("objective", "label", z="K3-210", mode="labo", rho=0.5, tau=2.0)


class TestSmoothingConfig:
    def test_defaults(self):
        cfg = SmoothingConfig()
        assert cfg.tau == 1.25 and cfg.rho == 0.5

    def test_holds_only_hyperparameters(self):
        assert [f.name for f in fields(SmoothingConfig)] == ["alpha_rule", "alpha", "rho", "tau"]

    def test_from_dict_checks_and_drops_a_mode_key(self):
        cfg = SmoothingConfig.from_dict({"mode": "kd", "alpha": 0.2})
        assert cfg == SmoothingConfig(alpha=0.2)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "bogus"},
            {"alpha_rule": "bogus"},
            {"alpha": -0.1},
            {"alpha": 1.5},
            {"rho": 0.2},
            {"rho": 1.1},
            {"tau": 0.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SmoothingConfig.from_dict(kwargs)


class TestUniformSmooth:
    def test_zero_alpha_recovers_onehot(self):
        label = uniform_smooth(0, 4, 0.0)
        np.testing.assert_array_equal(label.dist, [1.0, 0.0, 0.0, 0.0])

    def test_full_alpha_is_uniform(self):
        label = uniform_smooth(0, 4, 1.0)
        np.testing.assert_allclose(label.dist, [0.25] * 4, atol=1e-15)

    def test_standard_alpha(self):
        label = uniform_smooth(2, 10, 0.1)
        expected = np.full(10, 0.01)
        expected[2] = 0.91
        np.testing.assert_allclose(label.dist, expected, atol=1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            uniform_smooth(0, 4, 1.2)
        with pytest.raises(ValueError):
            uniform_smooth(4, 4, 0.1)


class TestMixLabel:
    def test_uniform_mixing_matches_uniform_smooth(self):
        a = mix_label(1, uniform(5), 0.3)
        b = uniform_smooth(1, 5, 0.3)
        np.testing.assert_allclose(a.dist, b.dist, atol=1e-12)

    def test_zero_alpha_is_onehot(self):
        label = mix_label(2, [0.5, 0.3, 0.2], 0.0)
        np.testing.assert_array_equal(label.dist, np.eye(3)[2])

    def test_derived_value(self):
        label = mix_label(0, [0.5, 0.3, 0.2], 0.4)
        np.testing.assert_allclose(label.dist, [0.80, 0.12, 0.08], atol=1e-15)
        assert label.alpha_used == 0.4 and label.target == 0

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mix_label(3, [0.5, 0.5], 0.1)

    @given(
        st.integers(0, 3),
        st.floats(0.0, 1.0),
        st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
    )
    def test_output_is_valid_distribution(self, k, alpha, raw):
        p_ls = np.array(raw) / np.sum(raw)
        dist = mix_label(k, p_ls, alpha).dist
        assert np.all(dist >= 0)
        assert abs(dist.sum() - 1.0) < 1e-9
        # the one-hot part lands only on the target coordinate
        np.testing.assert_allclose(np.delete(dist, k), alpha * np.delete(p_ls, k), atol=1e-12)


class TestLaboOptimalSmoothing:
    def test_unit_temperature_is_identity(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            p = interior_simplex(rng, int(rng.integers(2, 12)))
            assert np.abs(labo_optimal_smoothing(p, 1.0) - p).max() <= 1e-12

    def test_huge_temperature_is_uniform(self):
        p = np.array([0.7, 0.2, 0.1])
        assert np.abs(labo_optimal_smoothing(p, 1e6) - uniform(3)).max() <= 1e-5

    def test_derived_value_sqrt_normalization(self):
        np.testing.assert_allclose(
            labo_optimal_smoothing([0.7, 0.2, 0.1], 2.0), LABO_721_TAU2, atol=1e-12
        )

    def test_exact_two_class_case(self):
        np.testing.assert_allclose(
            labo_optimal_smoothing([0.9, 0.1], 2.0), [0.75, 0.25], atol=1e-15
        )

    def test_rejects_zero_probability(self):
        with pytest.raises(ValueError):
            labo_optimal_smoothing([1.0, 0.0], 2.0)

    def test_depends_only_on_weight_ratio(self):
        """Scaling (alpha, beta) -> (c*alpha, c*beta) leaves tau and P* alone."""
        p = np.array([0.5, 0.3, 0.2])
        alpha, beta = 0.4, 0.9
        base = labo_optimal_smoothing(p, beta / alpha)
        for c in [0.25, 3.0, 17.0]:
            scaled = labo_optimal_smoothing(p, (c * beta) / (c * alpha))
            np.testing.assert_allclose(scaled, base, atol=1e-12)

    def test_tempering_never_sharpens(self):
        """entropy(P*) >= entropy(p) for tau >= 1."""
        rng = np.random.default_rng(42)
        for _ in range(1000):
            p = interior_simplex(rng, int(rng.integers(2, 12)), floor_mix=0.01)
            tau = rng.uniform(1.0, 10.0)
            assert entropy(labo_optimal_smoothing(p, tau)) >= entropy(p) - 1e-12


class TestLaboFromLogits:
    def test_matches_probability_route_on_example(self):
        z = np.array([2.0, 1.0, 0.0])
        via_logits = labo_from_logits(z, 2.0)
        via_probs = labo_optimal_smoothing(softmax(z), 2.0)
        np.testing.assert_allclose(via_logits, [0.50648039105565403, 0.3071958857184984, 0.18632372322584758], atol=1e-12)
        np.testing.assert_allclose(via_logits, via_probs, atol=1e-12)

    def test_unit_temperature_is_softmax(self):
        z = np.array([0.3, -1.0, 2.2])
        np.testing.assert_array_equal(labo_from_logits(z, 1.0), softmax(z))

    def test_agreement_on_random_logits(self):
        rng = np.random.default_rng(42)
        for i in range(100):
            z = rng.normal(0, 3, size=int(rng.integers(2, 12)))
            tau = [1.15, 1.25][i % 2]
            gap = np.abs(labo_from_logits(z, tau) - labo_optimal_smoothing(softmax(z), tau)).max()
            assert gap <= 1e-12

    def test_is_tempered_softmax(self):
        z = np.array([2.0, -1.0, 0.5])
        np.testing.assert_array_equal(labo_from_logits(z, 3.3), tempered_softmax(z, 3.3))


class TestAdaptiveAlpha:
    def test_uniform_prediction_gives_rho_complement(self):
        assert adaptive_alpha(uniform(7), 0.5) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("num_classes", [5, 12])
    def test_uniform_prediction_at_unit_rho_gives_zero_on_both_paths(self, num_classes):
        # H(p) rounds above log K at these K; alpha stays at 1 - rho = 0, not just below it
        cfg = SmoothingConfig(alpha_rule="adaptive", rho=1.0)
        assert adaptive_alpha(uniform(num_classes), 1.0) == 0.0
        assert build_label(0, np.zeros(num_classes), "labo", cfg).alpha_used == 0.0
        labels, alphas, _, _ = batch_objective(np.zeros(3, dtype=int), np.zeros((3, num_classes)), "labo", cfg)
        assert np.all(alphas == 0.0) and np.all(labels >= 0.0)

    def test_confident_prediction_saturates(self):
        p = np.array([1.0 - 1e-12, 0.5e-12, 0.5e-12])
        for rho in [0.5, 0.8, 1.0]:
            assert adaptive_alpha(p, rho) >= 1.0 - 1e-9

    def test_derived_value(self):
        assert adaptive_alpha([0.7, 0.2, 0.1], 0.5) == pytest.approx(ADAPTIVE_721_RHO05, abs=1e-12)

    @pytest.mark.parametrize("rho", [0.4, 1.01])
    def test_rejects_bad_rho(self, rho):
        with pytest.raises(ValueError):
            adaptive_alpha(uniform(3), rho)

    @given(st.floats(0.5, 1.0), st.lists(st.floats(0.01, 1.0), min_size=3, max_size=9))
    def test_bounds(self, rho, raw):
        p = np.array(raw) / np.sum(raw)
        a = adaptive_alpha(p, rho)
        assert 1.0 - rho - 1e-12 <= a <= 1.0 + 1e-12

    def test_monotone_in_entropy(self):
        """Lower entropy means at least as much smoothing."""
        rng = np.random.default_rng(42)
        for _ in range(200):
            num_classes = int(rng.integers(2, 10))
            p1 = interior_simplex(rng, num_classes)
            p2 = interior_simplex(rng, num_classes)
            if entropy(p1) > entropy(p2):
                p1, p2 = p2, p1
            for rho in [0.5, 0.75, 1.0]:
                assert adaptive_alpha(p1, rho) >= adaptive_alpha(p2, rho) - 1e-12


class TestBuildLabel:
    def test_labo_with_zero_alpha_is_onehot(self):
        cfg = SmoothingConfig(alpha_rule="fixed", alpha=0.0, tau=1.25)
        for z in ([2.0, 1.0, 0.0], [-3.0, 5.0, 0.1]):
            label = build_label(1, z, "labo", cfg)
            np.testing.assert_array_equal(label.dist, np.eye(3)[1])

    @pytest.mark.parametrize("z", [[2.0, 1.0, 0.0], [-3.0, 5.0, 0.1, 40.0]])
    def test_labo_fixed_alpha_is_the_tempered_mix(self, z):
        """Under the fixed rule the label is exactly mix_label of the tempered logits,
        and a NaN logit still fails the one check of z."""
        cfg = SmoothingConfig(alpha_rule="fixed", alpha=0.3, tau=1.7)
        label = build_label(1, z, "labo", cfg)
        expected = mix_label(1, labo_from_logits(z, cfg.tau), cfg.alpha)
        assert label.alpha_used == expected.alpha_used == 0.3
        np.testing.assert_array_equal(label.dist, expected.dist)
        for rule in ("fixed", "adaptive"):
            with pytest.raises(ValueError, match="^logits must be finite$"):
                build_label(1, [*z[:-1], math.nan], "labo", SmoothingConfig(alpha_rule=rule, tau=1.7))

    def test_ls_matches_uniform_smooth(self):
        cfg = SmoothingConfig(alpha=0.1)
        label = build_label(2, np.zeros(10), "ls", cfg)
        np.testing.assert_allclose(label.dist, uniform_smooth(2, 10, 0.1).dist, atol=1e-15)

    def test_labo_adaptive_derived_example(self):
        cfg = SmoothingConfig(alpha_rule="adaptive", rho=0.5, tau=2.0)
        label = build_label(0, [2.0, 1.0, 0.0], "labo", cfg)
        assert label.alpha_used == pytest.approx(ADAPTIVE_SM210_RHO05, abs=1e-12)
        np.testing.assert_allclose(label.dist, LABO_LABEL_EX, atol=1e-12)

    def test_none_mode_ignores_logits(self):
        cfg = SmoothingConfig()
        label = build_label(1, [9.0, -9.0, 0.0], "none", cfg)
        np.testing.assert_array_equal(label.dist, np.eye(3)[1])
        assert label.alpha_used == 0.0

    def test_kd_requires_teacher(self):
        cfg = SmoothingConfig(alpha=0.5)
        with pytest.raises(ValueError, match="teacher"):
            build_label(0, [1.0, 0.0], "kd", cfg)
        label = build_label(0, [1.0, 0.0], "kd", cfg, teacher_p=[0.8, 0.2])
        np.testing.assert_allclose(label.dist, [0.9, 0.1], atol=1e-15)

    def test_kd_rejects_a_teacher_of_another_length(self):
        """The same pair that kd_loss rejects: 3 teacher classes for 2 logits."""
        with pytest.raises(ValueError, match=re.escape("shape mismatch: teacher (3,) vs logits (2,)")):
            build_label(0, [1.0, 0.0], "kd", SmoothingConfig(alpha=0.5), teacher_p=[0.2, 0.3, 0.5])

    def test_returns_fresh_arrays(self):
        cfg = SmoothingConfig(alpha=0.1)
        first = build_label(0, [1.0, 0.0, 2.0], "ls", cfg)
        first.dist[0] = 99.0
        second = build_label(0, [1.0, 0.0, 2.0], "ls", cfg)
        assert second.dist[0] != 99.0

    @pytest.mark.parametrize("mode", ["cp", "bogus"])
    def test_rejects_modes_without_a_label_rule(self, mode):
        with pytest.raises(ValueError, match="mode must be one of"):
            build_label(0, [1.0, 0.0], mode, SmoothingConfig())


class TestBuildLabelBatch:
    """The label matrix of `batch_objective` against per-instance `build_label`."""

    @pytest.mark.parametrize(
        "cfg",
        [
            ("none", SmoothingConfig()),
            ("ls", SmoothingConfig(alpha=0.1)),
            ("kd", SmoothingConfig(alpha=0.4)),
            ("labo", SmoothingConfig(alpha_rule="fixed", alpha=0.3, tau=1.25)),
            ("labo", SmoothingConfig(alpha_rule="adaptive", rho=0.5, tau=1.25)),
        ],
    )
    def test_rows_match_single_instance_path(self, cfg):
        mode, cfg = cfg
        rng = np.random.default_rng(42)
        n, num_classes = 16, 5
        Z = rng.normal(0, 3, size=(n, num_classes))
        ks = rng.integers(num_classes, size=n)
        teacher_logP = log_softmax_rows(rng.normal(0, 2, size=(n, num_classes)))
        dist, alphas, _, _ = batch_objective(ks, Z, mode, cfg, teacher_logP=teacher_logP)
        assert dist.shape == (n, num_classes) and alphas.shape == (n,)
        for i in range(n):
            single = build_label(int(ks[i]), Z[i], mode, cfg, teacher_p=np.exp(teacher_logP[i]))
            np.testing.assert_allclose(dist[i], single.dist, atol=1e-14)
            assert alphas[i] == pytest.approx(single.alpha_used, abs=1e-14)

    def test_kd_requires_teacher(self):
        cfg = SmoothingConfig()
        with pytest.raises(ValueError, match="teacher"):
            batch_objective(np.zeros(2, dtype=int), np.zeros((2, 3)), "kd", cfg)

    def test_no_state_between_calls(self):
        """Labels are rebuilt from scratch; mutating one batch's output
        cannot leak into the next."""
        cfg = SmoothingConfig(alpha_rule="adaptive", rho=0.5, tau=1.25)
        ks = np.array([0, 1])
        Z = np.array([[2.0, 1.0, 0.0], [0.0, 1.0, 2.0]])
        first = batch_objective(ks, Z, "labo", cfg)
        reference = [a.copy() for a in first]
        for a in first:
            a += 17.0
        second = batch_objective(ks, Z, "labo", cfg)
        for a, b in zip(second, reference):
            np.testing.assert_array_equal(a, b)


class TestFunctionsOfLogitsAreKernelRows:
    """The per-instance functions of logits return the bits of the training kernel's rows.

    K covers both layouts of `batch_objective` (class-major for K <= 7), and the
    logit scales reach 350, where tiny probabilities exp(log p) are least accurate.
    """

    CLASS_COUNTS = (2, 3, 7, 8, 100)
    SCALES = (1.0, 30.0, 350.0)
    CONFIGS = [
        ("none", SmoothingConfig()),
        ("ls", SmoothingConfig(alpha=0.3)),
        ("kd", SmoothingConfig(alpha=0.4)),
        ("labo", SmoothingConfig(alpha_rule="fixed", alpha=0.3, tau=1.7)),
        ("labo", SmoothingConfig(alpha_rule="adaptive", rho=0.75, tau=0.6)),
    ]

    def batches(self):
        """(Z, ks, T) per class count and scale: 12 rows of logits, classes and teachers; row 0's teacher has a 0."""
        rng = np.random.default_rng(33)
        for num_classes in self.CLASS_COUNTS:
            for scale in self.SCALES:
                Z = rng.normal(0.0, scale, size=(12, num_classes))
                T = rng.dirichlet(np.ones(num_classes), size=12)
                T[0, int(rng.integers(num_classes))] = 0.0
                yield Z, rng.integers(num_classes, size=12), T / T.sum(axis=1, keepdims=True)

    def test_softmax_family_is_exp_of_the_row_kernel(self):
        mismatches = 0
        for Z, _, _ in self.batches():
            for tau in (0.6, 1.0, 1.7):
                Q = np.exp(log_softmax_rows(Z / tau))
                for z, q in zip(Z, Q):
                    mismatches += not np.array_equal(tempered_softmax(z, tau), q)
                    mismatches += not np.array_equal(labo_from_logits(z, tau), q)
            mismatches += sum(not np.array_equal(softmax(z), p) for z, p in zip(Z, np.exp(log_softmax_rows(Z))))
        assert mismatches == 0

    @pytest.mark.parametrize("mode, cfg", CONFIGS, ids=["none", "ls", "kd", "labo-fixed", "labo-adaptive"])
    def test_build_label_is_the_batch_objective_row(self, mode, cfg):
        mismatches = []
        for Z, ks, T in self.batches():
            with np.errstate(divide="ignore"):  # the zero teacher entry's log is -inf
                labels, alphas, _, _ = batch_objective(ks, Z, mode, cfg, teacher_logP=np.log(T))
            for i, (z, k, t) in enumerate(zip(Z, ks, T)):
                label = build_label(int(k), z, mode, cfg, teacher_p=t if mode == "kd" else None)
                if not (np.array_equal(label.dist, labels[i]) and label.alpha_used == alphas[i]):
                    mismatches.append((z.size, i))
        assert mismatches == []
