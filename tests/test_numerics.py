"""Probability kernel tests.

Expected values tagged as derived are 50-digit mpmath values read from the
golden table (`golden.py`); the kernels themselves never see
arbitrary-precision arithmetic.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from labo.numerics import (
    check_logits,
    entropy,
    kl_div,
    log_softmax,
    log_softmax_rows,
    onehot,
    softmax,
    tempered_softmax,
    uniform,
)
import golden
from conftest import interior_simplex

# golden values at z = (2, 1, 0) and p = (0.7, 0.2, 0.1)
SOFTMAX_210 = golden.value("softmax", "p", z="K3-210")
LOG_SOFTMAX_210 = golden.value("log_softmax", "logp", z="K3-210")
ENTROPY_721 = golden.value("entropy", "h", p="K3-721")
KL_721_U3 = golden.value("kl_div", "kl", p="K3-721", q="uniform")
TEMPERED_210_TAU2 = golden.value("labo_from_logits", "q", z="K3-210", tau=2.0)

logit_lists = st.lists(st.floats(-30.0, 30.0), min_size=2, max_size=10)


class TestSoftmax:
    def test_two_way_symmetry(self):
        np.testing.assert_allclose(softmax([0.0, 0.0]), [0.5, 0.5], atol=1e-15)

    def test_constant_logits_give_uniform(self):
        for c in [-7.0, 0.0, 3.5, 123.0]:
            np.testing.assert_allclose(softmax([c, c, c]), [1 / 3] * 3, atol=1e-15)

    def test_derived_value(self):
        np.testing.assert_allclose(softmax([2.0, 1.0, 0.0]), SOFTMAX_210, atol=1e-12)

    @given(logit_lists, st.floats(-50.0, 50.0))
    def test_shift_invariance(self, zs, c):
        z = np.array(zs)
        np.testing.assert_allclose(softmax(z + c), softmax(z), atol=1e-12)

    @given(logit_lists)
    def test_positive_and_normalized(self, zs):
        p = softmax(zs)
        assert np.all(p > 0)
        assert abs(p.sum() - 1.0) < 1e-12

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            softmax([np.inf, 0.0])
        with pytest.raises(ValueError):
            softmax([np.nan, 0.0])

    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            softmax([1.0])

    def test_rejects_logit_range_that_overflows(self):
        check_logits([1e308, -1e307])  # range 1.1e308 is still finite
        with pytest.raises(ValueError, match="logit range"):
            check_logits([1e308, -1e308, 0.0])


class TestLogSoftmax:
    def test_two_way(self):
        np.testing.assert_allclose(log_softmax([0.0, 0.0]), [-math.log(2)] * 2, atol=1e-15)

    def test_matches_softmax_on_random_inputs(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            z = rng.normal(0, 5, size=rng.integers(2, 12))
            np.testing.assert_allclose(np.exp(log_softmax(z)), softmax(z), atol=1e-12)

    def test_derived_value(self):
        np.testing.assert_allclose(log_softmax([2.0, 1.0, 0.0]), LOG_SOFTMAX_210, atol=1e-12)

    def test_extreme_spread_is_stable(self):
        z = np.array([1000.0, 0.0, -1000.0])
        np.testing.assert_allclose(np.exp(log_softmax(z)), softmax(z), atol=1e-12)
        assert np.all(np.isfinite(log_softmax(z)))


class TestEntropy:
    def test_uniform_is_maximal(self):
        assert entropy(uniform(4)) == pytest.approx(math.log(4), abs=1e-12)

    def test_onehot_is_zero(self):
        assert entropy(onehot(2, 5)) == 0.0

    def test_derived_value(self):
        assert entropy([0.7, 0.2, 0.1]) == pytest.approx(ENTROPY_721, abs=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            num_classes = int(rng.integers(2, 12))
            p = rng.dirichlet(np.ones(num_classes))
            h = entropy(p)
            assert -1e-15 <= h <= math.log(num_classes) + 1e-12

    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError):
            entropy([1.1, -0.1])


class TestKlDiv:
    def test_self_divergence_is_zero(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            p = rng.dirichlet(np.ones(4))
            assert kl_div(p, p) == 0.0

    def test_onehot_vs_uniform(self):
        for num_classes in [2, 3, 10]:
            got = kl_div(onehot(0, num_classes), uniform(num_classes))
            assert got == pytest.approx(math.log(num_classes), abs=1e-12)

    def test_derived_value(self):
        assert kl_div([0.7, 0.2, 0.1], uniform(3)) == pytest.approx(KL_721_U3, abs=1e-12)

    def test_uniform_reference_identity(self):
        """KL(p || U) == log K - H(p)."""
        rng = np.random.default_rng(42)
        for _ in range(200):
            num_classes = int(rng.integers(2, 12))
            p = rng.dirichlet(np.ones(num_classes))
            lhs = kl_div(p, uniform(num_classes))
            rhs = math.log(num_classes) - entropy(p)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_gibbs_nonnegativity(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            num_classes = int(rng.integers(2, 12))
            p = interior_simplex(rng, num_classes)
            q = interior_simplex(rng, num_classes)
            assert kl_div(p, q) >= 0.0

    def test_support_violation_raises(self):
        with pytest.raises(ValueError, match="support"):
            kl_div([0.5, 0.5, 0.0], [0.5, 0.0, 0.5])

    def test_zero_p_terms_allowed(self):
        assert kl_div([0.0, 1.0], [0.5, 0.5]) == pytest.approx(math.log(2), abs=1e-12)


class TestTemperedSoftmax:
    def test_unit_temperature_is_softmax(self):
        z = np.array([1.3, -0.2, 0.8])
        np.testing.assert_array_equal(tempered_softmax(z, 1.0), softmax(z))

    def test_large_temperature_flattens_to_uniform(self):
        p = tempered_softmax([2.0, 1.0, 0.0], 1e9)
        assert np.abs(p - uniform(3)).max() <= 1e-8

    def test_derived_value(self):
        np.testing.assert_allclose(tempered_softmax([2.0, 1.0, 0.0], 2.0), TEMPERED_210_TAU2, atol=1e-12)

    @pytest.mark.parametrize("tau", [0.0, -1.0])
    def test_rejects_nonpositive_temperature(self, tau):
        with pytest.raises(ValueError):
            tempered_softmax([1.0, 0.0], tau)


class TestRowKernels:
    def test_match_vector_kernels(self):
        rng = np.random.default_rng(42)
        Z = rng.normal(0, 4, size=(32, 6))
        L = log_softmax_rows(Z)
        for i in range(Z.shape[0]):
            np.testing.assert_array_equal(L[i], log_softmax(Z[i]))
