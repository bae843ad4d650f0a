"""Exponentiated-gradient solver tests.

The solver is the independent route used to certify the closed-form
optimal smoothing; these tests also certify the solver itself (limit
cases, interior iterates, initialization invariance, Hessian structure).
"""

import numpy as np
import pytest

import labo.oracle as oracle_mod
from labo.numerics import uniform
from labo.oracle import (
    hessian_check,
    inner_gradient,
    inner_objective,
    numerical_hessian,
    solve_inner_numeric,
    verify_closed_form,
)
from labo.smoothing import labo_optimal_smoothing
from conftest import interior_simplex

LABO_721_TAU2 = [0.52287938300786971, 0.27949078654617094, 0.19762983044595936]


class TestSolveInnerNumeric:
    def test_huge_beta_flattens_to_uniform(self):
        report = solve_inner_numeric([0.7, 0.2, 0.1], 1.0, 1e6)
        assert report.converged
        assert np.abs(report.argmin - uniform(3)).max() <= 1e-5

    def test_equal_weights_recover_p(self):
        p = np.array([0.7, 0.2, 0.1])
        report = solve_inner_numeric(p, 0.8, 0.8)
        assert report.converged
        assert np.abs(report.argmin - p).max() <= 1e-8

    def test_derived_example_matches_closed_form(self):
        report = solve_inner_numeric([0.7, 0.2, 0.1], 1.0, 2.0)
        assert report.converged
        np.testing.assert_allclose(report.argmin, LABO_721_TAU2, atol=1e-6)

    def test_iterates_stay_strictly_interior(self, monkeypatch):
        """The gradient is evaluated at every iterate, so intercepting it
        observes the whole trajectory."""
        seen = []
        original = oracle_mod.inner_gradient

        def spy(x, p, alpha, beta):
            seen.append(x.copy())
            return original(x, p, alpha, beta)

        monkeypatch.setattr(oracle_mod, "inner_gradient", spy)
        p = np.array([0.97, 0.01, 0.01, 0.01])
        report = solve_inner_numeric(p, 1.0, 0.2)  # tau = 0.2 sharpens hard
        assert report.converged
        assert len(seen) == report.iterations
        assert all(np.all(x > 0) for x in seen)

    def test_reports_non_convergence(self):
        report = solve_inner_numeric([0.6, 0.4], 1.0, 2.0, tol=1e-10, max_iter=3)
        assert not report.converged
        assert report.iterations == 3

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            solve_inner_numeric([1.0, 0.0], 1.0, 2.0)
        with pytest.raises(ValueError):
            solve_inner_numeric([0.6, 0.4], 1.0, 0.0)
        with pytest.raises(ValueError):
            solve_inner_numeric([0.6, 0.4], 1.0, 2.0, tol=0.0)

    def test_initialization_invariance(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            num_classes = int(rng.choice([2, 3, 10]))
            p = interior_simplex(rng, num_classes)
            alpha = rng.uniform(0.3, 1.0)
            beta = alpha * rng.uniform(1.05, 10.0)
            a = solve_inner_numeric(p, alpha, beta)
            b = solve_inner_numeric(p, alpha, beta, init=interior_simplex(rng, num_classes))
            assert a.converged and b.converged
            assert np.abs(a.argmin - b.argmin).max() <= 1e-8


class TestVerifyClosedForm:
    def test_sweep_over_random_instances(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(200):
            num_classes = int(rng.choice([2, 3, 10, 50]))
            p = interior_simplex(rng, num_classes)
            tau = rng.uniform(1.05, 20.0)
            alpha = rng.uniform(0.3, 1.0)
            worst = np.maximum(worst, verify_closed_form(p, alpha, alpha * tau))
        assert worst <= 1e-6

    def test_unit_ratio_distance(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            p = interior_simplex(rng, int(rng.choice([2, 3, 10])))
            assert verify_closed_form(p, 0.7, 0.7) <= 1e-12

    def test_two_class_exact_case(self):
        closed = labo_optimal_smoothing([0.9, 0.1], 2.0)
        np.testing.assert_allclose(closed, [0.75, 0.25], atol=1e-15)
        assert verify_closed_form([0.9, 0.1], 1.0, 2.0) <= 1e-9

    def test_closed_form_never_loses(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            num_classes = int(rng.choice([2, 3, 10]))
            p = interior_simplex(rng, num_classes)
            alpha = rng.uniform(0.3, 1.0)
            beta = alpha * rng.uniform(1.05, 20.0)
            closed = labo_optimal_smoothing(p, beta / alpha)
            report = solve_inner_numeric(p, alpha, beta)
            assert inner_objective(closed, p, alpha, beta) <= report.objective_at_argmin + 1e-9

    def test_detects_an_inverted_exponent(self, monkeypatch):
        """Sanity check that the oracle can actually fail."""

        def wrong(p, tau):
            return labo_optimal_smoothing(p, 1.0 / tau)

        monkeypatch.setattr("labo.smoothing.labo_optimal_smoothing", wrong)
        p = np.array([0.7, 0.2, 0.1])
        with pytest.raises(RuntimeError, match="lost"):
            verify_closed_form(p, 1.0, 2.0)

    def test_propagates_non_convergence(self, monkeypatch):
        def lazy_solver(*args, **kwargs):
            kwargs["max_iter"] = 2
            return solve_inner_numeric(*args, **kwargs)

        monkeypatch.setattr(oracle_mod, "solve_inner_numeric", lazy_solver)
        with pytest.raises(RuntimeError, match="converge"):
            oracle_mod.verify_closed_form([0.7, 0.2, 0.1], 1.0, 2.0)


class TestIndependence:
    def test_oracle_never_calls_the_closed_form(self, monkeypatch):
        """The solver and the Hessian check still work with every closed-form
        route (and the tempered softmax behind it) made to raise."""

        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle called the closed form")

        for name in ("labo.smoothing.labo_optimal_smoothing", "labo.smoothing.labo_from_logits",
                     "labo.numerics.tempered_softmax"):
            monkeypatch.setattr(name, forbidden)
        rng = np.random.default_rng(7)
        p = interior_simplex(rng, 5)
        alpha, beta = 0.6, 1.5
        expected = p ** (alpha / beta)
        expected /= expected.sum()
        report = solve_inner_numeric(p, alpha, beta, tol=1e-14)
        assert report.converged
        np.testing.assert_allclose(report.argmin, expected, rtol=0, atol=1e-6)
        assert hessian_check(p, beta) <= 1e-4


class TestHessianCheck:
    def test_uniform_case(self):
        p_ls = uniform(4)
        assert hessian_check(p_ls, 1.0) <= 1e-4
        # analytic diagonal is beta * K at the uniform point
        logp = np.log(p_ls)

        def f(x):
            return float(-(x * logp).sum() + 1.0 * (x * np.log(4 * x)).sum())

        H = numerical_hessian(f, p_ls.copy(), np.full(4, 1e-4))
        np.testing.assert_allclose(np.diag(H), [4.0] * 4, atol=1e-4)

    def test_derived_diagonal(self):
        p_ls = np.array([0.5, 0.3, 0.2])
        beta = 2.0
        logp = np.log(p_ls)

        def f(x):
            return float(-(x * logp).sum() + beta * (x * np.log(3 * x)).sum())

        steps = 3e-4 * p_ls**0.75 / beta**0.25
        H = numerical_hessian(f, p_ls.copy(), steps)
        np.testing.assert_allclose(np.diag(H), [4.0, 2.0 / 0.3, 10.0], atol=1e-4)
        assert hessian_check(p_ls, beta) <= 1e-4

    def test_diagonal_positive_and_offdiag_small(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            num_classes = int(rng.choice([2, 3, 10]))
            p_ls = interior_simplex(rng, num_classes, floor_mix=0.1)
            beta = rng.uniform(0.5, 5.0)
            assert hessian_check(p_ls, beta) <= 1e-4
            logp = np.log(p_ls)

            def f(x):
                return float(-(x * logp).sum() + beta * (x * np.log(num_classes * x)).sum())

            steps = 3e-4 * p_ls**0.75 / beta**0.25
            H = numerical_hessian(f, p_ls.copy(), steps)
            assert np.all(np.diag(H) > 0)
            off = H - np.diag(np.diag(H))
            assert np.abs(off).max() <= 1e-4

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            hessian_check([1.0, 0.0], 1.0)
        with pytest.raises(ValueError):
            hessian_check([0.5, 0.5], 0.0)


class TestInnerObjectiveGeometry:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        p = interior_simplex(rng, 5)
        x = interior_simplex(rng, 5)
        alpha, beta = 0.6, 1.3
        h = 1e-7
        for i in range(5):
            e = np.zeros(5)
            e[i] = h
            fd = (
                float(-(alpha * ((x + e) * np.log(p)).sum()) + beta * ((x + e) * np.log(5 * (x + e))).sum())
                - float(-(alpha * ((x - e) * np.log(p)).sum()) + beta * ((x - e) * np.log(5 * (x - e))).sum())
            ) / (2 * h)
            assert fd == pytest.approx(inner_gradient(x, p, alpha, beta)[i], abs=1e-6)

    def test_gradient_constant_at_closed_form(self):
        """At the optimum the gradient is a multiple of the ones vector."""
        rng = np.random.default_rng(42)
        for _ in range(20):
            p = interior_simplex(rng, int(rng.choice([2, 3, 10])))
            alpha = rng.uniform(0.3, 1.0)
            beta = alpha * rng.uniform(1.05, 10.0)
            star = labo_optimal_smoothing(p, beta / alpha)
            g = inner_gradient(star, p, alpha, beta)
            assert np.abs(g - g.mean()).max() <= 1e-10
