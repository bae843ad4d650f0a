"""Exponentiated-gradient solver tests.

The solver is the independent route used to certify the closed-form
optimal smoothing; these tests also certify the solver itself (limit
cases, interior iterates, initialization invariance, Hessian structure).
"""

import re

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
import golden
from conftest import by_class_count, closed_form_instances, interior_simplex

LABO_721_TAU2 = golden.value("labo_optimal_smoothing", "q", p="K3-721", tau=2.0)


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
        for P, A, B in by_class_count(closed_form_instances(rng, 200)):
            worst = np.maximum(worst, verify_closed_form(P, A, B).max())
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

    @pytest.mark.parametrize("alpha", [0.0, -0.5])
    def test_rejects_non_positive_alpha(self, alpha):
        """tau = beta / alpha has no value there."""
        with pytest.raises(ValueError, match=re.escape(f"alpha must be positive (tau = beta / alpha), got {alpha}")):
            verify_closed_form([0.7, 0.2, 0.1], alpha, 1.0)
        with pytest.raises(ValueError, match=re.escape(f"row 1: alpha must be positive (tau = beta / alpha), got {alpha}")):
            verify_closed_form([[0.7, 0.2, 0.1], [0.2, 0.3, 0.5]], [1.0, alpha], 1.0)


class TestBatch:
    def test_rows_match_their_single_solves(self):
        """Each row of a batch takes the iterates of its own n = 1 solve."""
        instances = closed_form_instances(np.random.default_rng(11), 200)
        groups = list(by_class_count(instances))
        assert [P.shape[1] for P, _, _ in groups] == [2, 3, 10, 50]
        worst = 0.0
        for P, A, B in groups:
            batch = solve_inner_numeric(P, A, B, tol=1e-14)
            singles = [solve_inner_numeric(p, a, b, tol=1e-14) for p, a, b in zip(P, A, B)]
            assert batch.converged is True and all(s.converged for s in singles)
            assert type(batch.iterations) is int and batch.iterations == max(s.iterations for s in singles)
            worst = max(worst, max(np.abs(row - s.argmin).max() for row, s in zip(batch.argmin, singles)))
            np.testing.assert_array_equal(batch.objective_at_argmin, [s.objective_at_argmin for s in singles])
        assert worst <= 1e-12

    def test_row_started_at_its_optimum_freezes(self, monkeypatch):
        """A row whose first step is within tol is left out of every later sweep."""
        P = np.array([[0.7, 0.2, 0.1], [0.5, 0.3, 0.2], [0.6, 0.3, 0.1]])
        alpha, beta = 0.8, 2.0
        star = labo_optimal_smoothing(P[0], beta / alpha)
        rows_per_sweep = []
        original = oracle_mod.inner_gradient

        def spy(x, p, a, b):
            rows_per_sweep.append(x.shape[0])
            return original(x, p, a, b)

        monkeypatch.setattr(oracle_mod, "inner_gradient", spy)
        batch = solve_inner_numeric(P, alpha, beta, init=[star, uniform(3), uniform(3)])
        sweeps = rows_per_sweep.copy()
        alone = solve_inner_numeric(P[0], alpha, beta, init=star)
        assert batch.converged and alone.converged and alone.iterations == 1
        assert batch.argmin[0].tolist() == alone.argmin.tolist()
        assert sweeps[0] == 3 and max(sweeps[1:]) == 2 and batch.iterations == len(sweeps) > 1

    @pytest.mark.parametrize(
        "bad_row, message",
        [
            ([0.5, 0.5, 0.0], "row 1: inner problem requires strictly positive p"),
            ([0.5, 0.3, 0.1], "row 1: probability vector sums to"),
            ([0.5, 0.5], "row 1: has 2 entries, expected 3"),
        ],
        ids=["zero-entry", "wrong-sum", "wrong-shape"],
    )
    def test_bad_row_is_named(self, bad_row, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            solve_inner_numeric([[0.7, 0.2, 0.1], bad_row, [0.2, 0.3, 0.5]], 1.0, 2.0)

    def test_bad_beta_and_init_are_named(self):
        P = np.array([[0.7, 0.2, 0.1], [0.2, 0.3, 0.5]])
        with pytest.raises(ValueError, match="row 1: beta must be positive, got 0.0"):
            solve_inner_numeric(P, 1.0, [2.0, 0.0])
        with pytest.raises(ValueError, match="row 1: initial point must be strictly positive"):
            solve_inner_numeric(P, 1.0, 2.0, init=[uniform(3), [1.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match=re.escape("initial point has shape (1, 3), expected (2, 3)")):
            solve_inner_numeric(P, 1.0, 2.0, init=[uniform(3)])

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf])
    def test_non_finite_alpha_is_rejected_before_any_sweep(self, alpha, monkeypatch):
        def no_sweep(*args):
            raise AssertionError("the solver swept with a non-finite alpha")

        monkeypatch.setattr(oracle_mod, "inner_gradient", no_sweep)
        with pytest.raises(ValueError, match=f"^alpha must be finite, got {alpha}$"):
            solve_inner_numeric([0.7, 0.2, 0.1], alpha, 2.0)
        with pytest.raises(ValueError, match=f"^row 1: alpha must be finite, got {alpha}$"):
            solve_inner_numeric([[0.7, 0.2, 0.1], [0.2, 0.3, 0.5]], [1.0, alpha], 2.0)

    def test_infinite_beta_is_rejected_before_any_sweep(self, monkeypatch):
        def no_sweep(*args):
            raise AssertionError("the solver swept with an infinite beta")

        monkeypatch.setattr(oracle_mod, "inner_gradient", no_sweep)
        with pytest.raises(ValueError, match="^beta must be finite, got inf$"):
            solve_inner_numeric([0.7, 0.2, 0.1], 1.0, np.inf)
        with pytest.raises(ValueError, match="^row 1: beta must be finite, got inf$"):
            solve_inner_numeric([[0.7, 0.2, 0.1], [0.2, 0.3, 0.5]], 1.0, [2.0, np.inf])
        with pytest.raises(ValueError, match="^beta must be finite, got inf$"):
            verify_closed_form([0.7, 0.2, 0.1], 1.0, np.inf)

    def test_max_iter_too_small_for_one_row(self, monkeypatch):
        P = np.array([[0.5, 0.5], [0.9, 0.1], [0.5, 0.5]])  # uniform rows start at their optimum
        enough = solve_inner_numeric(P[0], 1.0, 2.0, tol=1e-14).iterations
        assert enough < solve_inner_numeric(P[1], 1.0, 2.0, tol=1e-14).iterations

        def short_solver(*args, **kwargs):
            kwargs["max_iter"] = enough
            return solve_inner_numeric(*args, **kwargs)

        monkeypatch.setattr(oracle_mod, "solve_inner_numeric", short_solver)
        with pytest.raises(RuntimeError, match=f"row 1: inner solver did not converge within {enough} iterations"):
            oracle_mod.verify_closed_form(P, 1.0, 2.0)

    def test_losing_row_is_named(self, monkeypatch):
        """The inverted exponent leaves a uniform p's optimum alone, so only row 1 loses."""
        monkeypatch.setattr("labo.smoothing.labo_optimal_smoothing", lambda p, tau: labo_optimal_smoothing(p, 1.0 / tau))
        with pytest.raises(RuntimeError, match="row 1: closed form lost"):
            verify_closed_form(np.array([[0.5, 0.5], [0.7, 0.3]]), 1.0, 2.0)


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
        P, alphas, betas = np.array([p, interior_simplex(rng, 5)]), np.array([alpha, 0.3]), np.array([beta, 0.9])
        expected = P ** (alphas / betas)[:, None]
        expected /= expected.sum(axis=1, keepdims=True)
        batch = solve_inner_numeric(P, alphas, betas, tol=1e-14)
        assert batch.converged
        np.testing.assert_allclose(batch.argmin, expected, rtol=0, atol=1e-6)
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
        with pytest.raises(ValueError, match="^beta must be finite, got inf$"):
            hessian_check([0.7, 0.2, 0.1], np.inf)  # differencing would return nan


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
