"""Self-contained verification suite behind the `labo verify` command.

Each check exercises one analytic claim the library relies on (closed-form
optimality, the temperature identity, the distillation decomposition, the
Hessian structure, gradient correctness including the detached-label
training gradient) against an independent numeric route: the exponentiated
gradient solver, high-order finite differences, or direct double
evaluation. All randomness is seeded, so a pass/fail outcome is stable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import numerics, objectives, oracle, smoothing
from .model import MlpModel
from .numerics import uniform

__all__ = ["CheckResult", "run_verification", "VERIFY_SEED"]

VERIFY_SEED = 20240809


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _interior_simplex(rng, num_classes: int, floor_mix: float = 0.05) -> np.ndarray:
    """Dirichlet(1) draw mixed toward uniform to stay off the boundary."""
    p = rng.dirichlet(np.ones(num_classes))
    return (1.0 - floor_mix) * p + floor_mix / num_classes


def _fd_grad(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def _check_closed_form_vs_solver(rng, n_instances: int) -> str:
    max_dist = 0.0
    for _ in range(n_instances):
        num_classes = int(rng.choice([2, 3, 10, 50]))
        p = _interior_simplex(rng, num_classes)
        tau = rng.uniform(1.05, 20.0)
        alpha = rng.uniform(0.3, 1.0)
        dist = oracle.verify_closed_form(p, alpha, alpha * tau, tol=1e-9)
        max_dist = max(max_dist, dist)
    if max_dist > 1e-6:
        raise AssertionError(f"max closed-form/solver distance {max_dist:.3e} > 1e-6")
    return f"{n_instances} instances, max distance {max_dist:.2e}"


def _check_tempering_limits(rng, n_instances: int) -> str:
    worst_identity = 0.0
    worst_uniform = 0.0
    for _ in range(n_instances):
        num_classes = int(rng.choice([2, 3, 10]))
        p = _interior_simplex(rng, num_classes)
        worst_identity = max(
            worst_identity, np.abs(smoothing.labo_optimal_smoothing(p, 1.0) - p).max()
        )
        flat = smoothing.labo_optimal_smoothing(p, 1e6)
        worst_uniform = max(worst_uniform, np.abs(flat - uniform(num_classes)).max())
    if worst_identity > 1e-12:
        raise AssertionError(f"tau=1 should return p exactly, off by {worst_identity:.3e}")
    if worst_uniform > 1e-5:
        raise AssertionError(f"tau=1e6 should be uniform within 1e-5, off by {worst_uniform:.3e}")
    return f"tau=1 err {worst_identity:.1e}, tau=1e6 err {worst_uniform:.1e}"


def _check_temperature_identity(rng, n_instances: int) -> str:
    taus = [1.15, 1.25]
    worst = 0.0
    for i in range(n_instances):
        num_classes = int(rng.choice([2, 3, 10]))
        z = rng.normal(0.0, 3.0, size=num_classes)
        tau = taus[i % 2] if i < 2 * len(taus) else rng.uniform(1.0, 10.0)
        via_logits = smoothing.labo_from_logits(z, tau)
        via_probs = smoothing.labo_optimal_smoothing(numerics.softmax(z), tau)
        worst = max(worst, np.abs(via_logits - via_probs).max())
    if worst > 1e-12:
        raise AssertionError(f"temperature identity off by {worst:.3e} > 1e-12")
    return f"{n_instances} instances, max gap {worst:.2e}"


def _check_kd_decomposition(rng, n_instances: int) -> str:
    worst = 0.0
    for _ in range(n_instances):
        num_classes = int(rng.choice([2, 3, 10]))
        z = rng.normal(0.0, 3.0, size=num_classes)
        teacher_p = _interior_simplex(rng, num_classes)
        alpha = rng.uniform(0.0, 1.0)
        k = int(rng.integers(num_classes))
        worst = max(worst, objectives.kd_decomposition_residual(k, z, teacher_p, alpha))
    if worst > 1e-10:
        raise AssertionError(f"kd decomposition residual {worst:.3e} > 1e-10")
    return f"{n_instances} instances, max residual {worst:.2e}"


def _check_objective_equivalence(rng, n_instances: int) -> str:
    """Direct CE+KL evaluation vs the reduced single-sum expansion."""
    worst = 0.0
    for _ in range(n_instances):
        num_classes = int(rng.choice([2, 3, 10]))
        z = rng.normal(0.0, 3.0, size=num_classes)
        k = int(rng.integers(num_classes))
        tau = rng.uniform(1.05, 10.0)
        alpha = rng.uniform(0.05, 1.0)
        beta = alpha * tau
        p_star = smoothing.labo_from_logits(z, tau)
        direct = objectives.unified_objective(k, z, p_star, alpha, beta).total
        logp = numerics.log_softmax(z)
        label = smoothing.mix_label(k, p_star, alpha).dist
        expansion = float(
            (-label * logp + beta * p_star * np.log(num_classes * p_star)).sum()
        )
        worst = max(worst, abs(direct - expansion))
    if worst > 1e-10:
        raise AssertionError(f"objective expansion gap {worst:.3e} > 1e-10")
    return f"{n_instances} instances, max gap {worst:.2e}"


def _check_hessian_diagonal(rng, n_instances: int) -> str:
    worst = 0.0
    for _ in range(n_instances):
        num_classes = int(rng.choice([2, 3, 10]))
        p_ls = _interior_simplex(rng, num_classes, floor_mix=0.1)
        beta = rng.uniform(0.5, 5.0)
        worst = max(worst, oracle.hessian_check(p_ls, beta))
    if worst > 1e-4:
        raise AssertionError(f"hessian deviation {worst:.3e} > 1e-4")
    return f"{n_instances} instances, max deviation {worst:.2e}"


def _check_model_gradients(rng, n_models: int) -> str:
    worst = 0.0
    for i in range(n_models):
        m = MlpModel([2, 8, 3], seed=int(rng.integers(1 << 30)))
        x = rng.normal(0.0, 1.0, size=2)
        k = int(rng.integers(3))
        label = smoothing.uniform_smooth(k, 3, 0.1)

        theta0 = m.params_flat()

        def f(theta):
            m.set_params_flat(theta)
            return objectives.smoothed_ce(label, m.forward(x))

        fd = _fd_grad(f, theta0)
        m.set_params_flat(theta0)
        z = m.forward(x)
        analytic = m.backward(objectives.grad_wrt_logits(label, z))
        rel = np.linalg.norm(fd - analytic) / max(np.linalg.norm(fd), 1e-12)
        worst = max(worst, rel)
    if worst > 1e-5:
        raise AssertionError(f"model gradient relative error {worst:.3e} > 1e-5")
    return f"{n_models} models, worst relative L2 error {worst:.2e}"


def _check_zero_hypergradient(rng, n_points: int) -> str:
    """Detached-label gradient vs finite differences of the full pipeline.

    The full objective recomputes the optimal smoothing (and the KL term)
    from the perturbed logits; agreement shows the gradient through the
    inner solution contributes nothing.
    """
    alpha, tau = 0.4, 1.25
    beta = alpha * tau
    worst_rel = 0.0
    worst_tangent = 0.0
    for i in range(n_points):
        m = MlpModel([2, 8, 3], seed=int(rng.integers(1 << 30)))
        x = rng.normal(0.0, 1.0, size=2)
        k = int(rng.integers(3))
        theta0 = m.params_flat()

        def full(theta):
            m.set_params_flat(theta)
            z = m.forward(x)
            p_star = smoothing.labo_from_logits(z, tau)
            return objectives.unified_objective(k, z, p_star, alpha, beta).total

        fd = _fd_grad(full, theta0)
        m.set_params_flat(theta0)
        z = m.forward(x)
        p_star = smoothing.labo_from_logits(z, tau)
        label = smoothing.mix_label(k, p_star, alpha)
        analytic = m.backward(objectives.grad_wrt_logits(label, z))
        rel = np.linalg.norm(fd - analytic) / max(np.linalg.norm(fd), 1e-12)
        worst_rel = max(worst_rel, rel)

        # unconstrained gradient w.r.t. the smoothing distribution must be
        # a multiple of the all-ones vector, i.e. zero on the simplex tangent
        g_pstar = oracle.inner_gradient(p_star, numerics.softmax(z), alpha, beta)
        tangent = g_pstar - g_pstar.mean()
        worst_tangent = max(worst_tangent, float(np.linalg.norm(tangent)))
    if worst_rel > 1e-4:
        raise AssertionError(f"hypergradient check relative error {worst_rel:.3e} > 1e-4")
    if worst_tangent > 1e-8:
        raise AssertionError(f"tangent projection norm {worst_tangent:.3e} > 1e-8")
    return f"{n_points} points, worst rel err {worst_rel:.2e}, tangent norm {worst_tangent:.2e}"


def _check_cp_gradient(rng, n_instances: int) -> str:
    worst = 0.0
    for _ in range(n_instances):
        num_classes = int(rng.choice([2, 3, 10]))
        z = rng.normal(0.0, 3.0, size=num_classes)
        k = int(rng.integers(num_classes))
        beta_cp = rng.uniform(0.0, 1.0)
        fd = _fd_grad(lambda zz: objectives.cp_loss(k, zz, beta_cp), z)
        analytic = objectives.cp_grad_wrt_logits(k, z, beta_cp)
        rel = np.linalg.norm(fd - analytic) / max(np.linalg.norm(fd), 1e-12)
        worst = max(worst, rel)
    if worst > 1e-6:
        raise AssertionError(f"cp gradient relative error {worst:.3e} > 1e-6")
    return f"{n_instances} instances, worst relative error {worst:.2e}"


def _check_solver_init_invariance(rng, n_instances: int) -> str:
    worst = 0.0
    for _ in range(n_instances):
        num_classes = int(rng.choice([2, 3, 10]))
        p = _interior_simplex(rng, num_classes)
        tau = rng.uniform(1.05, 10.0)
        alpha = rng.uniform(0.3, 1.0)
        beta = alpha * tau
        from_uniform = oracle.solve_inner_numeric(p, alpha, beta)
        start = _interior_simplex(rng, num_classes)
        from_random = oracle.solve_inner_numeric(p, alpha, beta, init=start)
        if not (from_uniform.converged and from_random.converged):
            raise AssertionError("solver failed to converge")
        worst = max(worst, np.abs(from_uniform.argmin - from_random.argmin).max())
    if worst > 1e-8:
        raise AssertionError(f"solver init sensitivity {worst:.3e} > 1e-8")
    return f"{n_instances} instances, max init sensitivity {worst:.2e}"


def run_verification(quick: bool = False, seed: int = VERIFY_SEED) -> list[CheckResult]:
    """Run every check; `quick` shrinks the sweeps by a factor of 10."""
    n = 100 if quick else 1000
    checks = [
        ("closed-form-vs-solver", _check_closed_form_vs_solver, n),
        ("tempering-limits", _check_tempering_limits, max(n // 10, 10)),
        ("temperature-identity", _check_temperature_identity, n),
        ("kd-decomposition", _check_kd_decomposition, n),
        ("objective-equivalence", _check_objective_equivalence, n),
        ("hessian-diagonal", _check_hessian_diagonal, max(n // 10, 10)),
        ("model-gradient-gate", _check_model_gradients, 3 if quick else 10),
        ("zero-hypergradient", _check_zero_hypergradient, 10 if quick else 50),
        ("cp-gradient", _check_cp_gradient, n // 10),
        ("solver-init-invariance", _check_solver_init_invariance, 5 if quick else 20),
    ]
    results = []
    for name, fn, count in checks:
        rng = np.random.default_rng(seed)
        start = time.perf_counter()
        try:
            detail = fn(rng, count)
            passed = True
        except Exception as exc:  # noqa: BLE001 - any failure is a failed check
            detail = f"{type(exc).__name__}: {exc}"
            passed = False
        results.append(CheckResult(name, passed, detail, time.perf_counter() - start))
    return results
