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


def _sweep(rng, n: int, draw, bounds: dict, detail: str) -> str:
    """Hold the max over `n` draws of each error to its bound; return the filled-in `detail`.

    `draw(rng, i)` returns one error, or a tuple with one error per entry of
    `bounds` ({quantity: bound}). A check fails when a max is above its bound
    or is not finite; a NaN from any instance makes its max NaN.
    """
    worst = np.max([np.atleast_1d(draw(rng, i)) for i in range(n)], axis=0)
    for (what, bound), value in zip(bounds.items(), worst):
        if not value <= bound:
            raise AssertionError(f"{what} {value:.3e} > {bound:g}")
    return detail.format(n, *worst)


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


def _rel_err(fd: np.ndarray, analytic: np.ndarray) -> float:
    """Relative L2 error of an analytic gradient against its finite-difference estimate."""
    return np.linalg.norm(fd - analytic) / max(np.linalg.norm(fd), 1e-12)


def _fd_vs_backprop(rng, label, loss=None):
    """Relative L2 error of backprop against FD on a drawn 2-8-3 model, input and class k; and its logits z.

    Backprop pushes the CE gradient of `label(k, z)`; FD differentiates
    `loss(k, z)`, by default the CE against that label.
    """
    m = MlpModel([2, 8, 3], seed=int(rng.integers(1 << 30)))
    x = rng.normal(0.0, 1.0, size=2)
    k = int(rng.integers(3))
    theta0 = m.params_flat()
    loss = loss or (lambda k, z: objectives.smoothed_ce(label(k, z), z))

    def f(theta):
        m.set_params_flat(theta)
        return loss(k, m.forward(x))

    fd = _fd_grad(f, theta0)
    m.set_params_flat(theta0)
    z = m.forward(x)
    return _rel_err(fd, m.backward(objectives.grad_wrt_logits(label(k, z), z))), z


def _closed_form_vs_solver(rng, i):
    num_classes = int(rng.choice([2, 3, 10, 50]))
    p = _interior_simplex(rng, num_classes)
    tau = rng.uniform(1.05, 20.0)
    alpha = rng.uniform(0.3, 1.0)
    return oracle.verify_closed_form(p, alpha, alpha * tau, tol=1e-9)


def _tempering_limits(rng, i):
    num_classes = int(rng.choice([2, 3, 10]))
    p = _interior_simplex(rng, num_classes)
    identity = np.abs(smoothing.labo_optimal_smoothing(p, 1.0) - p).max()
    return identity, np.abs(smoothing.labo_optimal_smoothing(p, 1e6) - uniform(num_classes)).max()


def _temperature_identity(rng, i):
    num_classes = int(rng.choice([2, 3, 10]))
    z = rng.normal(0.0, 3.0, size=num_classes)
    tau = (1.15, 1.25)[i % 2] if i < 4 else rng.uniform(1.0, 10.0)
    via_logits = smoothing.labo_from_logits(z, tau)
    via_probs = smoothing.labo_optimal_smoothing(numerics.softmax(z), tau)
    return np.abs(via_logits - via_probs).max()


def _kd_decomposition(rng, i):
    num_classes = int(rng.choice([2, 3, 10]))
    z = rng.normal(0.0, 3.0, size=num_classes)
    teacher_p = _interior_simplex(rng, num_classes)
    alpha = rng.uniform(0.0, 1.0)
    k = int(rng.integers(num_classes))
    return objectives.kd_decomposition_residual(k, z, teacher_p, alpha)


def _objective_equivalence(rng, i):
    """Direct CE+KL evaluation vs the reduced single-sum expansion."""
    num_classes = int(rng.choice([2, 3, 10]))
    z = rng.normal(0.0, 3.0, size=num_classes)
    k = int(rng.integers(num_classes))
    tau = rng.uniform(1.05, 10.0)
    alpha = rng.uniform(0.05, 1.0)
    beta = alpha * tau
    p_star = smoothing.labo_from_logits(z, tau)
    direct = objectives.unified_objective(k, z, p_star, alpha, beta).total
    label = smoothing.mix_label(k, p_star, alpha).dist
    expansion = float((-label * numerics.log_softmax(z) + beta * p_star * np.log(num_classes * p_star)).sum())
    return abs(direct - expansion)


def _hessian_diagonal(rng, i):
    num_classes = int(rng.choice([2, 3, 10]))
    p_ls = _interior_simplex(rng, num_classes, floor_mix=0.1)
    beta = rng.uniform(0.5, 5.0)
    return oracle.hessian_check(p_ls, beta)


def _model_gradients(rng, i):
    return _fd_vs_backprop(rng, lambda k, z: smoothing.uniform_smooth(k, 3, 0.1))[0]


def _zero_hypergradient(rng, i):
    """Detached-label gradient vs finite differences of the full pipeline.

    The full objective recomputes the optimal smoothing (and the KL term)
    from the perturbed logits; agreement shows the gradient through the
    inner solution contributes nothing.
    """
    alpha, tau = 0.4, 1.25
    beta = alpha * tau

    def label(k, z):
        return smoothing.mix_label(k, smoothing.labo_from_logits(z, tau), alpha)

    def full(k, z):
        return objectives.unified_objective(k, z, smoothing.labo_from_logits(z, tau), alpha, beta).total

    rel, z = _fd_vs_backprop(rng, label, full)
    # unconstrained gradient w.r.t. the smoothing distribution must be
    # a multiple of the all-ones vector, i.e. zero on the simplex tangent
    g_pstar = oracle.inner_gradient(smoothing.labo_from_logits(z, tau), numerics.softmax(z), alpha, beta)
    return rel, float(np.linalg.norm(g_pstar - g_pstar.mean()))


def _cp_gradient(rng, i):
    num_classes = int(rng.choice([2, 3, 10]))
    z = rng.normal(0.0, 3.0, size=num_classes)
    k = int(rng.integers(num_classes))
    beta_cp = rng.uniform(0.0, 1.0)
    fd = _fd_grad(lambda zz: objectives.cp_loss(k, zz, beta_cp), z)
    return _rel_err(fd, objectives.cp_grad_wrt_logits(k, z, beta_cp))


def _solver_init_invariance(rng, i):
    num_classes = int(rng.choice([2, 3, 10]))
    p = _interior_simplex(rng, num_classes)
    tau = rng.uniform(1.05, 10.0)
    alpha = rng.uniform(0.3, 1.0)
    beta = alpha * tau
    from_uniform = oracle.solve_inner_numeric(p, alpha, beta)
    from_random = oracle.solve_inner_numeric(p, alpha, beta, init=_interior_simplex(rng, num_classes))
    if not (from_uniform.converged and from_random.converged):
        raise AssertionError("solver failed to converge")
    return np.abs(from_uniform.argmin - from_random.argmin).max()


def run_verification(quick: bool = False, seed: int = VERIFY_SEED) -> list[CheckResult]:
    """Run every check; `quick` shrinks the sweeps by a factor of 10."""
    n = 100 if quick else 1000
    checks = [  # name, draw, instances, {quantity: bound}, detail format (count, then each max)
        ("closed-form-vs-solver", _closed_form_vs_solver, n,
         {"max closed-form/solver distance": 1e-6}, "{} instances, max distance {:.2e}"),
        ("tempering-limits", _tempering_limits, max(n // 10, 10),
         {"tau=1 distance from p": 1e-12, "tau=1e6 distance from uniform": 1e-5},
         "tau=1 err {1:.1e}, tau=1e6 err {2:.1e}"),
        ("temperature-identity", _temperature_identity, n,
         {"temperature identity gap": 1e-12}, "{} instances, max gap {:.2e}"),
        ("kd-decomposition", _kd_decomposition, n,
         {"kd decomposition residual": 1e-10}, "{} instances, max residual {:.2e}"),
        ("objective-equivalence", _objective_equivalence, n,
         {"objective expansion gap": 1e-10}, "{} instances, max gap {:.2e}"),
        ("hessian-diagonal", _hessian_diagonal, max(n // 10, 10),
         {"hessian deviation": 1e-4}, "{} instances, max deviation {:.2e}"),
        ("model-gradient-gate", _model_gradients, 3 if quick else 10,
         {"model gradient relative error": 1e-5}, "{} models, worst relative L2 error {:.2e}"),
        ("zero-hypergradient", _zero_hypergradient, 10 if quick else 50,
         {"hypergradient relative error": 1e-4, "tangent projection norm": 1e-8},
         "{} points, worst rel err {:.2e}, tangent norm {:.2e}"),
        ("cp-gradient", _cp_gradient, n // 10,
         {"cp gradient relative error": 1e-6}, "{} instances, worst relative error {:.2e}"),
        ("solver-init-invariance", _solver_init_invariance, 5 if quick else 20,
         {"solver init sensitivity": 1e-8}, "{} instances, max init sensitivity {:.2e}"),
    ]
    results = []
    for name, draw, count, bounds, detail in checks:
        rng = np.random.default_rng(seed)
        start = time.perf_counter()
        try:
            detail = _sweep(rng, count, draw, bounds, detail)
            passed = True
        except Exception as exc:  # noqa: BLE001 - any failure is a failed check
            detail = f"{type(exc).__name__}: {exc}"
            passed = False
        results.append(CheckResult(name, passed, detail, time.perf_counter() - start))
    return results
