"""Independent numerical verification of the closed-form inner solution.

The inner problem minimizes, over the probability simplex,

    f(x) = -alpha * sum_j x_j log p_j  +  beta * KL(x || U)

(the one-hot part of the smoothed CE does not depend on x and is dropped).
`solve_inner_numeric` minimizes f by exponentiated gradient (mirror descent
in the KL geometry), which keeps iterates strictly inside the simplex and
never touches the closed form, so it can serve as an oracle for it.

With step size c/beta the log-domain iteration contracts toward the
optimum with factor (1 - c) per step, so the c = 0.1 used here converges to
double-precision tolerance in a few hundred iterations for any beta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import smoothing
from .numerics import check_prob_vec, uniform

__all__ = [
    "SimplexSolverReport",
    "inner_objective",
    "inner_gradient",
    "solve_inner_numeric",
    "verify_closed_form",
    "numerical_hessian",
    "hessian_check",
]


@dataclass(frozen=True)
class SimplexSolverReport:
    argmin: np.ndarray
    objective_at_argmin: float
    iterations: int
    converged: bool


def inner_objective(x, p, alpha: float, beta: float) -> float:
    """f(x) = -alpha * <x, log p> + beta * KL(x || uniform)."""
    x = check_prob_vec(x)
    p = check_prob_vec(p)
    num_classes = x.shape[0]
    mask = x > 0
    kl = float((x[mask] * np.log(num_classes * x[mask])).sum())
    return float(-alpha * (x * np.log(p)).sum() + beta * kl)


def inner_gradient(x, p, alpha: float, beta: float) -> np.ndarray:
    """Gradient of `inner_objective` on the open simplex."""
    num_classes = x.shape[0]
    return -alpha * np.log(p) + beta * (np.log(num_classes * x) + 1.0)


def solve_inner_numeric(
    p,
    alpha: float,
    beta: float,
    tol: float = 1e-10,
    max_iter: int = 100_000,
    init=None,
) -> SimplexSolverReport:
    """Minimize the inner objective over the simplex by exponentiated gradient.

    Update: x <- normalize(x * exp(-lr * grad f(x))) with lr = 0.1/beta.
    Converged when successive iterates differ by at most `tol` in L-infinity.
    """
    p = check_prob_vec(p)
    if np.any(p == 0):
        raise ValueError("inner problem requires strictly positive p")
    if not beta > 0:
        raise ValueError(f"beta must be positive, got {beta}")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")

    x = uniform(p.shape[0]) if init is None else check_prob_vec(init).copy()
    if np.any(x == 0):
        raise ValueError("initial point must be strictly positive")
    lr = 0.1 / beta

    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        g = inner_gradient(x, p, alpha, beta)
        # log-domain multiplicative step, renormalized via softmax shift
        logx = np.log(x) - lr * g
        logx -= logx.max()
        x_new = np.exp(logx)
        x_new /= x_new.sum()
        delta = np.abs(x_new - x).max()
        x = x_new
        if delta <= tol:
            converged = True
            break

    return SimplexSolverReport(
        argmin=x,
        objective_at_argmin=inner_objective(x, p, alpha, beta),
        iterations=iterations,
        converged=converged,
    )


def verify_closed_form(p, alpha: float, beta: float, tol: float = 1e-9) -> float:
    """Compare the closed-form optimal smoothing against the numeric solver.

    Returns the L-infinity distance between the two minimizers. Raises
    RuntimeError if the solver fails to converge or if the closed form's
    objective value is worse than the solver's by more than `tol` (the
    closed form must never lose to the oracle).
    """
    closed = smoothing.labo_optimal_smoothing(p, beta / alpha)  # checks p
    # run the solver well past its own default tolerance: the residual
    # distance to the fixed point is about 9x the last step size
    report = solve_inner_numeric(p, alpha, beta, tol=1e-14)
    if not report.converged:
        raise RuntimeError(f"inner solver did not converge within {report.iterations} iterations")
    obj_closed = inner_objective(closed, p, alpha, beta)
    if obj_closed > report.objective_at_argmin + tol:
        raise RuntimeError(
            "closed form lost to the numeric solver: "
            f"{obj_closed!r} > {report.objective_at_argmin!r} + {tol}"
        )
    return float(np.abs(closed - report.argmin).max())


def numerical_hessian(f, x: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Dense Hessian of f at x by central second differences.

    `steps` gives the per-coordinate step size, which matters here because
    the curvature of x log x blows up as entries approach zero.
    """
    n = x.shape[0]
    H = np.empty((n, n))
    f0 = f(x)
    for i in range(n):
        hi = steps[i]
        ei = np.zeros(n)
        ei[i] = hi
        H[i, i] = (f(x + ei) - 2.0 * f0 + f(x - ei)) / (hi * hi)
        for j in range(i + 1, n):
            hj = steps[j]
            ej = np.zeros(n)
            ej[j] = hj
            val = (f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)) / (
                4.0 * hi * hj
            )
            H[i, j] = H[j, i] = val
    return H


def hessian_check(p_ls, beta: float) -> float:
    """Max absolute deviation of the numeric Hessian from diag(beta / p_ls).

    The inner objective's Hessian with respect to the smoothing distribution
    is diagonal with entries beta / p_ls(j); the linear CE part contributes
    nothing. Differencing uses the full objective (with p = p_ls as the
    model distribution, a representative instance) off the simplex, which is
    valid because the analytic form holds on the ambient orthant.
    """
    p_ls = check_prob_vec(p_ls)
    if np.any(p_ls == 0):
        raise ValueError("hessian check requires strictly positive p_ls")
    if not beta > 0:
        raise ValueError(f"beta must be positive, got {beta}")
    num_classes = p_ls.shape[0]
    logp = np.log(p_ls)

    def f(x):
        # same integrand as inner_objective but defined off the simplex
        return float(-(x * logp).sum() + beta * (x * np.log(num_classes * x)).sum())

    # balance truncation (~h^2 * beta / x^3) against rounding (~eps / h^2)
    steps = 3e-4 * p_ls**0.75 / beta**0.25
    H = numerical_hessian(f, p_ls.copy(), steps)
    analytic = np.diag(beta / p_ls)
    return float(np.abs(H - analytic).max())
