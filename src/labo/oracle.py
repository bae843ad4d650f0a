"""Independent numerical verification of the closed-form inner solution.

The inner problem minimizes, over the probability simplex,

    f(x) = -alpha * sum_j x_j log p_j  +  beta * KL(x || U)

(the one-hot part of the smoothed CE does not depend on x and is dropped).
`solve_inner_numeric` minimizes f by exponentiated gradient (mirror descent
in the KL geometry), which keeps iterates strictly inside the simplex and
never touches the closed form, so it can serve as an oracle for it. It
solves an (n, K) batch in one loop that freezes each row once converged.

With step size c/beta the log-domain iteration contracts toward the
optimum with factor (1 - c) per step, so the c = 0.1 used here converges to
double-precision tolerance in a few hundred iterations for any beta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import smoothing
from .numerics import check_prob_vec, uniform

__all__ = ["SimplexSolverReport", "inner_objective", "inner_gradient", "solve_inner_numeric",
           "verify_closed_form", "numerical_hessian", "hessian_check"]


@dataclass(frozen=True)
class SimplexSolverReport:
    argmin: np.ndarray
    objective_at_argmin: float
    iterations: int
    converged: bool


def inner_objective(x, p, alpha: float, beta: float) -> float:
    """f(x) = -alpha * <x, log p> + beta * KL(x || uniform)."""
    x, p = check_prob_vec(x), check_prob_vec(p)
    mask = x > 0
    kl = float((x[mask] * np.log(x.shape[0] * x[mask])).sum())
    return float(-alpha * (x * np.log(p)).sum() + beta * kl)


def inner_gradient(x, p, alpha, beta) -> np.ndarray:
    """Gradient of `inner_objective` on the open simplex; row-wise for (n, K) x, p and (n, 1) alpha, beta."""
    return -alpha * np.log(p) + beta * (np.log(x.shape[-1] * x) + 1.0)


def _rows(v, where: str, positive: str) -> np.ndarray:
    """A (K,) input (`where` empty) or each row of an (n, K) one, checked as a positive distribution; as (n, K)."""
    rows = list(v) if where else [v]
    for i, row in enumerate(rows):
        try:
            rows[i] = row = check_prob_vec(row)
            if np.any(row == 0):
                raise ValueError(positive)
            if row.shape != rows[0].shape:
                raise ValueError(f"has {row.shape[0]} entries, expected {rows[0].shape[0]}")
        except ValueError as e:
            raise ValueError(f"{where.format(i)}{e}") from None
    return np.array(rows)


def solve_inner_numeric(
    p, alpha, beta, tol: float = 1e-10, max_iter: int = 100_000, init=None
) -> SimplexSolverReport:
    """Minimize the inner objective over the simplex by exponentiated gradient.

    Update: x <- normalize(x * exp(-lr * grad f(x))) with lr = 0.1/beta.
    Converged when successive iterates differ by at most `tol` in L-infinity.
    An (n, K) batch `p` (scalar or (n,) `alpha`, `beta`) gives an (n, K)
    `argmin` and (n,) objectives; each sweep steps only the rows not yet
    converged, so a row takes the iterates of its own n = 1 solve.
    `iterations` counts sweeps and `converged` holds when every row has.
    A beta so small (about 1e-5) that a step leaves the float range raises ValueError.
    """
    try:
        where = "" if np.ndim(p) < 2 else "row {}: "
    except ValueError:  # rows of different lengths
        where = "row {}: "
    P = _rows(p, where, "inner problem requires strictly positive p")
    n, num_classes = P.shape
    A, B = (np.broadcast_to(np.asarray(v, dtype=np.float64), (n,)) for v in (alpha, beta))
    for i in np.flatnonzero(~(B > 0))[:1]:  # the first row with a bad beta
        raise ValueError(f"{where.format(i)}beta must be positive, got {B[i] if where else beta}")
    for name, v, given in (("beta", B, beta), ("alpha", A, alpha)):
        for i in np.flatnonzero(~np.isfinite(v))[:1]:
            raise ValueError(f"{where.format(i)}{name} must be finite, got {v[i] if where else given}")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    X = np.tile(uniform(num_classes), (n, 1))
    if init is not None and (X := _rows(init, where, "initial point must be strictly positive")).shape != P.shape:
        raise ValueError(f"initial point has shape {np.shape(init)}, expected {np.shape(p)}")
    a, b, lr = A[:, None], B[:, None], 0.1 / B[:, None]
    active = np.arange(n)
    iterations = 0
    with np.errstate(all="ignore"):  # a step that leaves the float range is reported below, naming beta and the row
        while active.size and iterations < max_iter:
            iterations += 1
            x = X[active]
            g = inner_gradient(x, P[active], a[active], b[active])
            # log-domain multiplicative step, renormalized via softmax shift
            logx = np.log(x) - lr[active] * g
            logx -= logx.max(axis=1, keepdims=True)
            x_new = np.exp(logx)
            x_new /= x_new.sum(axis=1, keepdims=True)
            X[active] = x_new
            step = np.abs(x_new - x).max(axis=1)
            for i in active[np.isnan(step)][:1]:  # an entry underflowed to 0 the sweep before, or lr * g overflowed
                bad = B[i] if where else beta
                raise ValueError(f"{where.format(i)}beta {bad} is too small: a step 0.1/beta left the float range")
            active = active[~(step <= tol)]

    objective = [inner_objective(*row) for row in zip(X, P, A, B)]
    argmin, objective = (X, np.array(objective)) if where else (X[0], objective[0])
    return SimplexSolverReport(argmin, objective, iterations, converged=not active.size)


def verify_closed_form(p, alpha, beta, tol: float = 1e-9):
    """Compare the closed-form optimal smoothing against the numeric solver.

    Returns the L-infinity distance between the two minimizers, one per row
    of an (n, K) batch. Raises RuntimeError, naming a batch's row, if the
    solver fails to converge or if the closed form's objective is worse than
    the solver's by more than `tol` (the closed form must never lose).
    """
    # run the solver well past its own default tolerance: the residual
    # distance to the fixed point is about 9x the last step size
    report = solve_inner_numeric(p, alpha, beta, tol=1e-14)  # checks p
    where = "" if report.argmin.ndim == 1 else "row {}: "
    X, objective = np.atleast_2d(report.argmin), np.atleast_1d(report.objective_at_argmin).tolist()
    P = np.reshape(np.asarray(p, dtype=np.float64), X.shape)
    A, B = (np.broadcast_to(np.asarray(v, dtype=np.float64), len(X)).tolist() for v in (alpha, beta))
    for i in [i for i, a in enumerate(A) if not a > 0][:1]:
        raise ValueError(f"{where.format(i)}alpha must be positive (tau = beta / alpha), got {A[i]}")
    if not report.converged:  # a row takes the same iterates alone as in the batch
        i = next(i for i, q in enumerate(P) if not where or not solve_inner_numeric(q, A[i], B[i], tol=1e-14).converged)
        raise RuntimeError(f"{where.format(i)}inner solver did not converge within {report.iterations} iterations")
    distances = []
    for i, (q, x, a, b, obj) in enumerate(zip(P, X, A, B, objective)):
        closed = smoothing.labo_optimal_smoothing(q, b / a)
        obj_closed = inner_objective(closed, q, a, b)
        if obj_closed > obj + tol:
            raise RuntimeError(
                f"{where.format(i)}closed form lost to the numeric solver: {obj_closed!r} > {obj!r} + {tol}"
            )
        distances.append(float(np.abs(closed - x).max()))
    return np.array(distances) if where else distances[0]


def numerical_hessian(f, x: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Dense Hessian of f at x by central second differences.

    `steps` gives the per-coordinate step size, which matters here because
    the curvature of x log x blows up as entries approach zero.
    """
    n = x.shape[0]
    E = np.diag(steps)  # row i moves coordinate i by steps[i]
    H = np.empty((n, n))
    f0 = f(x)
    for i in range(n):
        hi, ei = steps[i], E[i]
        H[i, i] = (f(x + ei) - 2.0 * f0 + f(x - ei)) / (hi * hi)
        for j in range(i + 1, n):
            hj, ej = steps[j], E[j]
            H[i, j] = H[j, i] = (f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)) / (4.0 * hi * hj)
    return H


def hessian_check(p_ls, beta: float) -> float:
    """Max absolute deviation of the numeric Hessian from diag(beta / p_ls).

    The inner objective's Hessian with respect to the smoothing distribution
    is diagonal with entries beta / p_ls(j); the linear CE part contributes
    nothing. Differencing uses the full objective (with p = p_ls as the
    model distribution, a representative instance) off the simplex, which is
    valid because the analytic form holds on the ambient orthant.
    """
    p_ls = _rows(p_ls, "", "hessian check requires strictly positive p_ls")[0]
    if not beta > 0:
        raise ValueError(f"beta must be positive, got {beta}")
    if not np.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta}")
    logp = np.log(p_ls)

    def f(x):
        # same integrand as inner_objective but defined off the simplex
        return float(-(x * logp).sum() + beta * (x * np.log(p_ls.size * x)).sum())

    # balance truncation (~h^2 * beta / x^3) against rounding (~eps / h^2)
    steps = 3e-4 * p_ls**0.75 / beta**0.25
    H = numerical_hessian(f, p_ls.copy(), steps)
    return float(np.abs(H - np.diag(beta / p_ls)).max())
