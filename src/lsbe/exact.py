"""Ground-truth backward error of an approximate least-squares solution.

Four routes to the same number mu(A, Rtheta): the eigenvalue formula (the
default, valid for any number of right-hand sides), and three
single-right-hand-side cross-checks via a singular value problem, a scalar
secular equation, and a generalized eigenvalue pencil.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import compress_pair, is_sparse, kw_factorization
from .errors import NoConvergence
from .pencil import gram_pencil, tr_minus

# Counts the times roundoff drove mu^2 slightly negative and the result was
# clamped to zero.  Nonnegativity holds analytically, so this is purely a
# floating-point diagnostic.
negative_mu_clamps = 0


def _register_clamp() -> None:
    global negative_mu_clamps
    negative_mu_clamps += 1


@dataclass(frozen=True)
class MuResult:
    """A computed backward error value.

    iterations is meaningful for the secular-equation route only;
    regularization_eps records the diagonal Gram shift actually applied
    (0 when none was needed).
    """

    mu: float
    method: str
    iterations: int = 0
    regularization_eps: float = 0.0


def _clamped_sqrt(mu2: float) -> float:
    if mu2 < 0.0:
        _register_clamp()
        return 0.0
    return math.sqrt(mu2)


def mu_exact(A, Rtheta) -> MuResult:
    """Backward error via the eigenvalue formula, valid for any d.

    Compresses the pair first, then evaluates
    mu^2 = ||Rtheta||_F^2 + tr_minus(TA TA' - TR TR'); roundoff-negative
    mu^2 is clamped to zero.
    """
    cp = compress_pair(A, Rtheta)
    W = cp.TA @ cp.TA.T - cp.TR @ cp.TR.T
    mu2 = cp.normR ** 2 + tr_minus(W)
    return MuResult(mu=_clamped_sqrt(mu2), method="eig")


def _as_vector(r, name: str = "r_theta") -> np.ndarray:
    r = np.asarray(r, dtype=float)
    if r.ndim == 2 and r.shape[1] == 1:
        r = r[:, 0]
    if r.ndim != 1:
        raise ValueError(f"{name} must be a single column")
    return r


def mu_sigma_min(A, r_theta) -> MuResult:
    """Single-right-hand-side backward error via a singular value problem:
    mu = min(||r||, sigma_min([A, ||r|| (I - r r+ )])).

    A QR factorization of [A, r] first reduces the working matrix to size
    (n+1) x (2n+1) whenever m > n + 1.
    """
    r = _as_vector(r_theta)
    norm_r = float(np.linalg.norm(r))
    if norm_r == 0.0:
        return MuResult(mu=0.0, method="sigma_min")
    cp = compress_pair(A, r)
    Ared, rred = cp.TA, cp.TR[:, 0]
    k = Ared.shape[0]
    proj = np.eye(k) - np.outer(rred, rred) / float(rred @ rred)
    work = np.hstack([Ared, norm_r * proj])
    smin = float(np.linalg.svd(work, compute_uv=False)[-1])
    return MuResult(mu=min(norm_r, smin), method="sigma_min")


def mu_fixed_point(A, r_theta, tol: float = 1e-12, kwf=None,
                   max_iters: int = 200) -> MuResult:
    """Single-right-hand-side backward error as the smallest nonnegative
    root of the secular equation

        t = sum_j (s_j b_j)^2 / (s_j^2 + ||r||^2 - t),   t = mu^2,

    where s_j are the singular values of A and b_j the coefficients of r
    against the left singular vectors.  As A'r = V S U'r, s_j b_j = v_j'A'r,
    so U is never formed.  Solved by a Newton iteration
    started at the value of the right-hand side at zero, safeguarded to
    stay inside [0, ||r||^2]; convergence is declared when the step falls
    below tol relative to the current root estimate, so relative accuracy
    is preserved even when mu is many orders below the data scale.

    kwf may carry a precomputed kw_factorization of A (built here when
    absent), which the caller can cache and share read-only across calls
    with different r_theta; each call then costs O(nnz(A) + n^2).

    Raises NoConvergence after max_iters iterations.
    """
    r = _as_vector(r_theta)
    norm_r = float(np.linalg.norm(r))
    if norm_r == 0.0:
        return MuResult(mu=0.0, method="fixed_point")
    if kwf is None:
        kwf = kw_factorization(A)
    s = kwf.singular_values
    At_r = (A if is_sparse(A) else np.asarray(A, dtype=float)).T @ r
    coef = kwf.right_vectors.T @ At_r
    # s_j = 0 also marks the zero rows kw_factorization pads in for wide A.
    keep = (coef != 0.0) & (s != 0.0)
    coef2 = coef[keep] ** 2
    if coef2.size == 0:
        return MuResult(mu=0.0, method="fixed_point")
    poles = s[keep] ** 2 + norm_r ** 2  # all > ||r||^2 >= root

    def rhs(t: float) -> float:
        return float(np.sum(coef2 / (poles - t)))

    def rhs_prime(t: float) -> float:
        return float(np.sum(coef2 / (poles - t) ** 2))

    r2 = norm_r ** 2
    t = rhs(0.0)  # the squared cheap estimate; never exceeds the root
    iterations = 0
    converged = False
    for _ in range(max_iters):
        iterations += 1
        h = rhs(t) - t
        if h <= 0.0:
            # At or just past the root within roundoff.
            converged = True
            break
        hp = rhs_prime(t) - 1.0
        if hp >= 0.0:
            # The residual is positive and nondecreasing: tangency at the
            # root, no further progress possible.
            converged = True
            break
        t_new = t - h / hp
        if t_new > r2:
            t_new = 0.5 * (t + r2)
        step = abs(t_new - t)
        t = t_new
        if step <= tol * t:
            converged = True
            break
    if not converged:
        raise NoConvergence(
            f"secular equation did not converge in {max_iters} iterations")
    return MuResult(mu=_clamped_sqrt(t), method="fixed_point",
                    iterations=iterations)


def mu_gevp(A, r_theta) -> MuResult:
    """Single-right-hand-side backward error via the generalized eigenvalue
    pencil of the bordered matrix [[A'A + ||r||^2 I, A'r], [r'A, 0]] against
    diag(I_n, -1).

    Shifting that pencil by -||r||^2 diag(I_n, -1) reduces it to the Gram
    pencil ([A, r]'[A, r], J), which is positive definite whenever [A, r]
    has full column rank, so the symmetric-eigensolver route applies:
    mu^2 equals the (single) negative eigenvalue plus ||r||^2.  When the
    Cholesky fails, the diagonal Gram shift of pencil.gram_pencil is
    applied once; NotPositiveDefinite propagates if that retry also fails.

    That sum cancels when mu is far below ||r||: on a seeded 300 x 30
    problem with ||r|| = 3.27e3, sigma_min(A) = 4.4e-3 and mu/||r|| =
    1.5e-4, mu^2 comes out negative and is clamped to 0 (with
    regularization_eps 0), while mu_fixed_point and mu_sigma_min agree
    at 0.48631296 to 1.3e-13.  Use those routes when mu/||r|| is small.
    """
    r = _as_vector(r_theta)
    norm_r = float(np.linalg.norm(r))
    if norm_r == 0.0:
        return MuResult(mu=0.0, method="gevp")
    cp = compress_pair(A, r)
    pe, eps = gram_pencil(cp.TA, cp.TR)
    lam_neg = float(pe.lambdas[-1])
    # The shifted problem is the exact backward error of the pair augmented
    # by sqrt(eps)-scaled identity blocks, whose residual norm picks up eps.
    mu2 = lam_neg + norm_r ** 2 + eps
    return MuResult(mu=_clamped_sqrt(mu2), method="gevp",
                    regularization_eps=eps)


def mu_all_methods(A, r_theta) -> dict[str, MuResult]:
    """All four exact routes on a single-right-hand-side pair."""
    r = _as_vector(r_theta)
    return {
        "eig": mu_exact(A, r),
        "sigma_min": mu_sigma_min(A, r),
        "fixed_point": mu_fixed_point(A, r),
        "gevp": mu_gevp(A, r),
    }


__all__ = [
    "MuResult", "mu_exact", "mu_sigma_min", "mu_fixed_point", "mu_gevp",
    "mu_all_methods", "negative_mu_clamps",
]
