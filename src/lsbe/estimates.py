"""Cheap backward-error estimates and bounds.

Contains the regularized-norm estimate nu (exact and sketched), the stable
rank-one closed form, the sketched lower-bound pipeline (direction solve,
iterative refinement, recycling), and two upper bounds built from an
approximate eigenvector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (TOL_RANK, KWFactorization, _as_2d, is_sparse,
                   kw_factorization)
from .errors import BothZero, ShiftNotPD, ZeroDeflator
from .exact import mu_exact


@dataclass(frozen=True, eq=False)
class RecycledDirection:
    """A frozen unit direction p with its product Ap, reusable across
    residuals without touching A."""

    p: np.ndarray
    Ap: np.ndarray
    born_at: int = 0
    mu_est_used: float = 0.0

    def __post_init__(self):
        if abs(float(np.linalg.norm(self.p)) - 1.0) > 1e-12:
            raise ValueError("recycled direction must be unit-normalized")


def mu_rank_one(a, r) -> float:
    """Backward error of a pair of vectors: 2 |a'r| / (||a+r|| + ||a-r||).

    This is the cancellation-free form.  It is 0 when both vectors vanish,
    the limit there since mu(a, r) <= min(||a||, ||r||).  Any unit p gives
    the certified lower bound mu_rank_one(Ap, r_theta) <= mu(A, r_theta).
    """
    a = np.asarray(a, dtype=float).ravel()
    r = np.asarray(r, dtype=float).ravel()
    num = 2.0 * abs(float(a @ r))
    den = float(np.linalg.norm(a + r) + np.linalg.norm(a - r))
    return num / den if den > 0.0 else 0.0


def sketched_kw(kwf: KWFactorization, At_r, norm_r: float) -> float:
    """nu = ||(M'M + ||r||^2 I)^{-1/2} A'r|| from the retained SVD of M.

    With M = SA this is the sketched estimate: it needs only At_r = A'r
    plus O(n^2) work and never touches A; with M = A it is kw itself.
    """
    At_r = np.asarray(At_r, dtype=float).ravel()
    z = kwf.right_vectors.T @ At_r
    s = kwf.singular_values
    if norm_r == 0.0:
        if float(np.linalg.norm(At_r)) == 0.0:
            return 0.0
        if np.any(s == 0.0):
            raise ShiftNotPD("regularizer is zero and M is rank-deficient")
    return math.sqrt(float(np.sum(z * z / (s * s + norm_r ** 2))))


def kw(A, r_theta) -> float:
    """The regularized-norm estimate nu = ||(A'A + ||r||^2 I)^{-1/2} A'r||.

    Always within a factor sqrt(2) below the true backward error.
    """
    r = np.asarray(r_theta, dtype=float).ravel()
    At_r = (A if is_sparse(A) else np.asarray(A, dtype=float)).T @ r
    return sketched_kw(kw_factorization(A), At_r,
                       float(np.linalg.norm(r)))


def kw_multi(A, Rtheta) -> float:
    """Multi-right-hand-side estimate: the root sum of squares of nu over
    the right singular vectors of Rtheta."""
    Rtheta = _as_2d(Rtheta, "Rtheta")
    kwf = kw_factorization(A)
    At_R = (A if is_sparse(A) else np.asarray(A, dtype=float)).T @ Rtheta
    _, sR, Wt = np.linalg.svd(Rtheta, full_matrices=False)
    total = 0.0
    for i in range(Rtheta.shape[1]):
        total += sketched_kw(kwf, At_R @ Wt[i], float(sR[i])) ** 2
    return math.sqrt(total)


def lb_direction(kwf: KWFactorization, At_r, norm_r: float,
                 mu_est: float = 0.0) -> np.ndarray:
    """Solve ((SA)'(SA) + (||r||^2 - mu_est^2) I) p = A'r for the
    (unnormalized) lower-bound direction.

    Raises ShiftNotPD when mu_est^2 >= ||r||^2 + sigma_min^2(SA); the
    caller should reset mu_est to 0.
    """
    return kwf.solve(np.asarray(At_r, dtype=float).ravel(),
                     norm_r ** 2 - mu_est ** 2)


def lb_refine(p_tilde, kwf: KWFactorization, A_ops, r_theta,
              norm_r: float, mu_est: float = 0.0) -> np.ndarray:
    """One iterative-refinement step on the lower-bound direction.

    Uses the sketch factorization as the approximate inverse and costs one
    matvec plus one rmatvec against the true operator.
    """
    p_tilde = np.asarray(p_tilde, dtype=float).ravel()
    r = np.asarray(r_theta, dtype=float).ravel()
    shift = norm_r ** 2 - mu_est ** 2
    kwf.check_shift(shift)  # before spending any product
    residual = A_ops.rmatvec(r - A_ops.matvec(p_tilde)) - shift * p_tilde
    return p_tilde + kwf.solve(residual, shift)


def ub_deflation(u, r_theta, At_u) -> float:
    """Upper bound from deflating along u:
    sqrt((||A'u|| / ||u||)^2 + ||(I - u u+) r_theta||^2).

    u is the deflator (Ap - r_theta in the estimator pipeline) and At_u
    its product A'u (one rmatvec).  Raises ZeroDeflator when u vanishes.
    """
    u = np.asarray(u, dtype=float).ravel()
    r = np.asarray(r_theta, dtype=float).ravel()
    At_u = np.asarray(At_u, dtype=float).ravel()
    nu2 = float(u @ u)
    if nu2 == 0.0:
        raise ZeroDeflator("deflation vector is zero")
    term_col = float(At_u @ At_u) / nu2
    term_res = float(r @ r) - float(u @ r) ** 2 / nu2
    return math.sqrt(term_col + max(term_res, 0.0))


def ub_generous(A_cols_2, Ur) -> float:
    """Upper bound mu(U'A, U'r_theta) for an orthonormal basis U of
    [Ap, r_theta]; A_cols_2 holds the compressed rows U'A."""
    return mu_exact(A_cols_2, np.ravel(Ur)).mu


def pair_basis(Ap, r_theta, tol: float = TOL_RANK) -> np.ndarray:
    """Orthonormal basis (m x 1 or m x 2) for span{Ap, r_theta}, dropping
    a column when the pair is numerically rank one."""
    a = np.asarray(Ap, dtype=float).ravel()
    r = np.asarray(r_theta, dtype=float).ravel()
    na = float(np.linalg.norm(a))
    nr = float(np.linalg.norm(r))
    if na == 0.0 and nr == 0.0:
        raise BothZero("both Ap and r_theta are zero")
    if na == 0.0:
        return (r / nr)[:, None]
    q1 = a / na
    w = r - q1 * float(q1 @ r)
    nw = float(np.linalg.norm(w))
    if nw <= tol * max(na, nr):
        return q1[:, None]
    return np.column_stack([q1, w / nw])


__all__ = [
    "RecycledDirection", "mu_rank_one", "kw", "kw_multi", "sketched_kw",
    "lb_direction", "lb_refine", "ub_deflation", "ub_generous", "pair_basis",
]
