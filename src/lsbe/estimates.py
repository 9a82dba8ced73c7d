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


def mu_rank_one(a, r):
    """Backward error of a pair of vectors: 2 |a'r| / (||a+r|| + ||a-r||).

    This is the cancellation-free form.  It is 0 when both vectors vanish,
    the limit there since mu(a, r) <= min(||a||, ||r||).  Any unit p gives
    the certified lower bound mu_rank_one(Ap, r_theta) <= mu(A, r_theta).

    Vectors run along the last axis and leading axes broadcast: one pair
    gives a float, stacks (..., m) give an array (...).  The vectors are
    made contiguous first, so every value is bitwise what that pair alone
    gets (BLAS dot rounds strided vectors differently).
    """
    a = np.ascontiguousarray(a, dtype=float)
    r = np.ascontiguousarray(r, dtype=float)
    plus, minus = a + r, a - r
    num = 2.0 * np.abs(np.vecdot(a, r))
    den = np.sqrt(np.vecdot(plus, plus)) + np.sqrt(np.vecdot(minus, minus))
    mu = np.divide(num, den, out=np.zeros_like(den), where=den > 0.0)
    return float(mu) if mu.ndim == 0 else mu


def sketched_kw(kwf: KWFactorization, At_r, norm_r: float,
                z=None) -> float:
    """nu = ||(M'M + ||r||^2 I)^{-1/2} A'r|| from the retained SVD of M.

    With M = SA this is the sketched estimate: it needs only At_r = A'r
    plus O(n^2) work and never touches A; with M = A it is kw itself.
    z, when given, is kwf.coordinates(At_r), already formed (the
    estimator suite shares it with lb_direction).
    """
    At_r = np.asarray(At_r, dtype=float).ravel()
    if z is None:
        z = kwf.coordinates(At_r)
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
                 mu_est: float = 0.0, z=None) -> np.ndarray:
    """Solve ((SA)'(SA) + (||r||^2 - mu_est^2) I) p = A'r for the
    (unnormalized) lower-bound direction.

    Raises ShiftNotPD when mu_est^2 >= ||r||^2 + sigma_min^2(SA); the
    caller should reset mu_est to 0.  z, when given, is
    kwf.coordinates(At_r), already formed.
    """
    return kwf.solve(np.asarray(At_r, dtype=float).ravel(),
                     norm_r ** 2 - mu_est ** 2, z=z)


def lb_refine(p_tilde, kwf: KWFactorization, A_ops, r_theta,
              norm_r, mu_est=0.0) -> np.ndarray:
    """One iterative-refinement step on the lower-bound direction.

    Uses the sketch factorization as the approximate inverse and costs one
    matvec plus one rmatvec against the true operator per direction.
    p_tilde (k, n) and r_theta (k, m) may be stacks with norm_r and
    mu_est per row: the products stay one per row, and the solve is one
    batched kwf.solve over the stack (a row may then move in its last
    bits; see there).  Every shift is checked before any product is spent.
    """
    p = np.asarray(p_tilde, dtype=float)
    r = np.asarray(r_theta, dtype=float)
    # Python's float power, which a single call has always used: on some
    # libms it is not the correctly rounded x * x that numpy's ** 2 gives.
    pairs = np.broadcast(norm_r, mu_est)
    shift = np.reshape([float(nr) ** 2 - float(me) ** 2 for nr, me in pairs],
                       pairs.shape)
    kwf.check_shift(shift)
    P, R = np.atleast_2d(p, r)
    residual = np.stack(
        [A_ops.rmatvec(ri - A_ops.matvec(pi)) - si * pi
         for pi, ri, si in zip(P, R, np.broadcast_to(shift, len(P)))])
    return p + kwf.solve(residual.reshape(p.shape), shift)


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


def pair_basis(Ap, r_theta) -> np.ndarray:
    """Orthonormal basis (m x 1 or m x 2) for span{Ap, r_theta}, dropping
    a column when the pair is rank one to within TOL_RANK."""
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
    if nw <= TOL_RANK * max(na, nr):
        return q1[:, None]
    return np.column_stack([q1, w / nw])


__all__ = [
    "RecycledDirection", "mu_rank_one", "kw", "kw_multi", "sketched_kw",
    "lb_direction", "lb_refine", "ub_deflation", "ub_generous", "pair_basis",
]
