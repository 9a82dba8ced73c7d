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
from .exact import mu_sigma_min


@dataclass(frozen=True, eq=False)
class RecycledDirection:
    """A frozen unit direction p with its product Ap, reusable across
    residuals without touching A."""

    p: np.ndarray
    Ap: np.ndarray
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
    num = 2.0 * np.abs(np.vecdot(a, r))
    # a + r, then a - r, in one buffer: for a stack of residuals a second
    # temporary of its size costs about as much again as the arithmetic.
    pm = a + r
    den = np.sqrt(np.vecdot(pm, pm))
    np.subtract(a, r, out=pm)
    den = den + np.sqrt(np.vecdot(pm, pm))
    mu = np.divide(num, den, out=np.zeros_like(den), where=den > 0.0)
    return float(mu) if mu.ndim == 0 else mu


def _shifts(norm_r, mu_est=0.0) -> np.ndarray:
    """||r||^2 - mu_est^2 over the broadcast of norm_r and mu_est.

    Squared with Python's float power, which a single row has always
    used: on some libms it is not the correctly rounded x * x that
    numpy's ** 2 gives."""
    pairs = np.broadcast(norm_r, mu_est)
    return np.reshape([float(nr) ** 2 - float(me) ** 2 for nr, me in pairs],
                      pairs.shape)


def sketched_kw(kwf: KWFactorization, At_r, norm_r,
                z=None) -> float | np.ndarray:
    """nu = ||(M'M + ||r||^2 I)^{-1/2} A'r|| from the retained SVD of M.

    With M = SA this is the sketched estimate: it needs only At_r = A'r
    plus O(n^2) work and never touches A; with M = A it is kw itself.
    z, when given, is kwf.coordinates(At_r), already formed (the
    estimator suite shares it with lb_direction).  At_r may be a stack
    (k, n) with norm_r per row: the result is then an array (k,), each
    value bitwise what its row gets from the same z alone.
    """
    At_r = np.asarray(At_r, dtype=float)
    if z is None:
        z = kwf.coordinates(At_r)
    s = kwf.singular_values
    den = s * s + _shifts(norm_r)[..., None]
    # A zero residual with A'r = 0 gives 0 whatever M; with A'r != 0 it
    # needs M of full rank.  Rows with a residual have den > 0.
    zero_r = np.asarray(norm_r) == 0.0
    if zero_r.any():
        idle = zero_r & ~At_r.any(axis=-1)
        if np.any(s == 0.0) and np.any(zero_r & ~idle):
            raise ShiftNotPD("regularizer is zero and M is rank-deficient")
        den = np.where(idle[..., None], 1.0, den)
    nu = np.sqrt((z * z / den).sum(axis=-1))
    return float(nu) if nu.ndim == 0 else nu


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


def lb_direction(kwf: KWFactorization, At_r, norm_r,
                 mu_est=0.0, z=None) -> np.ndarray:
    """Solve ((SA)'(SA) + (||r||^2 - mu_est^2) I) p = A'r for the
    (unnormalized) lower-bound direction.

    At_r may be a stack (k, n) with norm_r and mu_est per row: one
    batched kwf.solve, whose rows may move in their last bits against
    single calls (see there).  Raises ShiftNotPD when mu_est^2 >= ||r||^2
    + sigma_min^2(SA) on any row; the caller should reset that row's
    mu_est to 0 (kwf.definite tells the rows apart).  z, when given, is
    kwf.coordinates(At_r), already formed.
    """
    return kwf.solve(np.asarray(At_r, dtype=float), _shifts(norm_r, mu_est),
                     z=z)


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
    shift = _shifts(norm_r, mu_est)
    kwf.check_shift(shift)
    P, R = np.atleast_2d(p, r)
    residual = np.stack(
        [A_ops.rmatvec(ri - A_ops.matvec(pi)) - si * pi
         for pi, ri, si in zip(P, R, np.broadcast_to(shift, len(P)))])
    return p + kwf.solve(residual.reshape(p.shape), shift)


def ub_deflation(u, r_theta, At_u) -> float | np.ndarray:
    """Upper bound from deflating along u:
    sqrt((||A'u|| / ||u||)^2 + ||(I - u u+) r_theta||^2).

    u is the deflator (Ap - r_theta in the estimator pipeline) and At_u
    its product A'u (one rmatvec).  Raises ZeroDeflator when u vanishes.
    Stacks (k, m) of deflators and residuals with (k, n) products give
    an array (k,), each value bitwise what its row alone gets (the rows
    are made contiguous, as in mu_rank_one); ZeroDeflator then means
    some u vanishes.
    """
    u = np.ascontiguousarray(u, dtype=float)
    r = np.ascontiguousarray(r_theta, dtype=float)
    At_u = np.ascontiguousarray(At_u, dtype=float)
    nu2 = np.vecdot(u, u)
    if np.any(nu2 == 0.0):
        raise ZeroDeflator("deflation vector is zero")
    term_col = np.vecdot(At_u, At_u) / nu2
    term_res = np.vecdot(r, r) - np.vecdot(u, r) ** 2 / nu2
    ub = np.sqrt(term_col + np.maximum(term_res, 0.0))
    return float(ub) if ub.ndim == 0 else ub


def ub_generous(A_cols_2, Ur) -> float:
    """Upper bound mu(U'A, U'r_theta) for an orthonormal basis U of
    [Ap, r_theta]; A_cols_2 holds the compressed rows U'A.

    Evaluated as mu_sigma_min on the k <= 2 rows, which keeps its relative
    accuracy as mu / ||r_theta|| falls, where the eigenvalue formula
    cancels (down to 0 near convergence)."""
    return mu_sigma_min(A_cols_2, np.ravel(Ur)).mu


def pair_basis(Ap, r_theta):
    """Orthonormal basis of span{Ap, r_theta}, as (U, rank): U (m, 2),
    of which the first rank columns are the basis.  rank is 1 when the
    pair is rank one to within TOL_RANK; the one column is then Ap's
    direction, or r_theta's when Ap = 0, and the second column is zero.

    Stacks (k, m) of pairs give U (k, m, 2) and rank (k,), each basis
    bitwise what its pair alone gets.  Raises BothZero when Ap and
    r_theta both vanish (in some pair).
    """
    a = np.ascontiguousarray(Ap, dtype=float)
    r = np.ascontiguousarray(r_theta, dtype=float)
    na = np.sqrt(np.vecdot(a, a))[..., None]
    nr = np.sqrt(np.vecdot(r, r))[..., None]
    if np.any((na == 0.0) & (nr == 0.0)):
        raise BothZero("both Ap and r_theta are zero")
    has_a = na > 0.0
    q1 = (a / na if np.all(has_a)
          else np.where(has_a, a, r) / np.where(has_a, na, nr))
    w = q1 * np.vecdot(q1, r)[..., None]
    np.subtract(r, w, out=w)
    nw = np.sqrt(np.vecdot(w, w))[..., None]
    two = has_a & (nw > TOL_RANK * np.maximum(na, nr))
    w /= np.where(two, nw, np.inf)  # 0 where the pair is rank one
    rank = 1 + two[..., 0]
    return np.stack([q1, w], axis=-1), (int(rank) if rank.ndim == 0
                                        else rank)


__all__ = [
    "RecycledDirection", "mu_rank_one", "kw", "kw_multi", "sketched_kw",
    "lb_direction", "lb_refine", "ub_deflation", "ub_generous", "pair_basis",
]
