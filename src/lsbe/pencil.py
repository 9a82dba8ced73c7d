"""Indefinite linear algebra kernels.

Provides the generalized eigensolver for a symmetric positive definite
matrix M against the signature matrix J = diag(I_n, -I_d), the Gram pencil
of a pair [left, right] with its diagonal-shift policy, the sum of
negative eigenvalues of a symmetric matrix, and the hyperbolic CS
decomposition of matrices X with X'JX = -I_d.  All functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, NotFeasible, NotPositiveDefinite

# Eigenvalues within tol_eig * max(1, ||M||_2) of zero are treated as
# sign-ambiguous; classification then falls back on the signature counts.
TOL_EIG = 1e-14


@dataclass(frozen=True)
class JSignature:
    """Signature (n_plus, n_minus) of J = diag(I_{n_plus}, -I_{n_minus})."""

    n_plus: int
    n_minus: int

    def __post_init__(self):
        if self.n_plus < 0 or self.n_minus < 0 or self.size < 1:
            raise ValueError("signature counts must be nonnegative, size >= 1")

    @property
    def size(self) -> int:
        return self.n_plus + self.n_minus

    def diagonal(self) -> np.ndarray:
        return np.concatenate(
            [np.ones(self.n_plus), -np.ones(self.n_minus)])


@dataclass(frozen=True, eq=False)
class PencilEigen:
    """J-orthonormal eigendecomposition of a pencil (M, J).

    Columns of V satisfy M v_i = lambda_i J v_i with v_i' J v_i = +-1, and
    lambdas is sorted descending: the n_plus positive eigenvalues first,
    then the n_minus negative ones.
    """

    V: np.ndarray
    lambdas: np.ndarray
    sig: JSignature

    def negative_block(self) -> np.ndarray:
        """Eigenvector columns for the negative eigenvalues (X'JX = -I)."""
        return self.V[:, self.sig.n_plus:]


@dataclass(frozen=True, eq=False)
class HyperbolicCS:
    """Factors of X = blkdiag(P, Q) [S; C] Z' with C^2 - S^2 = I.

    P has orthonormal columns (n x d), Q and Z are d x d orthogonal, and
    s, c hold the diagonals of S and C with c_i = sqrt(1 + s_i^2) >= 1.
    """

    P: np.ndarray
    Q: np.ndarray
    Z: np.ndarray
    s: np.ndarray
    c: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return np.vstack([self.P * self.s, self.Q * self.c]) @ self.Z.T


def _check_symmetric(M: np.ndarray, name: str) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"{name} must be square")
    scale = np.linalg.norm(M)
    if np.linalg.norm(M - M.T) > 1e-12 * max(scale, 1e-300):
        raise ValueError(f"{name} is not symmetric within tolerance")
    return 0.5 * (M + M.T)


def j_pencil_eig(M, sig: JSignature) -> PencilEigen:
    """Solve M V = J V Lambda for symmetric positive definite M.

    Works through the symmetric matrix K = G^{-T} J G^{-1} built from the
    Cholesky factor M = G'G; the eigenvalues of K are the reciprocals of
    the pencil eigenvalues, so this route stays inside backward-stable
    symmetric eigensolvers.  Columns of V are scaled so |v'Jv| = 1.

    Raises NotPositiveDefinite when the Cholesky factorization fails; the
    caller is expected to regularize and retry.
    """
    M = _check_symmetric(M, "M")
    k = M.shape[0]
    if sig.size != k:
        raise DimensionMismatch("signature size must match M")
    try:
        G = scipy.linalg.cholesky(M, lower=False)  # M = G'G
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - alias
        raise NotPositiveDefinite(str(exc)) from exc

    Gi = scipy.linalg.solve_triangular(G, np.eye(k), lower=False)
    j = sig.diagonal()
    K = Gi.T @ (j[:, None] * Gi)
    K = 0.5 * (K + K.T)
    kappa, W = np.linalg.eigh(K)
    if np.any(kappa == 0.0):
        raise NotPositiveDefinite("pencil is numerically singular")
    lam = 1.0 / kappa
    V = (Gi @ W) / np.sqrt(np.abs(kappa))

    order = np.argsort(-lam, kind="stable")
    lam = lam[order]
    V = V[:, order]

    # Inertia is fixed by congruence with J; the descending sort therefore
    # puts the n_plus positive eigenvalues first.  Verify outside the
    # ambiguity band.
    band = TOL_EIG * max(1.0, float(np.max(np.abs(lam))))
    if np.any(lam[:sig.n_plus] < -band) or np.any(lam[sig.n_plus:] > band):
        raise NotPositiveDefinite(
            "computed inertia disagrees with the signature")
    return PencilEigen(V=V, lambdas=lam, sig=sig)


def gram_shift(left, right) -> float:
    """Diagonal shift for the Gram matrix of [left, right] when its
    Cholesky fails: 1e-12 times the larger squared block norm.  It clears
    the rounding noise of the failed pivots but costs accuracy in mu:
    O(shift) at simple eigenvalues, O(sqrt(shift)) at degenerate ones."""
    scale = max(float(np.linalg.norm(left)), float(np.linalg.norm(right)))
    return 1e-12 * max(scale ** 2, 1e-300)


def gram_pencil(left, right, eps: float = 0.0) -> tuple[PencilEigen, float]:
    """The pencil ([left, right]'[left, right] + eps I, diag(I_n, -I_d))
    for an m x n left and m x d right, with the shift applied.  With
    eps = 0 a failed Cholesky is retried once with gram_shift(left, right);
    NotPositiveDefinite propagates from the last attempt."""
    T = np.hstack([left, right])
    M = T.T @ T
    sig = JSignature(left.shape[1], right.shape[1])
    if eps == 0.0:
        try:
            return j_pencil_eig(M, sig), 0.0
        except NotPositiveDefinite:
            eps = gram_shift(left, right)
    return j_pencil_eig(M + eps * np.eye(sig.size), sig), eps


def _signed_eig_sums(Msym) -> tuple[float, float]:
    M = _check_symmetric(Msym, "Msym")
    w = np.linalg.eigvalsh(M)
    band = TOL_EIG * max(1.0, float(np.max(np.abs(w))) if w.size else 0.0)
    return float(w[w < -band].sum()), float(w[w > band].sum())


def tr_minus(Msym) -> float:
    """Sum of the negative eigenvalues of a symmetric matrix.

    Eigenvalues above -tol_eig * max(1, ||M||_2) do not contribute.
    """
    return _signed_eig_sums(Msym)[0]


def tr_plus(Msym) -> float:
    """Complementary sum: eigenvalues above +tol_eig * max(1, ||M||_2)."""
    return _signed_eig_sums(Msym)[1]


def hyperbolic_cs(X, sig: JSignature) -> HyperbolicCS:
    """Hyperbolic CS decomposition of X with X'JX = -I_d (requires n >= d).

    Splits X = [X1; X2], takes the thin SVD X1 = P S Z', sets
    c_i = sqrt(1 + s_i^2) and Q = X2 Z C^{-1}.  Orthogonality of Q is
    asserted after construction: failure beyond 1e-6 means the input
    violated the J-constraint and raises NotFeasible rather than silently
    re-orthogonalizing.
    """
    X = np.asarray(X, dtype=float)
    n, d = sig.n_plus, sig.n_minus
    if n < d:
        raise DimensionMismatch("hyperbolic CS requires n >= d")
    if X.shape != (n + d, d):
        raise DimensionMismatch(f"X must be {n + d} x {d}")
    j = sig.diagonal()
    gram = X.T @ (j[:, None] * X)
    if np.max(np.abs(gram + np.eye(d))) > 1e-8:
        raise NotFeasible("X'JX deviates from -I beyond tolerance")

    X1, X2 = X[:n], X[n:]
    P, s, Zt = np.linalg.svd(X1, full_matrices=False)
    Z = Zt.T
    c = np.sqrt(1.0 + s * s)
    Q = (X2 @ Z) / c
    if np.max(np.abs(Q.T @ Q - np.eye(d))) > 1e-6:
        raise NotFeasible("recovered Q is not orthogonal; input infeasible")
    return HyperbolicCS(P=P, Q=Q, Z=Z, s=s, c=c)
