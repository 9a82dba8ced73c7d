"""Least-squares problem containers, weighted residuals, pair compression,
and the retained SVD data shared by the estimates and the exact routes.

The central objects are an approximate least-squares solution X for
min ||AX - B||_F together with the weighted residual R_theta, which is the
quantity all backward-error formulas consume.  Everything here is a pure
function of its inputs; values are safe to share across threads.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .errors import DimensionMismatch, RankDeficient, ShiftNotPD

# Numerical-rank threshold relative to the largest singular value.  Matches
# the backward error of a double-precision factorization.
TOL_RANK = 1e-12


def is_sparse(A) -> bool:
    return sp.issparse(A)


def _as_2d(M, name: str) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim == 1:
        M = M[:, None]
    if M.ndim != 2:
        raise DimensionMismatch(f"{name} must be 1- or 2-dimensional")
    return M


def _check_finite(M, name: str) -> None:
    data = M.data if is_sparse(M) else np.asarray(M)
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{name} contains non-finite entries")


class MatrixOperator:
    """The one operator: counted matvec/rmatvec over a dense array, a
    sparse matrix, or any object with matvec/rmatvec/shape.

    matvecs and rmatvecs count every product taken through it.  matrix is
    the array itself, None for a bare operator.  The transpose of an array
    is bound once: for a sparse A, A.T builds a new matrix object on every
    access.
    """

    def __init__(self, A):
        self.shape = A.shape
        self.matvecs = 0
        self.rmatvecs = 0
        if hasattr(A, "matvec") and hasattr(A, "rmatvec"):
            self.matrix = None
            self._matvec, self._rmatvec = A.matvec, A.rmatvec
        else:
            self.matrix = A
            self._matvec, self._rmatvec = A.__matmul__, A.T.__matmul__

    def matvec(self, v: np.ndarray) -> np.ndarray:
        self.matvecs += 1
        return self._matvec(v)

    def rmatvec(self, u: np.ndarray) -> np.ndarray:
        self.rmatvecs += 1
        return self._rmatvec(u)


@dataclass(frozen=True, eq=False)
class LSProblem:
    """A least-squares instance: operator A (m x n), right-hand side(s) B
    (m x d), and weighting theta.

    theta is a positive float; math.inf is the distinguished infinite
    weighting (it is a representable tag, never approximated by a large
    finite value).
    """

    A: object
    B: np.ndarray
    theta: float = math.inf

    def __post_init__(self):
        B = _as_2d(self.B, "B")
        object.__setattr__(self, "B", B)
        if self.A.ndim != 2:
            raise DimensionMismatch("A must be 2-dimensional")
        m, n = self.A.shape
        if m < 1 or n < 1 or B.shape[1] < 1:
            raise DimensionMismatch("all dimensions must be at least 1")
        if B.shape[0] != m:
            raise DimensionMismatch(
                f"B has {B.shape[0]} rows but A has {m}")
        _check_finite(self.A, "A")
        _check_finite(B, "B")
        if not (self.theta > 0):  # rejects NaN and nonpositive values
            raise ValueError("theta must be positive (math.inf allowed)")

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]

    @property
    def d(self) -> int:
        return self.B.shape[1]


@dataclass(frozen=True, eq=False)
class WeightedResidual:
    """Residual data for an approximate solution: R = B - AX and the
    theta-weighted residual Rtheta = R (theta^-2 I + X'X)^{-1/2}."""

    X: np.ndarray
    R: np.ndarray
    Rtheta: np.ndarray
    theta: float

    @property
    def norm_Rtheta(self) -> float:
        return float(np.linalg.norm(self.Rtheta))


@dataclass(frozen=True, eq=False)
class CompressedPair:
    """Row-compressed stand-in (TA, TR) for a pair (A, Rtheta).

    The Gram matrices are preserved: TA'TA = A'A, TR'TR = Rtheta'Rtheta and
    TA'TR = A'Rtheta, so every rotation-invariant quantity downstream (in
    particular the backward error) is unchanged.  normR carries
    ||Rtheta||_F from the original pair.
    """

    TA: np.ndarray
    TR: np.ndarray
    normR: float


def theta_scale(theta: float, normx: float) -> float:
    """The factor c with r_theta = c r for one right-hand side:
    theta / sqrt(1 + theta^2 ||x||^2), or 1 / ||x|| for theta = inf (NaN
    when x = 0)."""
    if math.isinf(theta):
        return 1.0 / normx if normx > 0.0 else math.nan
    return theta / math.sqrt(1.0 + theta * theta * normx * normx)


def weighted_residual(problem: LSProblem, X) -> WeightedResidual:
    """Form R = B - AX and the weighted residual Rtheta.

    For a single right-hand side and finite theta this is
    theta * r / sqrt(1 + theta^2 ||x||^2); with theta = inf it is r / ||x||,
    which requires X to have full column rank.  For d > 1 the d x d matrix
    (theta^-2 I + X'X)^{-1/2} is applied on the right, computed from a
    symmetric eigendecomposition of the Gram matrix.

    Raises RankDeficient when theta = inf and X is numerically
    rank-deficient; the caller should supply a finite theta instead.
    """
    X = _as_2d(X, "X")
    m, n, d = problem.m, problem.n, problem.d
    if X.shape != (n, d):
        raise DimensionMismatch(f"X must be {n} x {d}, got {X.shape}")
    _check_finite(X, "X")

    R = problem.B - problem.A @ X
    theta = problem.theta
    infinite = math.isinf(theta)

    if infinite:
        sv = np.linalg.svd(X, compute_uv=False)
        if sv[0] == 0.0 or sv[-1] <= TOL_RANK * sv[0]:
            raise RankDeficient(
                "theta = inf requires X with full column rank; "
                "supply a finite theta")

    if d == 1:
        Rtheta = theta_scale(theta, float(np.linalg.norm(X))) * R
    else:
        G = X.T @ X
        G = 0.5 * (G + G.T)
        w, V = np.linalg.eigh(G)
        w = np.maximum(w, 0.0)
        if infinite:
            diag = 1.0 / np.sqrt(w)
        else:
            diag = 1.0 / np.sqrt(theta ** -2 + w)
        Rtheta = R @ ((V * diag) @ V.T)

    return WeightedResidual(X=X, R=R, Rtheta=Rtheta, theta=theta)


def compress_pair(A, Rtheta) -> CompressedPair:
    """Compress (A, Rtheta) to min(m, n+d) rows via a thin QR of [A, Rtheta].

    When m <= n + d the pair is returned unchanged.  Otherwise A (dense or
    sparse) and Rtheta are copied once into one Fortran-ordered work array,
    which LAPACK's compact-WY QR dgeqrt factors in place; the triangle is
    the upper triangle of its first n + d rows.  Rank-deficient inputs pass
    through; downstream code copes via continuity.
    """
    Rtheta = _as_2d(Rtheta, "Rtheta")
    if not is_sparse(A):
        A = _as_2d(A, "A")
    m, n = A.shape
    if Rtheta.shape[0] != m:
        raise DimensionMismatch("A and Rtheta must have the same row count")
    d = Rtheta.shape[1]
    normR = float(np.linalg.norm(Rtheta))
    if m <= n + d:
        TA = np.array(A.toarray() if is_sparse(A) else A, dtype=float,
                      order="C")
        return CompressedPair(TA=TA, TR=Rtheta.copy(), normR=normR)
    work = np.empty((m, n + d), order="F")
    if is_sparse(A):
        A.astype(float, copy=False).toarray(out=work[:, :n])
    else:
        work[:, :n] = A
    work[:, n:] = Rtheta
    work, _, info = scipy.linalg.lapack.dgeqrt(
        min(_TPQRT_NB, n + d), work, overwrite_a=True)
    if info != 0:
        raise np.linalg.LinAlgError(f"dgeqrt failed (info {info})")
    T = np.triu(work[:n + d])
    return CompressedPair(TA=T[:, :n], TR=T[:, n:], normR=normR)


@dataclass(frozen=True, eq=False)
class KWFactorization:
    """Retained SVD data of A (or of a sketch SA): singular values and the
    full set of right singular vectors.

    This is the O(n^2)-per-evaluation backend for the regularized-norm
    estimate, the lower-bound direction solves and the secular equation of
    mu_fixed_point.  Immutable; safe to share across threads.
    """

    singular_values: np.ndarray
    right_vectors: np.ndarray

    def definite(self, shift) -> np.ndarray:
        """Whether M'M + shift I is positive definite, elementwise over an
        array of shifts (False for a NaN shift)."""
        return np.asarray(shift) + float(self.singular_values[-1] ** 2) > 0.0

    def check_shift(self, shift) -> None:
        """Raise ShiftNotPD unless M'M + shift I is positive definite for
        the shift, or for every one of an array of shifts."""
        if not np.all(self.definite(shift)):
            raise ShiftNotPD(
                "mu_est^2 must stay below ||r||^2 + sigma_min^2 of the sketch")

    def coordinates(self, v) -> np.ndarray:
        """V'v: v in the basis of right singular vectors, for one vector
        (n,) or for every row of a stack (k, n).  A stack is one gemm,
        which reads V once where k vectors read it k times; a row of a
        stack may differ from its own vector's product in the last bits,
        but a stack of one is bitwise the vector's product."""
        return np.asarray(v, dtype=float) @ self.right_vectors

    def solve(self, rhs, shift, z=None) -> np.ndarray:
        """(M'M + shift I)^{-1} rhs in O(n^2), after check_shift.

        rhs is one vector (n,) with a float shift, or a stack (k, n) with
        one shift per row.  A stack costs two gemms (coordinates and the
        back-multiplication), which read V once each where k solves read
        it 2k times; a row of a stack may differ from its own solve in the
        last bits, but a stack of one is bitwise the vector's solve.  z,
        when given, is coordinates(rhs), already formed by the caller (a
        stack's z is then one gemm shared with its other users).
        """
        shift = np.asarray(shift, dtype=float)
        self.check_shift(shift)
        if z is None:
            z = self.coordinates(rhs)
        s = self.singular_values
        return (z / (s * s + shift[..., None])) @ self.right_vectors.T


def kw_factorization(M, sketch=None) -> KWFactorization:
    """Build the factorization of any k x n matrix, dense or sparse, or of
    S M for a sketch S given as sketch=S without ever forming S M.

    Only the singular values and right singular vectors are kept.  When
    k > n the matrix is first compressed to its n x n triangular factor R
    (M = QR, so M'M = R'R and the kept data are unchanged); the SVD then
    never forms the k x n left factors.  When k < n the matrix is padded
    with zero rows so the right singular vectors always span all of R^n
    (the Gram matrix M'M is unchanged by the padding).

    The QR is LAPACK geqrf in place on a Fortran-ordered array that the
    factorization owns: a sparse M is densified into one, a dense M is
    copied into one (M itself is never written).

    With a sketch, S M is read from sketch.row_blocks(M).  Rows are stacked
    until there are more than n, factored by QR, and every later block is
    folded into R by LAPACK dtpqrt (a streamed TSQR), so only one block of
    S M is held at a time.  A sketch that yields one block (any kind but a
    Gaussian of more than 256 rows) takes exactly the path of
    kw_factorization(apply_sketch(sketch, M)).
    """
    if sketch is None:
        R = _triangular_factor(
            [M if is_sparse(M) else np.array(M, dtype=float, order="F")])
    else:
        with contextlib.closing(sketch.row_blocks(M)) as blocks:
            R = _triangular_factor(blocks)
    # NumPy's SVD gufunc releases the interpreter lock; SciPy's f2py gesdd
    # holds it.  scipy.linalg.svd(R, overwrite_a=True, check_finite=False)
    # cut solve-trace peak RSS from 141.7/141.6 to 133.4/133.3 MB (2 runs
    # each) but raised solve-converge wall from 2.33-2.94 to 3.07-3.55 s
    # (3 alternating runs of --seconds 8), one BLAS thread on a shared
    # 2-core Xeon host.  So the SVD stays on NumPy.
    _, s, Vt = np.linalg.svd(R, full_matrices=False)
    return KWFactorization(singular_values=s, right_vectors=Vt.T)


# Block size of the compact WY representation inside dtpqrt and
# compress_pair's dgeqrt: the fastest of 16-256 for folding 256 x 1019
# blocks with one BLAS thread, and within 8% of the fastest of 32, 64 and
# 128 for the 1500-3000 x 120-255 pairs of the exact routes.
_TPQRT_NB = 64


def _triangular_factor(blocks) -> np.ndarray:
    """An n x n (or, while the rows number at most n, zero-padded) matrix T
    with T'T = M'M, for M given as a sequence of row blocks.  The blocks
    belong to the factorization, which overwrites them."""
    # The first QR stays on geqrf, not compress_pair's dgeqrt: dgeqrt is
    # faster on its own (kw_factorization of the 8899 x 1019 stand-in in
    # 1.23 against 1.36 s), but on A's side of the lsbe-factor pool, beside
    # a sparse-sign 6n sketch, it slowed the pair from 1.56 to 2.04 s
    # (medians of 6, one BLAS thread, 2-core host).  SciPy's f2py dgeqrt
    # and dtpqrt hold the interpreter lock for the whole call, geqrf does
    # not: a second Python thread stalled 60-90 ms in an 80-95 ms dgeqrt
    # of 2000 x 1019 and 17-23 ms in a 22-28 ms dtpqrt fold of 256 x 1019,
    # against under 8 ms in a 210-250 ms geqrf of the same 2000 x 1019.
    stacked, rows, R = [], 0, None
    for block in blocks:
        if is_sparse(block):
            block = block.toarray(order="F")
        block = np.asarray(block, dtype=float)
        n = block.shape[1]
        if R is not None:
            R, _, _, info = scipy.linalg.lapack.dtpqrt(
                0, min(_TPQRT_NB, n), R, block, overwrite_a=True,
                overwrite_b=True)
            if info != 0:
                raise np.linalg.LinAlgError(f"dtpqrt failed (info {info})")
            continue
        stacked.append(block)
        rows += block.shape[0]
        if rows > n:
            # geqrf in place; R is the upper triangle of its first n rows.
            _, R = scipy.linalg.qr(_stack(stacked), mode="raw",
                                   overwrite_a=True, check_finite=False)
            stacked = None
    if R is not None:
        return R
    if rows < n:
        stacked.append(np.zeros((n - rows, n)))
    return _stack(stacked)


def _stack(blocks) -> np.ndarray:
    """The blocks one above the other in one Fortran-ordered array (a lone
    Fortran-ordered block is returned as it is)."""
    if len(blocks) == 1:
        return np.asfortranarray(blocks[0])
    out = np.empty((sum(len(b) for b in blocks), blocks[0].shape[1]),
                   order="F")
    return np.concatenate(blocks, out=out)
