"""Least-squares problem containers, weighted residuals, pair compression,
and the retained SVD data shared by the estimates and the exact routes.

The central objects are an approximate least-squares solution X for
min ||AX - B||_F together with the weighted residual R_theta, which is the
quantity all backward-error formulas consume.  Everything here is a pure
function of its inputs; values are safe to share across threads.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import threading
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.linalg import cython_lapack

from .errors import (DimensionMismatch, RankDeficient, ShapeMismatch,
                     ShiftNotPD)

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

    Only the singular values and right singular vectors are kept.  M is
    first compressed to an n x n upper triangle R with R'R = M'M, so the
    kept data are unchanged and the SVD never forms k x n left factors.
    R belongs to the factorization, and the SVD (LAPACK dgesdd,
    JOBZ='O') consumes it: U is formed only in R's place, so beside R
    only V' and the workspace are new.  s and V' are bit for bit
    np.linalg.svd(R)'s with one BLAS thread.  When k < n, M'M has rank
    at most k, so s[k:] is set to exactly 0; R's rows past k are not
    zero in general (folding the row [0, 1] into a zero 2 x 2 triangle
    gives R = [[0, 0], [0, -1]]), and the right singular vectors span
    all of R^n either way.

    The QR is a streamed TSQR (Demmel, Grigori, Hoemmen & Langou 2012):
    R starts as an n x n zero triangle, and every chunk of at most 1024
    rows of M is made dense in Fortran order in one reused buffer (a
    sketch block that already is so is used as it is) and folded into R
    by LAPACK dtpqrt.  So no more than one chunk of M is ever dense, and
    M itself is never written.  R is not np.linalg.qr's triangle bit for
    bit: its rounding is the fold's.

    With a sketch, S M is read from sketch.row_blocks(M), block by block
    through the same chunks, so only one block of S M is held at a time:
    256-row blocks of a Gaussian S, and S M whole for the other kinds (a
    sparse block for a sparse-sign S and a sparse M).  A Gaussian block
    is drawn and applied in pieces of 1024 rows of M, so the stream holds
    O(6 * 1024 * 256 + n * 256) floats whatever k is, beside a CSR copy
    of a sparse M not given as CSR: for a sparse k x 64 M and a 384-row S
    the traced peak is 13.2 MB at k = 20000 and 13.5 MB at k = 80000 (82.4
    and 328.2 MB when each block was drawn whole).  A
    sketch whose S M is one block of at most 1024 rows takes exactly the
    path of kw_factorization(apply_sketch(sketch, M)).  The identity
    sketch is the exact factor (distortion 0): once the rows of M are
    checked against it, M is factored as with sketch=None, bit for bit,
    and a dense M is not copied.

    The SVDs of all kw_factorization calls in the process take turns on
    one lock, so two threads factoring at once (the _factorizations
    pool) never hold two SVD workspaces together; a lone call never
    waits.
    """
    if sketch is None or sketch.kind == "identity":
        M = M if is_sparse(M) else np.asarray(M, dtype=float)
        k = M.shape[0]
        if sketch is not None and k != sketch.cols:
            raise ShapeMismatch(
                f"sketch expects {sketch.cols} rows, input has {k}")
        R = _triangular_factor([M], owned=False)
    else:
        k = sketch.rows
        with contextlib.closing(sketch.row_blocks(M)) as blocks:
            R = _triangular_factor(blocks, owned=True)
    with _SVD_TURNS:
        s, Vt = _svd(R)
    s[k:] = 0.0  # M'M has rank at most k
    return KWFactorization(singular_values=s, right_vectors=Vt.T)


# Held by kw_factorization for its SVD: one SVD at a time in the process.
_SVD_TURNS = threading.Lock()


# Block size of the compact WY representation inside dtpqrt and
# compress_pair's dgeqrt: the fastest of 16-256 for folding 256 x 1019
# blocks with one BLAS thread, and within 8% of the fastest of 32, 64 and
# 128 for the 1500-3000 x 120-255 pairs of the exact routes.
_TPQRT_NB = 64

# Rows of M made dense at a time by _triangular_factor.
_CHUNK = 1024


def _lapack_function(name: str, *argtypes):
    """A LAPACK routine from scipy.linalg.cython_lapack as a ctypes
    function.  A ctypes call releases the interpreter lock."""
    capsule = cython_lapack.__pyx_capi__[name]
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(
        ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    address = get_pointer(capsule, get_name(capsule))
    return ctypes.CFUNCTYPE(None, *argtypes)(address)


_INT, _ARRAY = ctypes.POINTER(ctypes.c_int), ctypes.c_void_p
# dtpqrt(m, n, l, nb, a, lda, b, ldb, t, ldt, work, info)
_dtpqrt = _lapack_function("dtpqrt", _INT, _INT, _INT, _INT, _ARRAY, _INT,
                           _ARRAY, _INT, _ARRAY, _INT, _ARRAY, _INT)
# dgesdd(jobz, m, n, a, lda, s, u, ldu, vt, ldvt, work, lwork, iwork, info)
_dgesdd = _lapack_function("dgesdd", ctypes.c_char_p, _INT, _INT, _ARRAY,
                           _INT, _ARRAY, _ARRAY, _INT, _ARRAY, _INT, _ARRAY,
                           _INT, _ARRAY, _INT)


def _svd(R):
    """The singular values and V' of R, an n x n Fortran-contiguous
    float64 array, which it consumes: LAPACK's divide-and-conquer dgesdd
    with JOBZ='O' overwrites R with U and forms no other left vectors.
    Bit for bit np.linalg.svd(R, full_matrices=False)'s s and V' with one
    BLAS thread, V' C-ordered as NumPy returns it: KWFactorization keeps
    V'.T, whose order sets the summation order of every later product with
    it.  The workspace is sized by a dgesdd query on every call.  A NaN in
    R raises LinAlgError (info -4), as NumPy does; info > 0 means no
    convergence."""
    # NumPy's SVD copies R and forms U twice beside its workspace: about
    # 7n^2 floats, 58 MB at n = 1019.  Here only V' (n^2), the workspace
    # (4n^2 + O(n)) and IWORK (8n ints) are new, about 5n^2 floats.  A
    # ctypes call holds no interpreter lock, nor does NumPy's SVD gufunc;
    # SciPy's f2py gesdd holds it for the whole call, and
    # scipy.linalg.svd(R, overwrite_a=True, check_finite=False) raised
    # solve-converge wall from 2.33-2.94 to 3.07-3.55 s (one BLAS thread,
    # 2-core host).
    n = len(R)
    if not (R.shape == (n, n) and R.dtype == np.float64
            and R.flags.f_contiguous):
        raise ValueError("_svd needs a Fortran-contiguous float64 n x n R")
    order, one, info = ctypes.c_int(n), ctypes.c_int(1), ctypes.c_int()
    size = np.empty(1)
    # The query (lwork = -1) reads none of the arrays.  Its size is the one
    # to pass: it sets the blocking of the bidiagonal reduction, and so the
    # bits.
    _dgesdd(b"O", order, order, None, order, None, None, one, None, order,
            size.ctypes.data, ctypes.c_int(-1), None, ctypes.byref(info))
    if info.value != 0:
        raise np.linalg.LinAlgError(
            f"dgesdd workspace query failed (info {info.value})")
    lwork = int(size[0])
    s = np.empty(n)
    vt = np.empty((n, n), order="F")
    work = np.empty(lwork + 4 * n)  # IWORK's 8n ints follow the workspace
    address = work.ctypes.data
    # U is R itself (JOBZ='O', m >= n), so the u argument is never read.
    _dgesdd(b"O", order, order, R.ctypes.data, order, s.ctypes.data, None,
            one, vt.ctypes.data, order, address, ctypes.c_int(lwork),
            address + 8 * lwork, ctypes.byref(info))
    del work
    if info.value != 0:
        raise np.linalg.LinAlgError(f"dgesdd failed (info {info.value})")
    return s, np.ascontiguousarray(vt)


def _fold(R, B) -> None:
    """Fold the rows of B into the n x n upper triangle R in place (LAPACK
    dtpqrt with l = 0): afterwards R'R = R0'R0 + B'B, and B holds
    reflectors.  R and B are Fortran-contiguous float64 arrays.  Bitwise
    what SciPy's f2py dtpqrt gives with the same block size, but without
    the interpreter lock, which the f2py wrapper holds for the whole
    call: a second Python thread stalled 59-81 ms in its 58-80 ms folds
    of 1024 x 1019 and 19-27 ms in its 18-26 ms folds of 256 x 1019,
    and 2-5 ms in these (one BLAS thread, 2-core host)."""
    b, n = B.shape
    if not (R.shape == (n, n) and R.dtype == B.dtype == np.float64
            and R.flags.f_contiguous and B.flags.f_contiguous):
        raise ValueError("_fold needs Fortran-contiguous float64 R (n x n) "
                         "and B (b x n)")
    nb = min(_TPQRT_NB, n)
    T = np.empty((nb, n), order="F")
    work = np.empty(nb * n)
    info = ctypes.c_int()
    c_int = ctypes.c_int
    _dtpqrt(c_int(b), c_int(n), c_int(0), c_int(nb), R.ctypes.data,
            c_int(n), B.ctypes.data, c_int(max(1, b)), T.ctypes.data,
            c_int(nb), work.ctypes.data, ctypes.byref(info))
    if info.value != 0:
        raise np.linalg.LinAlgError(f"dtpqrt failed (info {info.value})")


def _triangular_factor(blocks, owned: bool) -> np.ndarray:
    """An n x n upper triangle R with R'R = M'M, for M given as a sequence
    of dense or sparse row blocks: R starts as zeros and every chunk of at
    most _CHUNK rows, made dense and Fortran-ordered in one reused buffer,
    is folded in by _fold.  The dense blocks belong to the factorization,
    which may overwrite them, when owned is true; otherwise they are only
    read.  An owned dense block of at most _CHUNK rows that is already so
    ordered is folded as it is."""
    R, buffer = None, np.empty(0)
    for block in blocks:
        k, n = block.shape
        if R is None:
            R = np.zeros((n, n), order="F")
        if (owned and k <= _CHUNK and not is_sparse(block)
                and block.flags.f_contiguous):
            _fold(R, block)
            continue
        if is_sparse(block) and k > _CHUNK:
            block = block.tocsr()  # row slices without a search
        for start in range(0, k, _CHUNK):
            part = block if k <= _CHUNK else block[start:start + _CHUNK]
            size = part.shape[0] * n
            if len(buffer) < size:
                buffer = np.empty(size)
            chunk = buffer[:size].reshape(part.shape, order="F")
            if is_sparse(part):
                part.astype(float, copy=False).toarray(out=chunk)
            else:
                chunk[...] = part
            _fold(R, chunk)
    return R
