import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import aslinearoperator

import lsbe.core
from lsbe import (LSProblem, MatrixOperator, compress_pair, kw_factorization,
                  mu_exact, weighted_residual)
from lsbe.errors import (DimensionMismatch, RankDeficient, ShapeMismatch,
                         ShiftNotPD)
from lsbe.sketch import SketchOperator, apply_sketch
from lsbe.pencil import tr_minus

from conftest import random_orthogonal

pytestmark = pytest.mark.threaded_blas

EPS = np.finfo(float).eps


def test_weighted_residual_single_rhs_finite_theta():
    problem = LSProblem(np.array([[1.0]]), np.array([2.0]), theta=1.0)
    wr = weighted_residual(problem, np.array([1.0]))
    assert wr.R[0, 0] == 1.0
    assert wr.Rtheta[0, 0] == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)


def test_weighted_residual_single_rhs_infinite_theta():
    problem = LSProblem(np.array([[1.0]]), np.array([2.0]))
    wr = weighted_residual(problem, np.array([1.0]))
    assert wr.Rtheta[0, 0] == pytest.approx(1.0, rel=1e-15)


def test_weighted_residual_matches_matrix_function_oracle(rng):
    # d x d matrix-function oracle computed through an inverse square root,
    # a route independent of the eigendecomposition used by the library.
    m, n, d, theta = 8, 3, 2, 2.0
    A = rng.standard_normal((m, n))
    B = rng.standard_normal((m, d))
    X = rng.standard_normal((n, d))
    wr = weighted_residual(LSProblem(A, B, theta=theta), X)
    R = B - A @ X
    oracle = R @ np.linalg.inv(
        scipy.linalg.sqrtm(theta ** -2 * np.eye(d) + X.T @ X).real)
    assert np.allclose(wr.Rtheta, oracle, rtol=1e-12, atol=1e-13)


def test_weighted_residual_multi_rhs_infinite_theta(rng):
    # theta = inf applies (X'X)^{-1/2} on the right.
    A = rng.standard_normal((8, 3))
    B = rng.standard_normal((8, 2))
    X = rng.standard_normal((3, 2))
    wr = weighted_residual(LSProblem(A, B), X)
    oracle = (B - A @ X) @ np.linalg.inv(scipy.linalg.sqrtm(X.T @ X).real)
    assert np.allclose(wr.Rtheta, oracle, rtol=1e-12, atol=1e-13)


def test_weighted_residual_rank_deficient_rejected(rng):
    A = rng.standard_normal((6, 3))
    B = rng.standard_normal((6, 2))
    x = rng.standard_normal(3)
    X = np.column_stack([x, x])  # rank one
    with pytest.raises(RankDeficient):
        weighted_residual(LSProblem(A, B), X)


def test_weighted_residual_norm_envelope(rng):
    for _ in range(50):
        m = int(rng.integers(2, 10))
        n = int(rng.integers(1, 6))
        d = int(rng.integers(1, 4))
        theta = float(10.0 ** rng.uniform(-1, 1))
        A = rng.standard_normal((m, n))
        B = rng.standard_normal((m, d))
        X = rng.standard_normal((n, d))
        wr = weighted_residual(LSProblem(A, B, theta=theta), X)
        # Smallest singular value of X viewed through its d x d Gram
        # matrix (zero when n < d).
        smin = math.sqrt(max(np.linalg.eigvalsh(X.T @ X)[0], 0.0))
        cap = min(theta, 1.0 / smin) if smin > 0 else theta
        assert (np.linalg.norm(wr.Rtheta)
                <= np.linalg.norm(wr.R) * cap * (1 + 1e-12) + 1e-12)


def test_problem_validation():
    with pytest.raises(DimensionMismatch):
        LSProblem(np.ones((3, 2)), np.ones(4))
    with pytest.raises(ValueError):
        LSProblem(np.ones((3, 2)), np.ones(3), theta=0.0)
    with pytest.raises(ValueError):
        LSProblem(np.array([[np.nan, 1.0]]), np.ones(1))


def test_compress_identity_when_single_row():
    A = np.array([[2.0, 1.0]])
    R = np.array([[3.0]])
    cp = compress_pair(A, R)
    assert np.array_equal(cp.TA, A)
    assert np.array_equal(cp.TR, R)


def test_compress_orthonormal_input():
    A = np.array([[1.0], [0.0], [0.0]])
    R = np.array([[0.0], [1.0], [0.0]])
    cp = compress_pair(A, R)
    assert np.allclose(np.abs(cp.TA), [[1.0], [0.0]], atol=1e-15)
    assert np.allclose(np.abs(cp.TR), [[0.0], [1.0]], atol=1e-15)


def _mu_uncompressed(A, R):
    # Direct evaluation of the eigenvalue formula on the full-size matrix,
    # bypassing compress_pair entirely.
    W = A @ A.T - R @ R.T
    return math.sqrt(max(np.linalg.norm(R) ** 2
                         + tr_minus(0.5 * (W + W.T)), 0.0))


def test_compress_preserves_mu(rng):
    A = rng.standard_normal((50, 3))
    R = rng.standard_normal((50, 2))
    cp = compress_pair(A, R)
    direct = _mu_uncompressed(A, R)
    via_cp = mu_exact(cp.TA, cp.TR).mu
    assert via_cp == pytest.approx(direct, rel=1e-12)


def test_compress_idempotent(rng):
    A = rng.standard_normal((40, 4))
    R = rng.standard_normal((40, 2))
    cp = compress_pair(A, R)
    cp2 = compress_pair(cp.TA, cp.TR)
    T1 = np.hstack([cp.TA, cp.TR])
    T2 = np.hstack([cp2.TA, cp2.TR])
    assert np.allclose(T1.T @ T1, T2.T @ T2, rtol=1e-12, atol=1e-12)


def _pair(rng, m, n, d, layout):
    A = rng.standard_normal((m, n)) * np.logspace(0, -3, n)
    R = np.array(rng.standard_normal((m, d)), order="F" if layout == "F"
                 else "C")
    if layout == "csc":
        return sp.csc_matrix(A), R
    return np.array(A, order=layout), R


@pytest.mark.parametrize("layout", ["C", "F", "csc"])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("n,rows", [(5, "n+d+1"), (5, "3(n+d)"),
                                    (5, "40n"), (70, "n+d+1"),
                                    (70, "20n")])
def test_compress_pair_preserves_gram(rng, layout, d, n, rows):
    # Householder QR keeps T'T = M'M, M = [A, R], to c eps ||M||_F^2 in
    # every entry.  c = 8: this grid measured at most 1.0 against a
    # long-double Gram of the stored data.  n = 70 spans two dgeqrt blocks.
    m = {"n+d+1": n + d + 1, "3(n+d)": 3 * (n + d), "40n": 40 * n,
         "20n": 20 * n}[rows]
    A, R = _pair(rng, m, n, d, layout)
    A_before, R_before = A.copy(), R.copy()
    cp = compress_pair(A, R)
    assert cp.TA.shape == (n + d, n) and cp.TR.shape == (n + d, d)
    # Upper trapezoidal: TA[i, j] = 0 for i > j, TR[i, j] = 0 for i > n + j.
    assert np.array_equal(cp.TA, np.triu(cp.TA))
    assert np.array_equal(cp.TR, np.triu(cp.TR, -n))
    M = np.hstack([A.toarray() if sp.issparse(A) else A, R])
    T = np.hstack([cp.TA, cp.TR]).astype(np.longdouble)
    Ml = M.astype(np.longdouble)
    err = float(np.abs(T.T @ T - Ml.T @ Ml).max())
    assert err <= 8.0 * EPS * float(np.linalg.norm(M)) ** 2
    assert cp.normR == float(np.linalg.norm(R))
    if sp.issparse(A):
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(A, part), getattr(A_before, part))
    else:
        assert np.array_equal(A, A_before)
    assert np.array_equal(R, R_before)


@pytest.mark.parametrize("layout", ["C", "F", "csc"])
@pytest.mark.parametrize("m,n,d", [(3, 2, 1), (5, 2, 3), (4, 1, 4)])
def test_compress_pair_passthrough_bit_identical(rng, layout, m, n, d):
    # m <= n + d: the pair comes back as C-ordered copies, bit for bit.
    A, R = _pair(rng, m, n, d, layout)
    dense = A.toarray() if sp.issparse(A) else A
    cp = compress_pair(A, R)
    for got, want in ((cp.TA, dense), (cp.TR, R)):
        assert np.array_equal(got, want) and got.flags.c_contiguous
        assert not np.shares_memory(got, want)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_right_rotation_invariance(seed):
    rng = np.random.default_rng(seed)
    m, n, d = 9, 3, 2
    A = rng.standard_normal((m, n))
    B = rng.standard_normal((m, d))
    X = rng.standard_normal((n, d))
    theta = float(10.0 ** rng.uniform(-0.5, 0.5))
    G = random_orthogonal(rng, d)
    wr = weighted_residual(LSProblem(A, B, theta=theta), X)
    wr_rot = weighted_residual(LSProblem(A, B @ G, theta=theta), X @ G)
    assert np.allclose(wr_rot.Rtheta, wr.Rtheta @ G, rtol=1e-10, atol=1e-12)
    mu = mu_exact(A, wr.Rtheta).mu
    mu_rot = mu_exact(A, wr_rot.Rtheta).mu
    assert mu_rot == pytest.approx(mu, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("fmt", ["csc", "csr", "coo", "dense"])
def test_matrix_operator_rmatvec(rng, monkeypatch, fmt):
    A = sp.random(30, 7, density=0.3, format="csc",
                  random_state=np.random.RandomState(3))
    A = A.toarray() if fmt == "dense" else A.asformat(fmt)
    U = rng.standard_normal((3, 30))
    expected = [A.T @ u for u in U]
    op = MatrixOperator(A)
    if fmt != "dense":
        # The transpose is bound at construction; products build no new one.
        def no_transpose(self, *args, **kwargs):
            raise AssertionError("transpose built per product")
        monkeypatch.setattr(type(A), "transpose", no_transpose)
    for u, ref in zip(U, expected):
        assert np.array_equal(op.rmatvec(u), ref)


def test_matrix_operator_counts_products(rng):
    # One class counts for arrays and for bare matvec/rmatvec operators;
    # only an array is exposed as matrix.
    A = rng.standard_normal((6, 3))
    v, u = rng.standard_normal(3), rng.standard_normal(6)
    for wrapped, matrix in ((A, A), (aslinearoperator(A), None)):
        op = MatrixOperator(wrapped)
        assert op.matrix is matrix and op.shape == (6, 3)
        assert np.allclose(op.matvec(v), A @ v, rtol=1e-14, atol=0)
        op.rmatvec(u)
        assert np.allclose(op.rmatvec(u), A.T @ u, rtol=1e-14, atol=0)
        assert (op.matvecs, op.rmatvecs) == (1, 2)


def test_check_shift_rejects_nan(rng):
    kwf = kw_factorization(rng.standard_normal((8, 3)))
    s_min2 = float(kwf.singular_values[-1] ** 2)
    kwf.check_shift(0.0)
    kwf.check_shift(-0.5 * s_min2)
    for shift in (math.nan, -s_min2, -2.0 * s_min2, -math.inf):
        with pytest.raises(ShiftNotPD):
            kwf.check_shift(shift)
    with pytest.raises(ShiftNotPD):
        kwf.solve(np.ones(3), math.nan)


def _sketch_pair(rng, m, n, sparse):
    """A CSC or dense m x n matrix with singular values spread over three
    decades, so the right singular vectors are well separated."""
    A = sp.random(m, n, density=0.05, format="csc",
                  random_state=np.random.RandomState(int(rng.integers(1e6))))
    A = sp.csc_matrix((A + sp.eye(m, n)) @ sp.diags(np.logspace(0, -3, n)))
    return A if sparse else A.toarray()


@pytest.mark.parametrize("sparse", [True, False])
@pytest.mark.parametrize("kind, rows", [
    ("gaussian", 1), ("gaussian", 30), ("gaussian", 256),
    ("sparse_sign", 700), ("identity", None)])
def test_kw_factorization_single_block_sketch_bit_identical(rng, sparse,
                                                            kind, rows):
    m, n = 400, 20
    A = _sketch_pair(rng, m, n, sparse)
    S = SketchOperator(kind=kind, rows=rows or m, cols=m, seed=5)
    streamed = kw_factorization(A, sketch=S)
    formed = kw_factorization(apply_sketch(S, A))
    assert np.array_equal(streamed.singular_values, formed.singular_values)
    assert np.array_equal(streamed.right_vectors, formed.right_vectors)


@pytest.mark.parametrize("sparse", [True, False])
@pytest.mark.parametrize("m, n, rows", [
    (700, 20, 257),    # one row past a block
    (900, 30, 700),    # three blocks, the last one short
    (1000, 300, 900),  # n > 256: blocks shorter than n
    (900, 400, 300),   # k < n: s[k:] is zero
    (900, 300, 301)])  # k = n + 1
def test_kw_factorization_streamed_matches_formed(rng, sparse, m, n, rows):
    A = _sketch_pair(rng, m, n, sparse)
    S = SketchOperator(kind="gaussian", rows=rows, cols=m, seed=11)
    streamed = kw_factorization(A, sketch=S)
    formed = kw_factorization(apply_sketch(S, A))
    _assert_factorization_close(streamed, formed.singular_values,
                                formed.right_vectors)


def _assert_factorization_close(kwf, s_ref, V_ref):
    """kwf's singular values within 1e-13 relative of s_ref, and its
    right singular vectors equal to V_ref's up to sign, to within the
    backward error of the factorization over the gap to the neighbouring
    singular values: 64 sqrt(n) eps s_1 / gap."""
    s = kwf.singular_values
    np.testing.assert_allclose(s, s_ref, rtol=1e-13, atol=0)
    V = kwf.right_vectors
    V = V * np.sign(np.sum(V * V_ref, axis=0))
    padded = np.concatenate([[np.inf], s_ref, [-np.inf]])
    gap = np.minimum(padded[:-2] - padded[1:-1], padded[1:-1] - padded[2:])
    with np.errstate(divide="ignore"):  # the zeros padded in when k < n
        tol = 64 * np.sqrt(len(s)) * EPS * s_ref[0] / gap
    assert np.all(np.linalg.norm(V - V_ref, axis=0) <= tol)


@pytest.mark.parametrize("b, n", [(30, 90), (90, 90), (300, 90), (7, 1),
                                  (50, 20)])
def test_fold_matches_f2py_dtpqrt(rng, b, n):
    # b < n, b = n and b > n with n past the block size, then n = 1 and
    # n < 64, where the block size is n itself.
    R = np.asfortranarray(np.triu(rng.standard_normal((n, n))))
    B = np.asfortranarray(rng.standard_normal((b, n)))
    want = scipy.linalg.lapack.dtpqrt(
        0, min(lsbe.core._TPQRT_NB, n), R, B)[0]
    lsbe.core._fold(R, B)
    assert np.array_equal(R, want)


def test_fold_failure_raises(rng, monkeypatch):
    R = np.asfortranarray(np.triu(rng.standard_normal((5, 5))))
    B = np.asfortranarray(rng.standard_normal((3, 5)))
    for bad in (np.ascontiguousarray(R),            # C order
                R.astype(np.float32, order="F"),     # not float64
                np.asfortranarray(R[:4, :4])):       # not n x n
        with pytest.raises(ValueError, match="Fortran-contiguous float64"):
            lsbe.core._fold(bad, B)
    monkeypatch.setattr(lsbe.core, "_TPQRT_NB", 0)  # LAPACK rejects nb < 1
    with pytest.raises(np.linalg.LinAlgError,
                       match=r"dtpqrt failed \(info -4\)"):
        lsbe.core._fold(R, B)


@pytest.mark.parametrize("form, rows", [
    ("csc", None), ("dense", None),            # A itself
    ("csc", 960), ("csc", 8000)])              # sparse-sign sketches
def test_kw_factorization_makes_no_dense_copy(rng, form, rows):
    # The traced peak stays under a quarter of the dense m x n input: only
    # chunks of at most 1024 rows are ever dense.  A dense copy of A
    # (25.6 MB) or of the 8000-row S A (10.2 MB) would break the bound, a
    # dense 6n = 960-row S A (1.2 MB) would not.  Drawing S costs about
    # 200 bytes per column of S: 4.1 MB here.
    m, n = 20000, 160
    A = sp.random(m, n, density=0.002, format="csc",
                  random_state=np.random.RandomState(int(rng.integers(1e6))))
    A = sp.csc_matrix((A + sp.eye(m, n)) @ sp.diags(np.logspace(0, -3, n)))
    if form == "dense":
        A = A.toarray()
    S = None if rows is None else SketchOperator(
        kind="sparse_sign", rows=rows, cols=m, seed=6)
    tracemalloc.start()
    try:
        kwf = kw_factorization(A, sketch=S)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < m * n * 8 / 4
    dense = A if S is None else apply_sketch(S, A)
    if sp.issparse(dense):
        dense = dense.toarray()
    _, s_ref, Vt_ref = np.linalg.svd(dense, full_matrices=False)
    _assert_factorization_close(kwf, s_ref, Vt_ref.T)


def test_identity_sketch_factorization_makes_no_dense_copy(rng):
    # The identity's block of a sparse A is A itself, so the factorization
    # through the sketch is the factorization of A, bit for bit, and holds
    # no dense copy of A (25.6 MB here).
    m, n = 20000, 160
    A = sp.random(m, n, density=0.002, format="csc",
                  random_state=np.random.RandomState(int(rng.integers(1e6))))
    A = sp.csc_matrix(A + sp.eye(m, n))
    S = SketchOperator(kind="identity", rows=m, cols=m)
    tracemalloc.start()
    try:
        kwf = kw_factorization(A, sketch=S)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < m * n * 8 / 4, peak
    direct = kw_factorization(A)
    assert np.array_equal(kwf.singular_values, direct.singular_values)
    assert np.array_equal(kwf.right_vectors, direct.right_vectors)


@pytest.mark.parametrize("form", ["C", "F", "csc", "csr", "wide"])
def test_identity_sketch_is_the_exact_factor(rng, form):
    # The identity is the exact factor: through it A is factored as
    # kw_factorization(A) factors it, bit for bit, on a dense A in either
    # order, a CSC or CSR one, and a wide one.
    m, n = (30, 50) if form == "wide" else (600, 40)
    A = _sketch_pair(rng, m, n, sparse=form in ("csc", "csr"))
    if form == "F":
        A = np.asfortranarray(A)
    elif form == "csr":
        A = A.tocsr()
    S = SketchOperator(kind="identity", rows=m, cols=m)
    got, direct = kw_factorization(A, sketch=S), kw_factorization(A)
    assert np.array_equal(got.singular_values, direct.singular_values)
    assert np.array_equal(got.right_vectors, direct.right_vectors)


def test_identity_sketch_of_dense_A_makes_no_copy(rng):
    # A dense A is factored in 1024-row chunks through the identity as it
    # is without one: no copy of A (25.6 MB here) is made.
    m, n = 20000, 160
    A = _sketch_pair(rng, m, n, sparse=False)
    peaks = []
    for S in (SketchOperator(kind="identity", rows=m, cols=m), None):
        tracemalloc.start()
        try:
            kw_factorization(A, sketch=S)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[0] - peaks[1]) < 1e6, peaks


def test_identity_sketch_checks_the_rows_of_its_input():
    S = SketchOperator(kind="identity", rows=5, cols=5)
    with pytest.raises(ShapeMismatch,
                       match="sketch expects 5 rows, input has 4"):
        kw_factorization(np.ones((4, 2)), sketch=S)


@pytest.mark.parametrize("form", ["dense", "csc", "gaussian"])
def test_short_input_has_exact_zero_singular_values(rng, form):
    # M'M of a k x n M with k < n has rank at most k, so s[k:] is exactly
    # 0 and s[:k] is M's.  The leading column is zero, so the fold leaves
    # R's first row zero and puts one of the k nonzero rows past row k:
    # R's rows past k are not zero, and dropping them would lose it.
    if form == "gaussian":
        A = rng.standard_normal((40, 6))
        A[:, 0] = 0.0
        S = SketchOperator(kind="gaussian", rows=4, cols=40, seed=7)
        M = apply_sketch(S, A)
        kwf = kw_factorization(A, sketch=S)
    else:
        M = np.array([[0.0, 1.0, 2.0], [0.0, 3.0, 1.0]])
        kwf = kw_factorization(sp.csc_matrix(M) if form == "csc" else M)
    k, n = M.shape
    s = kwf.singular_values
    assert s.shape == (n,) and np.all(s[k:] == 0.0)
    np.testing.assert_allclose(s[:k], np.linalg.svd(M, compute_uv=False),
                               rtol=1e-13, atol=0)


def test_gaussian_sketch_factorization_memory_independent_of_m():
    # The Gaussian stream draws and applies S in pieces of 1024 of its
    # columns, so the traced peak does not grow with the rows of A.
    # Drawing whole 256-row blocks, two m x 256 buffers, it was 82.4 MB
    # at m = 20000 and 328.2 MB at m = 80000.
    n = 64
    peaks = []
    for m in (20000, 80000):
        A = sp.random(m, n, density=0.002, format="csc",
                      random_state=np.random.RandomState(1))
        A = sp.csc_matrix(A + sp.eye(m, n))
        S = SketchOperator(kind="gaussian", rows=6 * n, cols=m, seed=1)
        tracemalloc.start()
        try:
            kw_factorization(A, sketch=S)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 2e6, peaks


def test_streamed_factorization_leaves_no_thread(rng, monkeypatch):
    A = _sketch_pair(rng, 600, 10, sparse=True)
    S = SketchOperator(kind="gaussian", rows=900, cols=600, seed=2)
    before = threading.active_count()

    kw_factorization(A, sketch=S)
    assert threading.active_count() == before

    # A fold that fails part way through the stream.
    def failing_fold(*args, **kwargs):
        raise RuntimeError("fold failed")
    monkeypatch.setattr(lsbe.core, "_fold", failing_fold)
    with pytest.raises(RuntimeError, match="fold failed"):
        kw_factorization(A, sketch=S)
    assert threading.active_count() == before
    monkeypatch.undo()

    blocks = S.row_blocks(A)
    first = next(blocks)
    assert first.shape == (256, 10)
    assert threading.active_count() == before + 1  # the helper is drawing
    blocks.close()
    assert threading.active_count() == before


def test_single_block_sketch_starts_no_thread(rng, monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("a single-block sketch started a thread")
    monkeypatch.setattr(threading.Thread, "start", no_thread)
    A = _sketch_pair(rng, 300, 10, sparse=True)
    for S in (SketchOperator(kind="gaussian", rows=256, cols=300, seed=1),
              SketchOperator(kind="sparse_sign", rows=600, cols=300, seed=1)):
        kw_factorization(A, sketch=S)


def _check_input_untouched(rng, m, layout, kind):
    A = _sketch_pair(rng, m, 20, sparse=True)
    if layout != "csc":
        A = np.array(A.toarray(), order=layout)
        assert A.flags.owndata
    before = A.copy()
    S = None if kind is None else SketchOperator(
        kind=kind, rows=m if kind == "identity" else 120, cols=m, seed=3)
    kw_factorization(A, sketch=S)
    if layout == "csc":
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(A, part), getattr(before, part))
    else:
        assert np.array_equal(A, before)


@pytest.mark.parametrize("layout", ["C", "F", "csc"])
@pytest.mark.parametrize("kind", [None, "identity", "sparse_sign"])
def test_kw_factorization_never_writes_its_input(rng, layout, kind):
    _check_input_untouched(rng, 400, layout, kind)


@pytest.mark.parametrize("layout", ["C", "F", "csc"])
@pytest.mark.parametrize("kind", [None, "identity", "sparse_sign"])
@pytest.mark.parametrize("m", [20, 18])
def test_svd_never_writes_a_square_or_short_input(rng, layout, kind, m):
    # The SVD overwrites the triangle it is given, which for a square
    # input (m = n = 20) and a short one (m = n - 2) is the input folded
    # into a zero triangle, never the input itself.
    _check_input_untouched(rng, m, layout, kind)


def _fold_path(blocks):
    """Reference s and V: every chunk of at most 1024 rows folded by
    SciPy's f2py dtpqrt into an n x n zero triangle, then NumPy's SVD,
    with s zeroed past the k rows of the input."""
    R, k = None, 0
    for block in blocks:
        block = block.toarray() if sp.issparse(block) else np.array(block)
        n = block.shape[1]
        if R is None:
            R = np.zeros((n, n))
        for start in range(0, len(block), 1024):
            R = scipy.linalg.lapack.dtpqrt(
                0, min(lsbe.core._TPQRT_NB, n), R,
                block[start:start + 1024])[0]
        k += len(block)
    _, s, Vt = np.linalg.svd(R, full_matrices=False)
    s[k:] = 0.0
    return s, Vt.T


def check_in_place_qr_bit_identical():
    rng = np.random.default_rng(0xC0FFEE)
    dense = _sketch_pair(rng, 600, 140, sparse=False)
    cases = [(dense, None),                                   # dense, C order
             (sp.csc_matrix(dense), None),                    # CSC
             (_sketch_pair(rng, 30, 50, sparse=False), None)]  # wide
    for m, n, rows in [(900, 30, 700), (1000, 300, 900)]:     # streamed
        A = _sketch_pair(rng, m, n, sparse=True)
        cases.append((A, SketchOperator(kind="gaussian", rows=rows, cols=m,
                                        seed=11)))
    for A, S in cases:
        kwf = kw_factorization(A, sketch=S)
        s, V = _fold_path([A] if S is None else S.row_blocks(A))
        assert np.array_equal(kwf.singular_values, s)
        assert np.array_equal(kwf.right_vectors, V)


def check_svd_bit_identical():
    rng = np.random.default_rng(0xDECAF)
    triangles = [np.triu(rng.standard_normal((n, n)))
                 for n in (1, 2, 3, 5, 8, 40, 120, 400)]
    # The factors of k < n rows, folded from a zero triangle (s[k:] = 0),
    # and one of the stand-in's order, 1019, with singular values over
    # three decades.
    triangles += [lsbe.core._triangular_factor([M], owned=False) for M in (
        _sketch_pair(rng, 3, 5, sparse=False),
        _sketch_pair(rng, 38, 40, sparse=False),
        _sketch_pair(rng, 1100, 1019, sparse=True))]
    for R in triangles:
        _, s_ref, Vt_ref = np.linalg.svd(R, full_matrices=False)
        s, Vt = lsbe.core._svd(np.asfortranarray(R))  # consumes R
        assert np.array_equal(s, s_ref)
        assert np.array_equal(Vt, Vt_ref)
        assert Vt.flags.c_contiguous


def _run_with_one_blas_thread(check: str) -> None:
    """Run test_core.check() in a child process pinned to one BLAS
    thread."""
    src = os.path.dirname(os.path.dirname(lsbe.core.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.path.dirname(__file__)]))
    subprocess.run([sys.executable, "-c",
                    f"import test_core; test_core.{check}()"],
                   env=env, check=True)


def test_in_place_qr_bit_identical_to_numpy_qr():
    # The QR is a fold of 1024-row chunks into a zero triangle, bit for
    # bit SciPy's f2py dtpqrt.  The reference SVD is NumPy's, and NumPy and
    # SciPy link separate OpenBLAS builds: with one BLAS thread their SVDs
    # agree bit for bit; with more they split the work differently and may
    # differ in the last bit, so the check runs in a child process pinned
    # to one thread.
    _run_with_one_blas_thread("check_in_place_qr_bit_identical")


def test_svd_bit_identical_to_numpy_svd():
    # Pinned to one BLAS thread for the same reason as the QR check.
    _run_with_one_blas_thread("check_svd_bit_identical")


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_svd_of_non_finite_input_behaves_as_numpy(rng, bad):
    # NumPy's SVD raises on a NaN and returns NaNs for an infinity.  So
    # does _svd: dgesdd flags a NaN as a bad argument (info -4).
    R = np.triu(rng.standard_normal((6, 6)))
    R[2, 4] = bad
    if np.isnan(bad):
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.svd(R, full_matrices=False)
        with pytest.raises(np.linalg.LinAlgError, match=r"info -4"):
            lsbe.core._svd(np.asfortranarray(R))
        with pytest.raises(np.linalg.LinAlgError, match=r"info -4"):
            kw_factorization(R)
    else:
        assert np.isnan(np.linalg.svd(R, full_matrices=False)[1]).any()
        assert np.isnan(lsbe.core._svd(np.asfortranarray(R))[0]).any()


def test_svd_rejects_other_layouts(rng):
    R = np.triu(rng.standard_normal((5, 5)))
    for bad in (np.ascontiguousarray(R), R.astype(np.float32, order="F"),
                np.asfortranarray(R[:4])):
        with pytest.raises(ValueError, match="Fortran-contiguous float64"):
            lsbe.core._svd(bad)


def test_kw_factorization_runs_no_numpy_svd(rng, monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("kw_factorization ran NumPy's SVD")
    monkeypatch.setattr(np.linalg, "svd", no_svd)
    for M in (rng.standard_normal((50, 8)), rng.standard_normal((3, 8))):
        kwf = kw_factorization(M)
        assert kwf.right_vectors.shape == (8, 8)


def test_svd_releases_the_interpreter_lock(rng):
    # A second Python thread keeps running while the SVD does: with the
    # lock held it would stand still for most of the call (SciPy's f2py
    # gesdd stalls it 57 of 68 ms here, this call under 5 ms).
    R = np.asfortranarray(np.triu(rng.standard_normal((500, 500))))
    stop, ticks = threading.Event(), []

    def tick():
        while not stop.is_set():
            ticks.append(time.perf_counter())
    ticker = threading.Thread(target=tick)
    ticker.start()
    try:
        time.sleep(0.01)
        start = time.perf_counter()
        lsbe.core._svd(R)
        end = time.perf_counter()
    finally:
        stop.set()
        ticker.join()
    during = [start] + [t for t in ticks if start < t < end] + [end]
    assert np.max(np.diff(during)) < (end - start) / 2, (end - start)
