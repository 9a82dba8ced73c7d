import math
import threading

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import aslinearoperator

import lsbe.core
from lsbe import (CountingOperator, LSProblem, MatrixOperator, compress_pair,
                  kw_factorization, mu_exact, weighted_residual)
from lsbe.errors import DimensionMismatch, RankDeficient, ShiftNotPD
from lsbe.sketch import SketchOperator, apply_sketch
from lsbe.pencil import tr_minus

from conftest import random_orthogonal


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
    assert CountingOperator is MatrixOperator
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
    (1000, 300, 900),  # n > 256: two blocks stacked before the QR
    (900, 400, 300),   # k <= n: stacked and padded, never folded
    (900, 300, 301)])  # the QR takes all k = n + 1 rows, nothing to fold
def test_kw_factorization_streamed_matches_formed(rng, sparse, m, n, rows):
    A = _sketch_pair(rng, m, n, sparse)
    S = SketchOperator(kind="gaussian", rows=rows, cols=m, seed=11)
    streamed = kw_factorization(A, sketch=S)
    formed = kw_factorization(apply_sketch(S, A))
    s, s_ref = streamed.singular_values, formed.singular_values
    np.testing.assert_allclose(s, s_ref, rtol=1e-13, atol=0)
    # Singular vectors agree up to sign, to within the backward error of
    # the factorization over the gap to the neighbouring singular values.
    V, V_ref = streamed.right_vectors, formed.right_vectors
    V = V * np.sign(np.sum(V * V_ref, axis=0))
    padded = np.concatenate([[np.inf], s_ref, [-np.inf]])
    gap = np.minimum(padded[:-2] - padded[1:-1], padded[1:-1] - padded[2:])
    with np.errstate(divide="ignore"):  # the zeros padded in when k < n
        tol = 64 * np.sqrt(n) * np.finfo(float).eps * s_ref[0] / gap
    assert np.all(np.linalg.norm(V - V_ref, axis=0) <= tol)
    if rows <= n:  # the stacked blocks are S A itself
        assert np.array_equal(s, s_ref)
        assert np.array_equal(streamed.right_vectors, V_ref)


def test_streamed_factorization_leaves_no_thread(rng, monkeypatch):
    A = _sketch_pair(rng, 600, 10, sparse=True)
    S = SketchOperator(kind="gaussian", rows=900, cols=600, seed=2)
    before = threading.active_count()

    kw_factorization(A, sketch=S)
    assert threading.active_count() == before

    # A fold that fails part way through the stream.
    def failing_tpqrt(*args, **kwargs):
        raise RuntimeError("fold failed")
    monkeypatch.setattr(lsbe.core.scipy.linalg.lapack, "dtpqrt",
                        failing_tpqrt)
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
