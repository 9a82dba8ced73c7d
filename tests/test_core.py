import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import aslinearoperator

from lsbe import (CountingOperator, LSProblem, MatrixOperator, compress_pair,
                  mu_exact, weighted_residual)
from lsbe.errors import DimensionMismatch, RankDeficient
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
