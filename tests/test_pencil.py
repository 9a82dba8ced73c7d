import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsbe.errors import DimensionMismatch, NotFeasible, NotPositiveDefinite
from lsbe.pencil import (HyperbolicCS, JSignature, gram_pencil, gram_shift,
                         hyperbolic_cs, j_pencil_eig, tr_minus)

from conftest import random_orthogonal, random_orthonormal


def test_pencil_identity():
    pe = j_pencil_eig(np.eye(2), JSignature(1, 1))
    assert np.allclose(pe.lambdas, [1.0, -1.0])
    assert np.allclose(np.abs(pe.V), np.eye(2), atol=1e-14)


def test_pencil_diagonal():
    pe = j_pencil_eig(np.diag([4.0, 1.0]), JSignature(1, 1))
    assert np.allclose(pe.lambdas, [4.0, -1.0])
    assert np.allclose(np.abs(pe.V), np.eye(2), atol=1e-14)


def test_pencil_random_spd_against_nonsymmetric_oracle(rng):
    n, d = 3, 2
    B = rng.standard_normal((n + d, n + d))
    M = B.T @ B + 0.5 * np.eye(n + d)
    sig = JSignature(n, d)
    pe = j_pencil_eig(M, sig)
    J = np.diag(sig.diagonal())
    assert (np.linalg.norm(M @ pe.V - J @ pe.V @ np.diag(pe.lambdas))
            <= 1e-8 * np.linalg.norm(M))
    assert np.abs(pe.V.T @ J @ pe.V - J).max() <= 1e-8 * np.linalg.norm(M)
    # Independent oracle: dense nonsymmetric eigensolve of J M.
    oracle = np.sort(np.linalg.eigvals(J @ M).real)[::-1]
    assert np.allclose(pe.lambdas, oracle, rtol=1e-8)
    assert np.sum(pe.lambdas > 0) == n
    assert np.sum(pe.lambdas < 0) == d


def test_pencil_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        j_pencil_eig(np.diag([1.0, -1.0]), JSignature(1, 1))


def test_pencil_rejects_asymmetric():
    with pytest.raises(ValueError):
        j_pencil_eig(np.array([[1.0, 0.5], [0.0, 1.0]]), JSignature(1, 1))


def test_tr_minus_examples(rng):
    assert tr_minus(np.diag([1.0, -2.0])) == -2.0
    A = rng.standard_normal((6, 3))
    assert tr_minus(A.T @ A) == 0.0


def test_tr_minus_against_full_spectrum(rng):
    M = rng.standard_normal((7, 7))
    M = M + M.T
    w = np.linalg.eigvalsh(M)
    assert tr_minus(M) == pytest.approx(w[w < 0].sum(), rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), k=st.integers(2, 8))
def test_signed_sums_add_to_trace(seed, k):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((k, k))
    M = M + M.T
    w = np.linalg.eigvalsh(M)
    assert tr_minus(M) == pytest.approx(w[w < 0].sum(), rel=1e-12, abs=1e-12)


def test_hyperbolic_cs_scalar_example():
    s0 = 2.0
    X = np.array([[s0], [-np.sqrt(1.0 + s0 ** 2)]])
    cs = hyperbolic_cs(X, JSignature(1, 1))
    assert cs.P[0, 0] == 1.0
    assert cs.Z[0, 0] == 1.0
    assert cs.s[0] == pytest.approx(2.0, rel=1e-15)
    assert cs.c[0] == pytest.approx(np.sqrt(5.0), rel=1e-15)
    assert cs.Q[0, 0] == pytest.approx(-1.0, rel=1e-15)


def test_hyperbolic_cs_zero_upper_block(rng):
    n, d = 4, 2
    Q0 = random_orthogonal(rng, d)
    X = np.vstack([np.zeros((n, d)), Q0])
    cs = hyperbolic_cs(X, JSignature(n, d))
    assert np.allclose(cs.s, 0.0)
    assert np.allclose(cs.c, 1.0)
    assert np.allclose(cs.Q @ cs.Z.T, Q0, atol=1e-14)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), d=st.integers(1, 3))
def test_hyperbolic_cs_roundtrip(seed, d):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(d, 9))
    P = random_orthonormal(rng, n, d)
    Q = random_orthogonal(rng, d)
    Z = random_orthogonal(rng, d)
    s = np.abs(rng.standard_normal(d)) * 3.0
    c = np.sqrt(1.0 + s * s)
    X = np.vstack([P * s, Q * c]) @ Z.T
    cs = hyperbolic_cs(X, JSignature(n, d))
    assert isinstance(cs, HyperbolicCS)
    rec = cs.reconstruct()
    assert np.linalg.norm(rec - X) <= 1e-10 * np.linalg.norm(X)
    # c is defined from s, so the hyperbolic identity holds to rounding.
    assert np.max(np.abs(cs.c ** 2 - cs.s ** 2 - 1.0) / (1 + cs.s ** 2)) \
        <= 8e-16
    assert np.max(np.abs(cs.Q.T @ cs.Q - np.eye(d))) <= 1e-9
    J = np.diag(JSignature(n, d).diagonal())
    assert np.max(np.abs(rec.T @ J @ rec + np.eye(d))) <= 1e-9 * (
        1.0 + np.max(cs.s) ** 2)


def test_hyperbolic_cs_rejects_infeasible(rng):
    X = rng.standard_normal((5, 2))
    with pytest.raises(NotFeasible):
        hyperbolic_cs(X, JSignature(3, 2))


def test_hyperbolic_cs_needs_n_at_least_d():
    X = np.zeros((3, 2))
    with pytest.raises(DimensionMismatch):
        hyperbolic_cs(X, JSignature(1, 2))


def test_pencil_matches_difference_spectrum(rng):
    # The pencil eigenvalues of the Gram matrix of [A, R] against the
    # signature are the nonzero eigenvalues of A A' - R R'.
    m, n, d = 12, 3, 2
    A = rng.standard_normal((m, n))
    R = rng.standard_normal((m, d))
    T = np.hstack([A, R])
    M = T.T @ T
    pe = j_pencil_eig(0.5 * (M + M.T), JSignature(n, d))
    W = A @ A.T - R @ R.T
    w = np.linalg.eigvalsh(0.5 * (W + W.T))
    nonzero = np.sort(w[np.argsort(np.abs(w))[-(n + d):]])[::-1]
    assert np.allclose(pe.lambdas, nonzero, rtol=1e-8, atol=1e-10)


def test_gram_pencil_full_rank_needs_no_shift(rng):
    left = rng.standard_normal((9, 3))
    right = rng.standard_normal((9, 2))
    pe, eps = gram_pencil(left, right)
    T = np.hstack([left, right])
    ref = j_pencil_eig(T.T @ T, JSignature(3, 2))
    assert eps == 0.0 and pe.sig == JSignature(3, 2)
    assert np.array_equal(pe.lambdas, ref.lambdas)


def test_gram_pencil_shifts_once_on_singular_gram(rng):
    # [left, right] has 4 columns but rank 3: the Cholesky fails, and the
    # retry uses 1e-12 times the larger squared block norm.
    left = rng.standard_normal((6, 3))
    right = left[:, :1] * 2.0
    T = np.hstack([left, right])
    with pytest.raises(NotPositiveDefinite):
        j_pencil_eig(T.T @ T, JSignature(3, 1))
    pe, eps = gram_pencil(left, right)
    scale = max(np.linalg.norm(left), np.linalg.norm(right))
    assert eps == gram_shift(left, right) == pytest.approx(1e-12 * scale ** 2)
    # A positive eps is applied outright.
    pe2, eps2 = gram_pencil(left, right, 100.0 * eps)
    assert eps2 == 100.0 * eps
    assert not np.array_equal(pe.lambdas, pe2.lambdas)
