import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from lsbe import (RecycledDirection, kw, kw_factorization, kw_multi,
                  lb_direction, lb_refine, mu_exact, mu_rank_one, pair_basis,
                  sketched_kw, ub_deflation, ub_generous)
from lsbe.core import MatrixOperator
from lsbe.errors import ShiftNotPD, ZeroDeflator
from lsbe.sketch import SketchOperator, apply_sketch, measure_distortion
from lsbe.solver import CountingOperator, estimate_bounds

from conftest import random_orthogonal, random_orthonormal

SQRT2 = math.sqrt(2.0)


# --- rank-one closed form ---------------------------------------------------

def test_rank_one_ones():
    assert mu_rank_one([1.0], [1.0]) == 1.0


def test_rank_one_orthogonal():
    assert mu_rank_one([1.0, 0.0], [0.0, 2.0]) == 0.0


def test_rank_one_golden():
    val = mu_rank_one([1.0, 0.0], [1.0, 1.0])
    assert val == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0, rel=1e-14)
    ref = mu_exact(np.array([[1.0], [0.0]]), np.array([[1.0], [1.0]])).mu
    assert val == pytest.approx(ref, rel=1e-12)


def test_rank_one_both_zero():
    # mu(a, r) <= min(||a||, ||r||), so 0 is the limit at a = r = 0.
    assert mu_rank_one([0.0, 0.0], [0.0, 0.0]) == 0.0


def test_rank_one_single_zero_is_fine():
    assert mu_rank_one([0.0, 0.0], [1.0, 2.0]) == 0.0


# --- regularized-norm estimate ----------------------------------------------

def test_kw_zero_when_atr_zero():
    A = np.array([[1.0], [0.0]])
    r = np.array([0.0, 1.0])
    assert kw(A, r) == 0.0


def test_kw_ones_and_saturation():
    A, r = np.array([[1.0]]), np.array([1.0])
    nu = kw(A, r)
    assert nu == pytest.approx(1.0 / SQRT2, rel=1e-14)
    ratio = mu_exact(A, r[:, None]).mu / nu
    assert abs(ratio - SQRT2) <= 1e-12


def test_kw_ratio_window(rng):
    A = rng.standard_normal((15, 4))
    r = rng.standard_normal(15)
    ratio = mu_exact(A, r[:, None]).mu / kw(A, r)
    assert 1.0 - 1e-10 <= ratio <= SQRT2 + 1e-10


def test_kw_compressed_equals_uncompressed(rng):
    A = rng.standard_normal((30, 4))  # m > n: factored through its R
    r = rng.standard_normal(30)
    direct = np.linalg.norm(np.linalg.solve(
        np.linalg.cholesky(A.T @ A + (r @ r) * np.eye(4)), A.T @ r))
    assert kw(A, r) == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("k", [60, 9, 8, 5])
@pytest.mark.parametrize("sparse", [False, True])
def test_kw_factorization_matches_uncompressed_svd(rng, k, sparse):
    # Tall (QR-compressed), one extra row, square and wide (zero-padded)
    # inputs with distinct singular values give the singular values and
    # right vectors of the direct SVD of M.
    n = 8
    r = min(k, n)
    s_true = np.linspace(2.0, 0.5, r)
    M = (random_orthonormal(rng, k, r) * s_true) @ random_orthonormal(
        rng, n, r).T
    _, s_ref, Vt_ref = np.linalg.svd(M, full_matrices=False)
    kwf = kw_factorization(sp.csc_matrix(M) if sparse else M)
    s, V = kwf.singular_values, kwf.right_vectors
    assert s.shape == (n,) and V.shape == (n, n)
    assert np.allclose(s[:r], s_ref[:r], rtol=1e-13, atol=0)
    assert np.all(s[r:] == 0.0)
    V_ref = Vt_ref[:r].T
    signs = np.sign(np.sum(V[:, :r] * V_ref, axis=0))
    assert np.allclose(V[:, :r] * signs, V_ref, rtol=0, atol=1e-12)
    assert np.allclose(V.T @ V, np.eye(n), rtol=0, atol=1e-13)


def test_kw_multi_reduces_to_kw(rng):
    A = rng.standard_normal((10, 3))
    r = rng.standard_normal(10)
    assert kw_multi(A, r[:, None]) == pytest.approx(kw(A, r), rel=1e-14)


def test_kw_multi_zero_column(rng):
    A = rng.standard_normal((10, 3))
    r = rng.standard_normal(10)
    R = np.column_stack([r, np.zeros(10)])
    assert kw_multi(A, R) == pytest.approx(kw(A, r), rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_kw_multi_rotation_invariant(seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((12, 3))
    R = rng.standard_normal((12, 2))
    G = random_orthogonal(rng, 2)
    assert kw_multi(A, R @ G) == pytest.approx(kw_multi(A, R), rel=1e-10)


@pytest.mark.parametrize("fmt", ["csc", "csr"])
def test_kw_sparse_matches_dense(rng, fmt):
    # A'R is formed from the sparse matrix itself, so only the last bits
    # may differ from the dense evaluation.
    A = rng.standard_normal((40, 6))
    A[rng.random((40, 6)) < 0.6] = 0.0
    R = rng.standard_normal((40, 3))
    S = sp.csc_matrix(A) if fmt == "csc" else sp.csr_matrix(A)
    assert kw(S, R[:, 0]) == pytest.approx(kw(A, R[:, 0]), rel=1e-13)
    assert kw_multi(S, R) == pytest.approx(kw_multi(A, R), rel=1e-13)


# --- sketched estimate --------------------------------------------------------

def test_sketched_kw_identity_sketch_equals_kw(rng):
    A = rng.standard_normal((9, 4))
    r = rng.standard_normal(9)
    S = SketchOperator(kind="identity", rows=9, cols=9)
    kwf = kw_factorization(apply_sketch(S, A))
    val = sketched_kw(kwf, A.T @ r, float(np.linalg.norm(r)))
    assert val == pytest.approx(kw(A, r), rel=1e-12)


def test_sketched_kw_zero():
    A = np.array([[1.0], [0.0]])
    kwf = kw_factorization(A)
    assert sketched_kw(kwf, np.zeros(1), 1.0) == 0.0


def test_sketched_kw_within_distortion_window(rng):
    m, n = 200, 10
    A = rng.standard_normal((m, n))
    r = rng.standard_normal(m)
    S = SketchOperator(kind="gaussian", rows=6 * n, cols=m, seed=11)
    # Distortion measured by a dense sweep of ||SAy|| / ||Ay||.
    lo, hi = measure_distortion(S, A, trials=500, seed=3)
    eta = max(abs(lo), abs(hi))
    kwf = kw_factorization(apply_sketch(S, A))
    nu = kw(A, r)
    nu_sk = sketched_kw(kwf, A.T @ r, float(np.linalg.norm(r)))
    assert nu / (1.0 + eta) - 1e-12 <= nu_sk <= nu / (1.0 - eta) + 1e-12


# --- lower-bound pipeline -----------------------------------------------------

def _exact_kwf(A):
    return kw_factorization(A)


def test_lb_direction_zero_input(rng):
    A = rng.standard_normal((6, 3))
    p = lb_direction(_exact_kwf(A), np.zeros(3), 1.0)
    assert np.all(p == 0.0)


def test_lb_direction_is_kw_maximizer(rng):
    A = rng.standard_normal((8, 3))
    r = rng.standard_normal(8)
    r2 = float(r @ r)
    p = lb_direction(_exact_kwf(A), A.T @ r, math.sqrt(r2), 0.0)
    direct = np.linalg.solve(A.T @ A + r2 * np.eye(3), A.T @ r)
    assert np.allclose(p, direct, rtol=1e-10, atol=1e-13)


def test_lb_direction_attains_mu_with_exact_shift(rng):
    A = rng.standard_normal((10, 4))
    r = rng.standard_normal(10)
    mu = mu_exact(A, r[:, None]).mu
    p = lb_direction(_exact_kwf(A), A.T @ r, float(np.linalg.norm(r)),
                     mu_est=mu)
    p /= np.linalg.norm(p)
    assert mu_rank_one(A @ p, r) == pytest.approx(mu, rel=1e-8)


def test_lb_direction_shift_guard(rng):
    A = rng.standard_normal((6, 2))
    r = rng.standard_normal(6)
    huge = 10.0 * (np.linalg.norm(r) + np.linalg.norm(A))
    with pytest.raises(ShiftNotPD):
        lb_direction(_exact_kwf(A), A.T @ r, float(np.linalg.norm(r)),
                     mu_est=huge)


def test_kw_factorization_solve_matches_dense(rng):
    M = rng.standard_normal((9, 4))
    rhs = rng.standard_normal(4)
    kwf = kw_factorization(M)
    smin2 = float(kwf.singular_values[-1] ** 2)
    for shift in (1.0, 0.0, -0.5 * smin2):
        ref = np.linalg.solve(M.T @ M + shift * np.eye(4), rhs)
        assert np.allclose(kwf.solve(rhs, shift), ref, rtol=1e-10)
    with pytest.raises(ShiftNotPD):
        kwf.solve(rhs, -smin2)


def test_lb_evaluate_orthogonal_is_zero():
    assert mu_rank_one(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0


def test_lb_evaluate_soundness_sweep(rng):
    A = rng.standard_normal((20, 5))
    r = rng.standard_normal(20)
    mu = mu_exact(A, r[:, None]).mu
    for _ in range(1000):
        p = rng.standard_normal(5)
        p /= np.linalg.norm(p)
        assert mu_rank_one(A @ p, r) <= mu + 1e-12


def test_lb_refine_identity_sketch_is_fixed_point(rng):
    # With the exact factorization the first solve is already exact, so a
    # refinement step returns the same direction.
    A = rng.standard_normal((9, 3))
    r = rng.standard_normal(9)
    kwf = _exact_kwf(A)
    norm_r = float(np.linalg.norm(r))
    p = lb_direction(kwf, A.T @ r, norm_r, 0.0)
    p2 = lb_refine(p, kwf, MatrixOperator(A), r, norm_r, 0.0)
    assert np.allclose(p2, p, rtol=1e-10, atol=1e-14)


def test_lb_refine_zero_correction_at_true_solution(rng):
    # Feed the exact solution of the true shifted system: the correction
    # vanishes even under a sketched factorization.
    A = rng.standard_normal((30, 4))
    r = rng.standard_normal(30)
    norm_r = float(np.linalg.norm(r))
    p_true = np.linalg.solve(A.T @ A + norm_r ** 2 * np.eye(4), A.T @ r)
    S = SketchOperator(kind="gaussian", rows=24, cols=30, seed=5)
    kwf = kw_factorization(apply_sketch(S, A))
    p2 = lb_refine(p_true, kwf, MatrixOperator(A), r, norm_r, 0.0)
    assert np.allclose(p2, p_true, rtol=1e-9, atol=1e-12)


def test_lb_refine_statistical_improvement():
    # Generous sketch: refinement should not degrade the bound on most
    # draws, and not in the median.
    m, n = 300, 20
    improved = 0
    diffs = []
    trials = 200
    for t in range(trials):
        rng = np.random.default_rng([77, t])
        A = rng.standard_normal((m, n))
        r = rng.standard_normal(m)
        norm_r = float(np.linalg.norm(r))
        S = SketchOperator(kind="gaussian", rows=16 * n, cols=m, seed=t)
        kwf = kw_factorization(apply_sketch(S, A))
        p0 = lb_direction(kwf, A.T @ r, norm_r, 0.0)
        lb0 = mu_rank_one(A @ (p0 / np.linalg.norm(p0)), r)
        p1 = lb_refine(p0, kwf, MatrixOperator(A), r, norm_r, 0.0)
        lb1 = mu_rank_one(A @ (p1 / np.linalg.norm(p1)), r)
        diffs.append(lb1 - lb0)
        if lb1 >= lb0 - 1e-14:
            improved += 1
    assert improved >= 0.9 * trials
    assert np.median(diffs) >= -1e-14


def test_lb_recycled_matches_fresh_bitwise(rng):
    # The recycled bound is the rank-one value on the stored Ap, so a
    # direction recycled from this residual reproduces the fresh bound.
    A = rng.standard_normal((12, 4))
    r = rng.standard_normal(12)
    ops = CountingOperator(A)
    kwf = kw_factorization(A)
    args = (ops, kwf, r, float(np.linalg.norm(r)), A.T @ r)
    values, fresh = estimate_bounds(*args)
    assert values["lb_recycled"] == values["lb_fresh"]
    again, _ = estimate_bounds(*args, direction=fresh)
    assert again["lb_recycled"] == mu_rank_one(fresh.Ap, r) == \
        values["lb_fresh"]


def test_lb_recycled_orthogonal_zero(rng):
    p = np.array([1.0, 0.0])
    direction = RecycledDirection(p=p, Ap=np.array([1.0, 0.0, 0.0]))
    assert mu_rank_one(direction.Ap, np.array([0.0, 1.0, 0.0])) == 0.0


def test_lb_recycled_stays_below_mu_along_residual_path(rng):
    A = rng.standard_normal((40, 6))
    p = rng.standard_normal(6)
    p /= np.linalg.norm(p)
    direction = RecycledDirection(p=p, Ap=A @ p)
    for _ in range(50):
        r = rng.standard_normal(40)
        assert (mu_rank_one(direction.Ap, r)
                <= mu_exact(A, r[:, None]).mu + 1e-12)


def test_recycled_direction_must_be_unit():
    with pytest.raises(ValueError):
        RecycledDirection(p=np.array([2.0, 0.0]), Ap=np.zeros(3))


# --- upper bounds ---------------------------------------------------------

def test_ub_deflation_zero_residual(rng):
    A = rng.standard_normal((7, 3))
    p = rng.standard_normal(3)
    p /= np.linalg.norm(p)
    Ap = A @ p
    r = np.zeros(7)
    val = ub_deflation(Ap - r, r, A.T @ Ap)
    assert val >= 0.0
    assert val == pytest.approx(np.linalg.norm(A.T @ Ap)
                                / np.linalg.norm(Ap), rel=1e-12)


def test_ub_deflation_exact_eigenvector_attains(rng):
    # Deflating along the true negative eigenvector of A A' - r r' attains
    # mu exactly on a 2 x 1 toy.
    A = np.array([[0.3], [0.1]])
    r = np.array([1.0, 0.7])
    W = A @ A.T - np.outer(r, r)
    w, V = np.linalg.eigh(0.5 * (W + W.T))
    assert w[0] < 0
    u = V[:, 0]
    val = ub_deflation(u, r, A.T @ u)
    assert val == pytest.approx(mu_exact(A, r[:, None]).mu, rel=1e-10)


def test_ub_deflation_zero_deflator(rng):
    r = rng.standard_normal(5)
    with pytest.raises(ZeroDeflator):
        ub_deflation(r - r, r, np.zeros(2))


def test_ub_deflation_soundness_sweep(rng):
    A = rng.standard_normal((15, 4))
    r = rng.standard_normal(15)
    mu = mu_exact(A, r[:, None]).mu
    for _ in range(1000):
        p = rng.standard_normal(4)
        p /= np.linalg.norm(p)
        Ap = A @ p
        u = Ap - r
        if np.linalg.norm(u) == 0.0:
            continue
        assert ub_deflation(u, r, A.T @ u) >= mu - 1e-12


def test_ub_generous_rank_one_basis(rng):
    # [Ap, r] collinear: the basis degenerates to one column and the bound
    # is a single-row exact backward error.
    A = rng.standard_normal((8, 3))
    p = rng.standard_normal(3)
    p /= np.linalg.norm(p)
    Ap = A @ p
    r = 2.0 * Ap
    U = pair_basis(Ap, r)
    assert U.shape == (8, 1)
    val = ub_generous((A.T @ U[:, 0])[None, :], U.T @ r)
    assert val >= mu_exact(A, r[:, None]).mu - 1e-12


def test_ub_generous_near_optimal_direction(rng):
    # With the optimal direction, span{Ap, r} contains the dominant
    # negative eigenvector, so the generous bound attains mu.
    A = rng.standard_normal((9, 3))
    r = 2.0 * rng.standard_normal(9)
    mu = mu_exact(A, r[:, None]).mu
    p = lb_direction(_exact_kwf(A), A.T @ r, float(np.linalg.norm(r)),
                     mu_est=mu)
    p /= np.linalg.norm(p)
    Ap = A @ p
    U = pair_basis(Ap, r)
    rows_UA = np.stack([A.T @ U[:, i] for i in range(U.shape[1])])
    assert ub_generous(rows_UA, U.T @ r) == pytest.approx(mu, rel=1e-8)


def test_upper_bound_ordering_sweep(rng):
    A = rng.standard_normal((50, 6))
    r = rng.standard_normal(50)
    mu = mu_exact(A, r[:, None]).mu
    for _ in range(200):
        p = rng.standard_normal(6)
        p /= np.linalg.norm(p)
        Ap = A @ p
        u = Ap - r
        ubd = ub_deflation(u, r, A.T @ u)
        U = pair_basis(Ap, r)
        rows_UA = np.stack([A.T @ U[:, i] for i in range(U.shape[1])])
        ubg = ub_generous(rows_UA, U.T @ r)
        assert ubg <= ubd + 1e-12
        assert ubg >= mu - 1e-12
        assert ubd >= mu - 1e-12


# --- sketch-quality guarantee ---------------------------------------------

def test_sketched_lower_bound_guarantee_synthetic(rng):
    for eta in (0.1, 0.3, 0.5):
        for trial in range(20):
            m = int(rng.integers(8, 30))
            n = int(rng.integers(2, 7))
            A = rng.standard_normal((m, n))
            r = rng.standard_normal(m)
            U, _ = np.linalg.qr(A)
            S = SketchOperator(kind="synthetic_eta", rows=m, cols=m,
                               seed=trial, eta=eta, subspace=U[:, :2])
            kwf = kw_factorization(apply_sketch(S, A))
            p = lb_direction(kwf, A.T @ r, float(np.linalg.norm(r)), 0.0)
            np_t = np.linalg.norm(p)
            if np_t == 0.0:
                continue
            lb = mu_rank_one(A @ (p / np_t), r)
            bound = (1.0 - eta ** 2) / (1.0 + eta ** 2) * kw(A, r)
            assert lb >= bound - 1e-10
