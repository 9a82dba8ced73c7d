import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import lsbe.exact
from lsbe import (kw_factorization, mu_all_methods, mu_exact, mu_fixed_point,
                  mu_gevp, mu_sigma_min)
from lsbe.errors import NoConvergence

from conftest import attainable, mp_mu

pytestmark = pytest.mark.threaded_blas


def test_mu_exact_ones():
    assert mu_exact(np.array([[1.0]]), np.array([[1.0]])).mu == 1.0


def test_mu_exact_zero_residual(rng):
    A = rng.standard_normal((7, 3))
    assert mu_exact(A, np.zeros((7, 2))).mu == 0.0


def test_mu_exact_zero_matrix(rng):
    R = rng.standard_normal((6, 2))
    assert mu_exact(np.zeros((6, 3)), R).mu == pytest.approx(0.0, abs=1e-12)


def test_mu_sigma_min_scalar():
    assert mu_sigma_min(np.array([[1.0]]), np.array([1.0])).mu == 1.0


def test_mu_sigma_min_zero_residual(rng):
    A = rng.standard_normal((5, 2))
    assert mu_sigma_min(A, np.zeros(5)).mu == 0.0


def test_mu_sigma_min_matches_eig(rng):
    A = rng.standard_normal((12, 4))
    r = rng.standard_normal(12)
    ref = mu_exact(A, r[:, None]).mu
    assert mu_sigma_min(A, r).mu == pytest.approx(ref, rel=1e-9)


def test_mu_fixed_point_orthogonal_residual(rng):
    # r orthogonal to the columns of A: the equation solves at zero.
    A = np.array([[1.0], [0.0]])
    r = np.array([0.0, 3.0])
    res = mu_fixed_point(A, r)
    assert res.mu == 0.0
    assert res.iterations == 0


def test_mu_fixed_point_ones_double_root():
    # mu^2 = 1 / (2 - mu^2) has the double root mu = 1; convergence there
    # is linear, so the accuracy is square-root limited.
    res = mu_fixed_point(np.array([[1.0]]), np.array([1.0]))
    assert res.mu == pytest.approx(1.0, rel=1e-7)
    assert res.iterations <= 200


def test_mu_fixed_point_random(rng):
    A = rng.standard_normal((20, 5))
    r = rng.standard_normal(20)
    ref = mu_exact(A, r[:, None]).mu
    res = mu_fixed_point(A, r)
    assert res.mu == pytest.approx(ref, rel=1e-10)
    assert res.iterations <= 30


def test_mu_fixed_point_accepts_cached_svd(rng):
    A = rng.standard_normal((15, 4))
    r = rng.standard_normal(15)
    res = mu_fixed_point(A, r, kwf=kw_factorization(A))
    assert res.mu == pytest.approx(mu_fixed_point(A, r).mu, rel=1e-14)


def test_mu_fixed_point_matches_extended_precision(rng):
    # r = r_perp + delta A z sweeps mu/||r|| from about 4e-1 to 2e-13.
    m, n = 10, 4
    A = rng.standard_normal((m, n)) * np.logspace(0, -1, n)
    Q, _ = np.linalg.qr(A)
    r_perp = rng.standard_normal(m)
    r_perp -= Q @ (Q.T @ r_perp)
    r_perp /= np.linalg.norm(r_perp)
    z = rng.standard_normal(n)
    ratios = []
    for delta in np.logspace(0, -13, 14):
        r = r_perp + delta * (A @ z)
        ref = mp_mu(A, r)
        mu = mu_fixed_point(A, r).mu
        assert abs(mu - ref) <= attainable(A, r, ref), (delta, mu, ref)
        ratios.append(ref / np.linalg.norm(r))
    assert max(ratios) >= 1e-1 and min(ratios) <= 1e-12


@pytest.mark.parametrize("sparse", [False, True])
@pytest.mark.parametrize("m,n,rank", [(6, 10, 6), (8, 12, 5), (20, 6, 3)])
def test_mu_fixed_point_wide_and_rank_deficient(rng, m, n, rank, sparse):
    A = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
    U = np.linalg.svd(A)[0]
    r_perp = U[:, rank:] @ rng.standard_normal(m - rank)
    z = rng.standard_normal(n)
    As = sp.csr_matrix(A) if sparse else A
    for delta in (1.0, 1e-3, 1e-6):
        r = (r_perp + delta * (A @ z)) if m > rank else delta * (A @ z)
        ref = mu_sigma_min(A, r).mu
        mu = mu_fixed_point(As, r).mu
        assert abs(mu - ref) <= attainable(A, r, ref), (delta, mu, ref)



def test_mu_fixed_point_raises_when_iterations_run_out():
    # This pair needs 3 Newton iterations.
    rng = np.random.default_rng(0)
    A, r = rng.standard_normal((40, 5)), rng.standard_normal(40)
    with pytest.raises(NoConvergence, match="did not converge in 1 "):
        mu_fixed_point(A, r, max_iters=1)


def test_mu_gevp_ones_regularized():
    # [A, r] is rank one, so this path exercises the diagonal Gram shift;
    # the induced error is of the order of the square root of the shift.
    res = mu_gevp(np.array([[1.0]]), np.array([1.0]))
    assert res.regularization_eps > 0.0
    assert res.mu == pytest.approx(1.0, rel=1e-4)


def test_mu_gevp_zero_residual(rng):
    A = rng.standard_normal((5, 2))
    assert mu_gevp(A, np.zeros(5)).mu == 0.0


def test_mu_gevp_random(rng):
    A = rng.standard_normal((10, 3))
    r = rng.standard_normal(10)
    ref = mu_exact(A, r[:, None]).mu
    assert mu_gevp(A, r).mu == pytest.approx(ref, rel=1e-8)



@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="mu^2 = lambda_neg + ||r||^2 cancels when "
                          "mu/||r|| = 1.5e-4: mu_gevp clamps to 0")
def test_mu_gevp_small_mu_over_residual():
    # ||r|| = 3.27e3, sigma_min(A) = 4.4e-3, and mu_fixed_point and
    # mu_sigma_min agree at 0.48631296 to 1.3e-13.
    rng = np.random.default_rng(0)
    U = np.linalg.qr(rng.standard_normal((300, 30)))[0]
    V = np.linalg.qr(rng.standard_normal((30, 30)))[0]
    s = np.logspace(np.log10(7), np.log10(7 / 1600), 30)
    A = U @ np.diag(s) @ V.T
    x = 1e-3 * rng.standard_normal(30)
    b = rng.standard_normal(300)
    r = (b - A @ x) / np.linalg.norm(x)
    assert mu_gevp(A, r).mu == pytest.approx(mu_fixed_point(A, r).mu,
                                             rel=1e-6)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_mu_symmetric_in_inputs(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(3, 15))
    n = int(rng.integers(1, 5))
    d = int(rng.integers(1, 4))
    A = rng.standard_normal((m, n))
    R = rng.standard_normal((m, d))
    assert mu_exact(A, R).mu == pytest.approx(mu_exact(R, A).mu, rel=1e-10,
                                              abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_four_way_agreement(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(3, 25))
    n = int(rng.integers(1, min(m, 8)))
    A = rng.standard_normal((m, n))
    r = rng.standard_normal(m)
    mus = [v.mu for v in mu_all_methods(A, r).values()]
    assert (max(mus) - min(mus)) <= 1e-8 * max(max(mus), 1e-300)


def test_simple_upper_bounds(rng):
    for _ in range(40):
        m = int(rng.integers(2, 20))
        n = int(rng.integers(1, min(m, 6) + 1))
        A = rng.standard_normal((m, n))
        r = rng.standard_normal(m)
        mu = mu_exact(A, r[:, None]).mu
        norm_r = np.linalg.norm(r)
        basic = np.linalg.norm(A.T @ r) / norm_r
        assert mu <= min(norm_r, basic) + 1e-10


def test_mu_below_residual_norm(rng):
    A = rng.standard_normal((9, 4))
    R = rng.standard_normal((9, 3))
    assert mu_exact(A, R).mu <= np.linalg.norm(R) + 1e-12


def test_secular_rhs_monotone_convex(rng):
    # The right-hand side of the secular equation is nondecreasing and
    # convex in t on [0, ||r||^2); checked by sampling.
    A = rng.standard_normal((10, 4))
    r = rng.standard_normal(10)
    U, s, _ = np.linalg.svd(A, full_matrices=False)
    coef2 = (s * (U.T @ r)) ** 2
    poles = s ** 2 + np.linalg.norm(r) ** 2

    def g(t):
        return np.sum(coef2 / (poles - t))

    ts = np.linspace(0.0, 0.98 * np.linalg.norm(r) ** 2, 40)
    vals = np.array([g(t) for t in ts])
    diffs = np.diff(vals)
    assert np.all(diffs >= -1e-12)
    assert np.all(np.diff(diffs) >= -1e-10)


def test_negative_clamp_counter_is_tracked(rng):
    before = lsbe.exact.negative_mu_clamps
    lsbe.exact._register_clamp()
    assert lsbe.exact.negative_mu_clamps == before + 1
