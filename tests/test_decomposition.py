import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsbe import (brute_force_max, decomposition_sum, mu_exact, mu_rank_one,
                  optimal_pq)
from lsbe.errors import ColumnsNotOrthonormal, SizeGuard

from conftest import random_orthonormal


def test_optimal_pq_ones():
    wit = optimal_pq(np.array([[1.0]]), np.array([[1.0]]))
    assert abs(abs(wit.P[0, 0]) - 1.0) <= 1e-9
    assert abs(abs(wit.Q[0, 0]) - 1.0) <= 1e-9
    assert wit.total == pytest.approx(1.0, abs=1e-6)


def test_optimal_pq_zero_residual(rng):
    A = rng.standard_normal((8, 3))
    wit = optimal_pq(A, np.zeros((8, 2)))
    assert wit.total == 0.0
    assert wit.P.shape == (3, 2)
    assert wit.Q.shape == (2, 2)


def test_optimal_pq_attains_mu(rng):
    A = rng.standard_normal((10, 3))
    R = rng.standard_normal((10, 2))
    mu = mu_exact(A, R).mu
    wit = optimal_pq(A, R)
    assert wit.total == pytest.approx(mu, rel=1e-7)


def test_optimal_pq_swaps_orientation(rng):
    A = rng.standard_normal((12, 2))
    R = rng.standard_normal((12, 4))
    wit = optimal_pq(A, R)
    assert wit.swapped
    assert wit.P.shape == (2, 2)
    assert wit.Q.shape == (4, 2)
    assert wit.total == pytest.approx(mu_exact(A, R).mu, rel=1e-7)
    # The reported (P, Q) must reproduce the total through the public
    # functional.
    assert decomposition_sum(A, R, wit.P, wit.Q) == pytest.approx(
        wit.total, rel=1e-10)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_optimal_pq_symmetric(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(6, 20))
    n = int(rng.integers(1, 4))
    d = int(rng.integers(1, 4))
    if m <= n + d:
        m = n + d + 2
    A = rng.standard_normal((m, n))
    R = rng.standard_normal((m, d))
    t1 = optimal_pq(A, R).total
    t2 = optimal_pq(R, A).total
    assert t1 == pytest.approx(t2, rel=1e-8, abs=1e-10)


def test_unbounded_feasible_set_still_attained():
    # For the all-ones pair the eigenvector feasible set escapes to
    # infinity, but the witness construction succeeds after the shift and
    # recovers the exact value.
    wit = optimal_pq(np.array([[1.0]]), np.array([[1.0]]))
    assert wit.regularization_eps > 0.0
    assert wit.total == pytest.approx(1.0, abs=1e-6)


def test_decomposition_sum_from_witness(rng):
    A = rng.standard_normal((9, 3))
    R = rng.standard_normal((9, 2))
    wit = optimal_pq(A, R)
    val = decomposition_sum(A, R, wit.P, wit.Q)
    assert val == pytest.approx(mu_exact(A, R).mu, rel=1e-7)


def test_decomposition_sum_soundness_sweep(rng):
    A = rng.standard_normal((11, 4))
    R = rng.standard_normal((11, 2))
    mu = mu_exact(A, R).mu
    for _ in range(1000):
        P = random_orthonormal(rng, 4, 2)
        Q = random_orthonormal(rng, 2, 2)
        assert decomposition_sum(A, R, P, Q) <= mu + 1e-10


def test_decomposition_sum_k1_reduces_to_lb(rng):
    A = rng.standard_normal((10, 4))
    r = rng.standard_normal(10)
    p = rng.standard_normal(4)
    p /= np.linalg.norm(p)
    for q in (np.array([1.0]), np.array([-1.0])):
        val = decomposition_sum(A, r[:, None], p[:, None], q[:, None])
        assert val == pytest.approx(mu_rank_one(A @ p, r), rel=1e-14)


def test_decomposition_sum_rejects_bad_columns(rng):
    A = rng.standard_normal((8, 3))
    R = rng.standard_normal((8, 2))
    P = rng.standard_normal((3, 2))
    Q = random_orthonormal(rng, 2, 2)
    with pytest.raises(ColumnsNotOrthonormal):
        decomposition_sum(A, R, P, Q)


def test_brute_force_scalar_signs():
    wit = brute_force_max(np.array([[2.0]]), np.array([[3.0]]), trials=4,
                          polish_steps=2)
    ref = mu_exact(np.array([[2.0]]), np.array([[3.0]])).mu
    assert wit.total == pytest.approx(ref, rel=1e-12)


def test_brute_force_single_rhs(rng):
    A = rng.standard_normal((4, 2))
    R = rng.standard_normal((4, 1))
    wit = brute_force_max(A, R, trials=500, polish_steps=20)
    assert wit.total == pytest.approx(mu_exact(A, R).mu, rel=1e-4)


def test_brute_force_two_rhs_agrees_with_construction(rng):
    A = rng.standard_normal((5, 2))
    R = rng.standard_normal((5, 2))
    opt = optimal_pq(A, R).total
    wit = brute_force_max(A, R, trials=500, polish_steps=50)
    assert wit.total <= opt + 1e-8
    assert wit.total >= opt - 1e-4


def test_brute_force_size_guard(rng):
    A = rng.standard_normal((10, 4))
    R = rng.standard_normal((10, 3))
    with pytest.raises(SizeGuard):
        brute_force_max(A, R)


def test_brute_force_reproducible(rng):
    A = rng.standard_normal((5, 2))
    R = rng.standard_normal((5, 1))
    w1 = brute_force_max(A, R, trials=20, polish_steps=5, seed=9)
    w2 = brute_force_max(A, R, trials=20, polish_steps=5, seed=9)
    assert w1.total == w2.total
