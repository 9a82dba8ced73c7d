import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsbe import (brute_force_max, decomposition_sum, mu_exact, mu_rank_one,
                  optimal_pq)
from lsbe import decomposition
from lsbe.decomposition import (_apply_rotation, _batch_objective,
                                _feasible_values, _givens_pairs, _line_search,
                                _oriented_pair, _witness)
from lsbe.errors import (ColumnsNotOrthonormal, DimensionMismatch,
                         NotFeasible, SizeGuard)

from conftest import random_orthonormal

pytestmark = pytest.mark.threaded_blas


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


@pytest.mark.xfail(strict=True, raises=NotFeasible,
                   reason="m < n + d: the Gram matrix of [A, R] is singular "
                          "and the CS step fails even after the shift")
def test_optimal_pq_short_pair():
    rng = np.random.default_rng(0)
    A, R = rng.standard_normal((3, 2)), rng.standard_normal((3, 2))
    assert optimal_pq(A, R).total == pytest.approx(mu_exact(A, R).mu,
                                                   rel=1e-7)


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


@pytest.mark.parametrize("n,d", [(1, 1), (4, 1), (4, 2), (2, 3), (8, 3)])
def test_feasible_values_match_decomposition_sum(rng, n, d):
    # The unchecked helper over stacks (S1, S2, n, k) and (S1, S2, d, k)
    # gives, bit for bit, what the public call gets on each slice.
    k, m = min(n, d), n + d + 4
    A, R = rng.standard_normal((m, n)), rng.standard_normal((m, d))
    P = np.linalg.qr(rng.standard_normal((3, 4, n, k)))[0]
    Q = np.linalg.qr(rng.standard_normal((3, 4, d, k)))[0]
    got = _feasible_values(A, R, P, Q)
    assert got.shape == (3, 4)
    assert np.array_equal(got, [[decomposition_sum(A, R, p, q)
                                 for p, q in zip(ps, qs)]
                                for ps, qs in zip(P, Q)])
    # A witness of the same (P, Q) sums its squares the same way.
    assert _witness(A, R, P[1, 2], Q[1, 2], False).total == got[1, 2]


def _mp_objective(LP, RQ):
    """sum_i mu^2(LP[:, i], RQ[:, i]) to 50 digits on the stored data."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        total = mpmath.mpf(0)
        for a, r in zip(LP.T, RQ.T):
            am = [mpmath.mpf(float(v)) for v in a]
            rm = [mpmath.mpf(float(v)) for v in r]
            dot = mpmath.fsum(x * y for x, y in zip(am, rm))
            plus = mpmath.fsum((x + y) ** 2 for x, y in zip(am, rm))
            minus = mpmath.fsum((x - y) ** 2 for x, y in zip(am, rm))
            total += (2 * abs(dot) / (mpmath.sqrt(plus)
                                      + mpmath.sqrt(minus))) ** 2
        return total


def test_batch_objective_matches_extended_precision(rng):
    # r = a (1 + 1e-9) + 1e-7 q: ||a - r|| is about 1e-7 ||a||, and forming
    # ||a||^2 - 2 a'r + ||r||^2 instead would lose about 9 digits to it.
    T, m, k = 8, 9, 2
    LP = rng.standard_normal((T, m, k))
    RQ = LP * (1.0 + 1e-9) + 1e-7 * rng.standard_normal((T, m, k))
    for val, lp, rq in zip(_batch_objective(LP, RQ), LP, RQ):
        ref = _mp_objective(lp, rq)
        assert abs(val - ref) <= 1e-15 * ref, (val, float(ref))


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


def test_brute_force_max_checks_its_counts():
    A, R = np.ones((4, 2)), np.ones((4, 1))
    for trials in (0, -1, 1.5, "3"):
        with pytest.raises(ValueError, match="trials"):
            brute_force_max(A, R, trials=trials)
    for steps in (-1, 2.0):
        with pytest.raises(ValueError, match="polish_steps"):
            brute_force_max(A, R, polish_steps=steps)
    assert brute_force_max(A, R, trials=np.int64(1),
                           polish_steps=0).total >= 0.0


def test_decomposition_sum_checks_shapes(rng):
    A = rng.standard_normal((8, 3))
    R = rng.standard_normal((8, 2))
    shapes = [((3, 1), (2, 2)),   # k differs: Q's second column was dropped
              ((3, 2), (2, 1)),   # k differs: was a bare IndexError
              ((2, 1), (2, 1)),   # P has the wrong row count
              ((3, 1), (3, 1)),   # Q has the wrong row count
              ((3, 3), (2, 3))]   # k > min(n, d)
    for p_shape, q_shape in shapes:
        with pytest.raises(DimensionMismatch):
            decomposition_sum(A, R, random_orthonormal(rng, *p_shape),
                              np.eye(*q_shape))


def test_decomposition_rejects_non_finite_input(rng):
    A = rng.standard_normal((8, 3))
    R = rng.standard_normal((8, 2))
    P, Q = random_orthonormal(rng, 3, 2), random_orthonormal(rng, 2, 2)
    bad_A, bad_R = A.copy(), R.copy()
    bad_A[2, 1] = np.nan
    bad_R[0, 0] = np.inf
    with pytest.raises(ValueError, match="A contains non-finite"):
        decomposition_sum(bad_A, R, P, Q)
    with pytest.raises(ValueError, match="Rtheta contains non-finite"):
        decomposition_sum(A, bad_R, P, Q)
    with pytest.raises(ValueError, match="A contains non-finite"):
        optimal_pq(bad_A, R)
    with pytest.raises(ValueError, match="Rtheta contains non-finite"):
        brute_force_max(A[:, :2], bad_R, trials=2, polish_steps=1)
    with pytest.raises(ValueError, match="A contains non-finite"):
        brute_force_max(bad_A[:, :2], R, trials=2, polish_steps=1)
    nan_P = P.copy()
    nan_P[1, 0] = np.nan
    with pytest.raises(ColumnsNotOrthonormal):
        decomposition_sum(A, R, nan_P, Q)


# The per-trial search brute_force_max ran before it searched all trials as
# one batch, kept as the reference the batched search must reproduce.

def _ref_rotate_rows(M, i, j, angles):
    T = angles.shape[0]
    out = np.broadcast_to(M, (T,) + M.shape).copy()
    ct, st = np.cos(angles), np.sin(angles)
    ri, rj = M[i], M[j]
    out[:, i, :] = ct[:, None] * ri + st[:, None] * rj
    out[:, j, :] = -st[:, None] * ri + ct[:, None] * rj
    return out


def _ref_line_search(TA, TR, P, Q, side, i, j):
    lo, hi = -np.pi / 2.0, np.pi / 2.0
    best_t, best_val = 0.0, -np.inf
    if side == "P":
        fixed = np.ascontiguousarray(TR @ Q)
    else:
        fixed = np.ascontiguousarray(TA @ P)
    for _ in range(4):
        grid = np.linspace(lo, hi, 25)
        fixed_b = np.broadcast_to(fixed, (grid.size,) + fixed.shape)
        if side == "P":
            moving = np.einsum("mn,tnk->tmk", TA,
                               _ref_rotate_rows(P, i, j, grid))
            vals = _batch_objective(moving, fixed_b)
        else:
            moving = np.einsum("mn,tnk->tmk", TR,
                               _ref_rotate_rows(Q, i, j, grid))
            vals = _batch_objective(fixed_b, moving)
        idx = int(np.argmax(vals))
        if vals[idx] > best_val:
            best_val, best_t = float(vals[idx]), float(grid[idx])
        width = (hi - lo) / 8.0
        lo, hi = best_t - width, best_t + width
    return best_t, best_val


def _ref_apply_rotation(M, i, j, t):
    out = M.copy()
    ct, st = math.cos(t), math.sin(t)
    out[i], out[j] = ct * M[i] + st * M[j], -st * M[i] + ct * M[j]
    return out


def _ref_brute_force_max(A, Rtheta, trials, polish_steps, seed):
    TA, TR, swapped = _oriented_pair(A, Rtheta)
    n, d = TA.shape[1], TR.shape[1]
    k = min(n, d)
    best = None
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        P, _ = np.linalg.qr(rng.standard_normal((n, k)))
        Q, _ = np.linalg.qr(rng.standard_normal((d, k)))
        val = _batch_objective((TA @ P)[None], (TR @ Q)[None])[0]
        for _ in range(polish_steps):
            improved = False
            for (i, j) in _givens_pairs(n):
                t, v = _ref_line_search(TA, TR, P, Q, "P", i, j)
                if v > val + 1e-13:
                    P = _ref_apply_rotation(P, i, j, t)
                    val, improved = v, True
            for (i, j) in _givens_pairs(d):
                t, v = _ref_line_search(TA, TR, P, Q, "Q", i, j)
                if v > val + 1e-13:
                    Q = _ref_apply_rotation(Q, i, j, t)
                    val, improved = v, True
            if not improved:
                break
        if best is None or val > best[0]:
            best = (val, P, Q)
    _, P, Q = best
    return _witness(TA, TR, P, Q, swapped)


@pytest.mark.parametrize("n,d", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1),
                                 (3, 2)])
def test_brute_force_matches_per_trial_loop(n, d):
    # (1, 2) runs swapped.  m = 1 and m = n + d + 1 leave the pair as it
    # is, m = 9 compresses it; at m = 1 the objective is flat over a whole
    # arc, so ties decide the grid argmax and the final pick.
    rng = np.random.default_rng([0xB47C, n, d])
    for m in (1, n + d + 1, 9):
        A, R = rng.standard_normal((m, n)), rng.standard_normal((m, d))
        for trials in (1, 40):
            for steps in (0, 12):
                seed = int(rng.integers(0, 2 ** 31))
                got = brute_force_max(A, R, trials, steps, seed)
                ref = _ref_brute_force_max(A, R, trials, steps, seed)
                assert got.swapped == ref.swapped == (n < d)
                assert np.array_equal(got.P, ref.P)
                assert np.array_equal(got.Q, ref.Q)
                assert got.total == ref.total


@pytest.mark.parametrize("n,d", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_line_search_matches_per_trial(n, d):
    # Every angle, value and rotated column set, bit for bit: the witness
    # comparison above only sees a last-bit change where it flips a choice.
    rng = np.random.default_rng([0x15, n, d])
    k, T = min(n, d), 9
    for m in (1, n + d, 12):
        TA, TR, _ = _oriented_pair(rng.standard_normal((m, n)),
                                   rng.standard_normal((m, d)))
        P = np.linalg.qr(rng.standard_normal((T, n, k)))[0]
        Q = np.linalg.qr(rng.standard_normal((T, d, k)))[0]
        assert np.array_equal(
            _batch_objective(TA @ P, TR @ Q),
            [_batch_objective((TA @ p)[None], (TR @ q)[None])[0]
             for p, q in zip(P, Q)])
        for side, M, dim in (("P", P, n), ("Q", Q, d)):
            for (i, j) in _givens_pairs(dim):
                t, v = _line_search(TA, TR, P, Q, side, i, j)
                ref = [_ref_line_search(TA, TR, p, q, side, i, j)
                       for p, q in zip(P, Q)]
                assert np.array_equal(t, [rt for rt, _ in ref])
                assert np.array_equal(v, [rv for _, rv in ref])
                assert np.array_equal(
                    _apply_rotation(M, i, j, t),
                    [_ref_apply_rotation(x, i, j, rt)
                     for x, rt in zip(M, t)])


def test_brute_force_blocks_pick_the_first_best_trial(monkeypatch):
    # Trials searched in blocks of 7 (the last one short) give the one-batch
    # result.  With Rtheta = 0 every trial ties at 0, so the first must win.
    rng = np.random.default_rng(0xB10C)
    A = rng.standard_normal((6, 3))
    for R in (rng.standard_normal((6, 1)), np.zeros((6, 1))):
        whole = brute_force_max(A, R, 40, 12, seed=5)
        monkeypatch.setattr(decomposition, "_BATCH", 7)
        blocked = brute_force_max(A, R, 40, 12, seed=5)
        monkeypatch.undo()
        assert np.array_equal(blocked.P, whole.P)
        assert np.array_equal(blocked.Q, whole.Q)
        assert blocked.total == whole.total
