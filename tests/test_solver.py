import _thread
import math
import os
import sys
import threading
import time
from dataclasses import replace
from types import SimpleNamespace
from concurrent.futures import Future, ThreadPoolExecutor, wait

import numpy as np
import pytest
import scipy.sparse as sp

import lsbe.core
import lsbe.solver
from lsbe import (MatrixOperator, SolverConfig, estimate_bounds,
                  kw_factorization, lsmr, mu_rank_one, mu_sigma_min)
from lsbe.acceptance import _bound_slack
from lsbe.core import theta_scale
from lsbe.errors import NoConvergence
from lsbe.estimates import RecycledDirection
from lsbe.fileio import read_trace_csv
from lsbe.solver import ESTIMATE_COLUMNS, TRACE_COLUMNS, _TrueMu
from lsbe.sketch import SketchOperator, apply_sketch

from conftest import EXACT_COLUMNS, assert_rows_close


def _sketch_kwf(A, factor=6, seed=0):
    m, n = A.shape
    rows = max(n, int(factor * n))
    S = SketchOperator(kind="gaussian", rows=rows, cols=m, seed=seed)
    return kw_factorization(apply_sketch(S, A))


def test_zero_rhs_returns_zero(rng):
    A = rng.standard_normal((6, 3))
    x, trace, stop = lsmr(A, np.zeros(6))
    assert stop == "converged"
    assert trace.iterations == 0
    assert np.all(x == 0.0)


def test_consistent_square_system(rng):
    n = 30
    A = rng.standard_normal((n, n)) + 5.0 * np.eye(n)
    x_star = rng.standard_normal(n)
    x, trace, stop = lsmr(A, A @ x_star,
                          SolverConfig(atol=1e-12, estimate_every=10))
    assert np.linalg.norm(x - x_star) <= 1e-8 * np.linalg.norm(x_star)


def test_least_squares_matches_dense_solver(rng):
    A = rng.standard_normal((40, 8))
    b = rng.standard_normal(40)
    x, trace, stop = lsmr(A, b, SolverConfig(atol=1e-13, estimate_every=25))
    x_ref = np.linalg.lstsq(A, b, rcond=None)[0]
    assert np.linalg.norm(x - x_ref) <= 1e-8 * np.linalg.norm(x_ref)


def test_normal_residual_estimate_monotone(rng):
    A = rng.standard_normal((60, 12))
    b = rng.standard_normal(60)
    _, trace, _ = lsmr(A, b, SolverConfig(atol=1e-13, estimate_every=50))
    est = np.array(trace.est_norm_Atr)
    assert np.all(est[1:] <= est[:-1] * (1 + 1e-10))


def _graded_matrix(rng, m, n, cond=1e6):
    U, _ = np.linalg.qr(rng.standard_normal((m, n)))
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = np.logspace(0, -math.log10(cond), n)
    return U @ np.diag(s) @ V.T


def test_recurrence_matches_explicit_refresh(rng):
    # Maintained ||r|| and ||A'r|| stay within 1e-6 of explicitly
    # recomputed values at every traced iteration.
    A = _graded_matrix(rng, 200, 30)
    b = rng.standard_normal(200)
    config = SolverConfig(atol=1e-8, estimate_every=50, max_iters=300)
    _, trace, _ = lsmr(A, b, config)
    assert trace.rows, "expected traced iterations"
    for row in trace.rows:
        est_r = trace.est_norm_r[row.iter - 1]
        est_ar = trace.est_norm_Atr[row.iter - 1]
        assert est_r == pytest.approx(row.norm_r, rel=1e-6)
        assert est_ar == pytest.approx(row.norm_Atr, rel=1e-6)


def test_frobenius_norm_recorded(rng):
    A = rng.standard_normal((12, 5))
    _, trace, _ = lsmr(A, rng.standard_normal(12),
                       SolverConfig(estimate_every=100))
    assert trace.norm_A_fro == pytest.approx(np.linalg.norm(A), rel=1e-12)
    assert trace.norm_A_fro_source == "input"


def _with_duplicates(rng, fmt):
    """A 30x5 sparse matrix storing some entries as two summands."""
    m, n = 30, 5
    rows = np.repeat(np.arange(m), n)
    cols = np.tile(np.arange(n), m)
    dup = rng.random(m * n) < 0.3
    rows = np.concatenate([rows, rows[dup]])
    cols = np.concatenate([cols, cols[dup]])
    data = rng.standard_normal(rows.size)
    if fmt == "coo":
        return sp.coo_matrix((data, (rows, cols)), shape=(m, n))
    order = np.argsort(rows, kind="stable")
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=m))])
    return sp.csr_matrix((data[order], cols[order], indptr), shape=(m, n))


@pytest.mark.parametrize("fmt", ["csr", "coo"])
def test_frobenius_norm_sums_duplicates(rng, fmt):
    A = _with_duplicates(rng, fmt)
    assert not A.has_canonical_format
    canonical = sp.csr_matrix(A.toarray())
    b = rng.standard_normal(A.shape[0])
    config = SolverConfig(atol=1e-8, estimate_every=100)
    x, trace, stop = lsmr(A, b, config)
    x_c, trace_c, stop_c = lsmr(canonical, b, config)
    assert trace.norm_A_fro == pytest.approx(np.linalg.norm(A.toarray()),
                                             rel=1e-15)
    assert trace.norm_A_fro == pytest.approx(trace_c.norm_A_fro, rel=1e-15)
    assert trace.norm_A_fro_source == "input"
    assert (stop, trace.iterations) == (stop_c, trace_c.iterations)
    np.testing.assert_allclose(x, x_c, rtol=1e-12)
    assert not A.has_canonical_format  # the caller's matrix is not touched


def test_sparse_operator_supported(rng):
    A = sp.random(50, 10, density=0.3,
                  random_state=np.random.RandomState(5), format="csr")
    b = rng.standard_normal(50)
    x, trace, stop = lsmr(A, b, SolverConfig(estimate_every=10))
    x_ref = np.linalg.lstsq(A.toarray(), b, rcond=None)[0]
    assert np.linalg.norm(x - x_ref) <= 1e-6 * max(np.linalg.norm(x_ref), 1)


def _ls_problem(rng, m=120, n=10):
    A = rng.standard_normal((m, n))
    norm_A_2 = np.linalg.norm(A, 2)
    b = (A @ rng.standard_normal(n) / math.sqrt(n)
         + 1e-4 * norm_A_2 * rng.standard_normal(m) / math.sqrt(m))
    return A, b


def test_matvec_accounting_no_refinement(rng):
    A, b = _ls_problem(rng)
    config = SolverConfig(estimate_every=1, refine_steps=0)
    _, trace, _ = lsmr(A, b, config, _sketch_kwf(A))
    # Per iteration: 1 bidiagonalization matvec + residual refresh + fresh
    # direction product; transpose side: bidiagonalization + A'r +
    # deflation vector + two basis columns.
    for prev, cur in zip(trace.rows, trace.rows[1:]):
        assert cur.matvec_count - prev.matvec_count == 3
        assert cur.rmatvec_count - prev.rmatvec_count == 5


def test_matvec_accounting_with_refinement(rng):
    A, b = _ls_problem(rng)
    config = SolverConfig(estimate_every=1, refine_steps=1)
    _, trace, _ = lsmr(A, b, config, _sketch_kwf(A))
    for prev, cur in zip(trace.rows, trace.rows[1:]):
        assert cur.matvec_count - prev.matvec_count == 5
        assert cur.rmatvec_count - prev.rmatvec_count == 6


def _bounds_args(rng, m=60, n=5):
    A = rng.standard_normal((m, n))
    r = rng.standard_normal(m)
    kwf = _sketch_kwf(A)
    return A, r, kwf, float(np.linalg.norm(r)), A.T @ r


def test_estimate_bounds_reproduces_trace_row(rng):
    # The suite run on the row's weighted residual gives the row's numbers
    # bit for bit, and spends the row's estimator products.
    A, b = _ls_problem(rng)
    config = SolverConfig(estimate_every=1, refine_steps=2, max_iters=1,
                          theta=3.0)
    x, trace, _ = lsmr(A, b, config, _sketch_kwf(A))
    row = trace.rows[-1]
    ops = MatrixOperator(A)
    r = b - ops.matvec(x)
    cth = theta_scale(3.0, float(np.linalg.norm(x)))
    At_r = ops.rmatvec(r)
    values, fresh = estimate_bounds(
        ops, _sketch_kwf(A), cth * r, cth * float(np.linalg.norm(r)),
        cth * At_r, refine_steps=2)
    assert set(values) == set(ESTIMATE_COLUMNS)
    for name in ESTIMATE_COLUMNS:
        assert values[name] == getattr(row, name), name
    assert fresh.mu_est_used == 0.0
    # Beyond the refresh: a matvec and an rmatvec per refinement step, a
    # matvec each for the fresh and refined directions, and rmatvecs for
    # the deflation vector and the two basis columns.
    assert (ops.matvecs - 1, ops.rmatvecs - 1) == (4, 5)


def test_estimate_bounds_resets_mu_est_above_sketch_limit(rng):
    A, r, kwf, norm_r, At_r = _bounds_args(rng)
    base, fresh0 = estimate_bounds(MatrixOperator(A), kwf, r, norm_r, At_r)
    huge = 10.0 * (norm_r + float(kwf.singular_values[0]))
    values, fresh = estimate_bounds(MatrixOperator(A), kwf, r, norm_r,
                                    At_r, mu_est=huge)
    assert fresh.mu_est_used == 0.0
    np.testing.assert_equal(values, base)
    assert np.array_equal(fresh.Ap, fresh0.Ap)


def test_estimate_bounds_zero_direction(rng):
    # A'r = 0: no direction, no products; the recycled bound still uses
    # the direction it is given, and passes it on to the next row.
    A, r, kwf, norm_r, _ = _bounds_args(rng)
    ops = MatrixOperator(A)
    values, fresh = estimate_bounds(ops, kwf, r, norm_r, np.zeros(5))
    assert fresh is None and (ops.matvecs, ops.rmatvecs) == (0, 0)
    assert values["nu_sketched"] == values["lb_fresh"] == 0.0
    assert values["lb_recycled"] == 0.0
    assert all(math.isnan(values[k]) for k in
               ("lb_refined", "ub_deflation", "ub_generous"))
    p = np.eye(5)[0]
    old = RecycledDirection(p=p, Ap=A @ p)
    values, carried = estimate_bounds(ops, kwf, r, norm_r, np.zeros(5),
                                      direction=old)
    assert values["lb_recycled"] == mu_rank_one(A @ p, r)
    assert carried is old


@pytest.mark.threaded_blas
def test_block_mixes_rows_with_and_without_a_direction(rng):
    # The middle residual has A'r = 0, so no direction: it spends nothing,
    # and the rows around it spend what each spends on its own and get
    # its values to attainable accuracy (the block's solves are gemms).
    # The first row carries its own direction, and the middle row passes
    # it on: both later rows take lb_recycled on the first row's Ap.
    A, r, kwf, _, _ = _bounds_args(rng)
    Q = np.linalg.qr(A)[0]
    r_perp = r - Q @ (Q.T @ r)
    R = [rng.standard_normal(60), r_perp, rng.standard_normal(60)]
    At_R = [A.T @ R[0], np.zeros(5), A.T @ R[2]]
    norms = [float(np.linalg.norm(ri)) for ri in R]
    ops = MatrixOperator(A)
    values, spent, carried = lsbe.solver._estimate_rows(
        ops, kwf, R, norms, At_R, 2, None)
    assert spent[1] == (0, 0)
    assert values[1]["nu_sketched"] == values[1]["lb_fresh"] == 0.0
    assert all(math.isnan(values[1][k]) for k in
               ("lb_refined", "ub_deflation", "ub_generous"))
    assert tuple(map(sum, zip(*spent))) == (ops.matvecs, ops.rmatvecs)
    direction = None  # the reference carries the most recent fresh one
    for i in range(3):
        alone = MatrixOperator(A)
        ref, direction = estimate_bounds(alone, kwf, R[i], norms[i], At_R[i],
                                         refine_steps=2, direction=direction)
        assert spent[i] == (alone.matvecs, alone.rmatvecs)
        got, want = (SimpleNamespace(iter=i + 1, norm_r_theta=norms[i], **v)
                     for v in (values[i], ref))
        assert_rows_close([got], [want], exact=("norm_r_theta",))
    # Bitwise: the first row's own Ap, and the last row's carried out.
    assert values[0]["lb_recycled"] == values[0]["lb_fresh"]
    assert values[1]["lb_recycled"] > 0.0
    assert mu_rank_one(carried.Ap, R[2]) == values[2]["lb_fresh"]


def _assert_bounds_hold(rows, m):
    """lb <= mu_true + s and ub >= mu_true - s for every computed bound on
    every row, with s the acceptance suite's _bound_slack."""
    assert rows
    for row in rows:
        slack = _bound_slack(row.mu_true, m, row.norm_r_theta)
        for lb in (row.lb_fresh, row.lb_refined, row.lb_recycled):
            if math.isfinite(lb):
                assert lb <= row.mu_true + slack, (row.iter, lb)
        for ub in (row.ub_deflation, row.ub_generous):
            if math.isfinite(ub):
                assert ub >= row.mu_true - slack, (row.iter, ub)


def test_trace_soundness_small(rng):
    A, b = _ls_problem(rng, m=150, n=12)
    config = SolverConfig(estimate_every=1, refine_steps=1,
                          compute_true_mu=True)
    _, trace, stop = lsmr(A, b, config, _sketch_kwf(A))
    _assert_bounds_hold(trace.rows, A.shape[0])


def test_ub_generous_is_a_bound_near_convergence():
    # Rows 30-36 (mu/||r_theta|| from 3.4e-9 down to 4.7e-12) give
    # ub_generous 1.19-3.06 times mu_true; the eigenvalue formula, which
    # cancels there, gave 0.0.
    rng = np.random.default_rng(0)
    A = rng.standard_normal((200, 15)) * np.logspace(0, -3, 15)
    b = rng.standard_normal(200)
    S = SketchOperator(kind="gaussian", rows=90, cols=200, seed=1)
    config = SolverConfig(estimate_every=1, refine_steps=2,
                          compute_true_mu=True, atol=1e-14, max_iters=200)
    _, trace, _ = lsmr(A, b, config, kw_factorization(A, sketch=S))
    rows = [row for row in trace.rows
            if row.mu_true >= 1e-12 * row.norm_r_theta]
    assert rows
    for row in rows:
        assert row.ub_generous >= row.mu_true * (1 - 1e-9), row.iter


def test_estimator_stop(rng):
    A, b = _ls_problem(rng)
    config = SolverConfig(estimate_every=1)
    _, trace, stop = lsmr(A, b, config, _sketch_kwf(A),
                          stop_when=lambda row: row.nu_sketched < 1e-6)
    assert stop == "estimator"
    assert trace.rows[-1].nu_sketched < 1e-6


def test_finite_theta_trace(rng):
    A, b = _ls_problem(rng)
    config = SolverConfig(estimate_every=5, theta=1.0, compute_true_mu=True)
    _, trace, _ = lsmr(A, b, config, _sketch_kwf(A))
    _assert_bounds_hold(trace.rows, A.shape[0])


def test_true_mu_spends_no_counted_products(rng):
    A, b = _ls_problem(rng)
    A = sp.csc_matrix(A)
    runs = {}
    for flag in (False, True):
        config = SolverConfig(estimate_every=3, refine_steps=1,
                              compute_true_mu=flag)
        runs[flag] = lsmr(A, b, config, _sketch_kwf(A))[1].rows
    assert [(r.matvec_count, r.rmatvec_count) for r in runs[True]] == \
        [(r.matvec_count, r.rmatvec_count) for r in runs[False]]
    assert all(math.isfinite(r.mu_true) for r in runs[True])


@pytest.mark.threaded_blas
def test_lsmr_takes_the_exact_factorization(rng, monkeypatch):
    A, b = _ls_problem(rng)
    A = sp.csc_matrix(A)
    kwf, exact = _sketch_kwf(A), kw_factorization(A)
    config = SolverConfig(estimate_every=4, refine_steps=1,
                          compute_true_mu=True)
    own = lsmr(A, b, config, kwf)[1].rows

    def no_factorization(*args, **kwargs):
        raise AssertionError("lsmr factored A although exact was given")
    monkeypatch.setattr(lsbe.solver, "kw_factorization", no_factorization)
    given = lsmr(A, b, config, kwf, exact=exact)[1].rows
    assert len(given) == len(own) > 1
    for row, ref in zip(given, own):
        assert np.array_equal([getattr(row, c) for c in TRACE_COLUMNS],
                              [getattr(ref, c) for c in TRACE_COLUMNS],
                              equal_nan=True)
    with pytest.raises(ValueError, match="compute_true_mu"):
        lsmr(A, b, SolverConfig(), kwf, exact=exact)


@pytest.mark.parametrize("sparse", [False, True])
def test_true_mu_keeps_no_m_row_array(rng, sparse):
    m, n = 80, 6
    A = rng.standard_normal((m, n))
    A = sp.csc_matrix(A) if sparse else A
    true_mu = _TrueMu(A)
    assert true_mu.A is A
    held = [*vars(true_mu).values(), *vars(true_mu.kwf).values()]
    assert not [v.shape for v in held
                if isinstance(v, np.ndarray) and v is not A
                and v.shape[0] == m]



def test_true_mu_falls_back_to_the_singular_value_route(rng, monkeypatch):
    A, r = rng.standard_normal((40, 5)), rng.standard_normal(40)

    def no_convergence(*args, **kwargs):
        raise NoConvergence("secular equation did not converge")
    monkeypatch.setattr(lsbe.solver, "mu_fixed_point", no_convergence)
    assert _TrueMu(A)(r) == mu_sigma_min(A, r).mu


def test_trace_never_runs_the_eigenvalue_formula(rng, monkeypatch):
    # mu_exact cancels near convergence, so no trace column may come from
    # it: rebind it to a stub that raises in every module that binds it.
    def eigenvalue_formula(*args, **kwargs):
        raise AssertionError("mu_exact ran on the trace path")
    bound = [mod for name, mod in list(sys.modules.items())
             if name.split(".")[0] == "lsbe" and hasattr(mod, "mu_exact")]
    assert lsbe.exact in bound
    for mod in bound:
        monkeypatch.setattr(mod, "mu_exact", eigenvalue_formula)
    A, b = _ls_problem(rng)
    config = SolverConfig(estimate_every=1, refine_steps=1,
                          compute_true_mu=True)
    _, trace, _ = lsmr(A, b, config, _sketch_kwf(A))
    assert trace.rows
    assert all(math.isfinite(row.ub_generous) and math.isfinite(row.mu_true)
               for row in trace.rows)


def test_mu_true_matches_direct_computation(rng):
    A, b = _ls_problem(rng, m=60, n=6)
    config = SolverConfig(estimate_every=7, compute_true_mu=True)
    _, trace, _ = lsmr(A, b, config)
    # Recompute the weighted residual at a traced iterate independently.
    row = trace.rows[0]
    assert math.isfinite(row.mu_true)
    assert row.mu_true <= row.norm_r_theta + 1e-12


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(atol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(estimate_every=0)
    for bad in ({"max_iters": 0}, {"max_iters": -3}, {"refine_steps": -1},
                {"norm_A_2": 0.0}, {"norm_A_2": -1.0},
                {"norm_A_2": math.nan}, {"norm_A_2": math.inf},
                {"atol": math.inf}, {"atol": math.nan},
                {"theta": -1.0}, {"theta": 0.0}, {"theta": math.nan}):
        with pytest.raises(ValueError):
            SolverConfig(**bad)
    assert SolverConfig(max_iters=1, refine_steps=0).max_iters == 1
    assert SolverConfig(norm_A_2=2.5).norm_A_2 == 2.5
    assert SolverConfig(theta=math.inf).theta == math.inf


def test_zero_vector_stops_converged():
    # A = I, b = e1: the first step gives u = Av - alpha u = 0, which ends
    # the bidiagonalization with the exact solution and its trace row.
    A, b = np.eye(3), np.eye(3)[0]
    x, trace, stop = lsmr(A, b, SolverConfig(estimate_every=5))
    assert stop == trace.stop_reason == "converged"
    assert trace.iterations == 1
    assert [row.iter for row in trace.rows] == [1]
    assert np.array_equal(x, b) and trace.rows[0].norm_r == 0.0


def test_zero_residual_on_rank_deficient_sketch():
    # r = 0 makes the direction's shift 0, singular for a rank-deficient
    # sketch at any mu_est; A'r = 0 gives the zero direction without a
    # solve, so the row is all zeros and NaNs instead of ShiftNotPD.
    A, b = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]), np.eye(3)[0]
    kwf = kw_factorization(A, sketch=SketchOperator("identity", 3, 3))
    x, trace, stop = lsmr(A, b, SolverConfig(estimate_every=1), kwf)
    assert stop == "converged" and np.array_equal(x, [1.0, 0.0])
    (row,) = trace.rows
    assert row.norm_r_theta == 0.0
    assert row.nu_sketched == row.lb_fresh == row.lb_recycled == 0.0
    for col in ("lb_refined", "ub_deflation", "ub_generous"):
        assert math.isnan(getattr(row, col)), col
    # The recurrence's products and the refresh only: the power
    # iteration's are set-up, never a row's.
    assert (trace.setup_matvecs, trace.setup_rmatvecs) == (20, 20)
    assert (row.matvec_count, row.rmatvec_count) == (2, 2)


@pytest.mark.threaded_blas
def test_block_ends_in_zero_residual_on_rank_deficient_sketch():
    # Blocks of 2 (2 * 4 <= 3^2): rows 3 and 4 share one, row 3 with a
    # residual of roundoff size and row 4 with r = 0 exactly, on a sketch
    # with a zero singular value.  The block gives what blocks of one do.
    A = np.zeros((4, 3))
    A[0, 0], A[1, 1] = 1.0, 2.0
    b = np.array([1.0, 2.0, 0.0, 0.0])
    kwf = kw_factorization(A, sketch=SketchOperator("identity", 4, 4))
    assert kwf.singular_values[-1] == 0.0
    config = SolverConfig(estimate_every=1, max_iters=6)
    _, trace, _ = lsmr(A, b, config, kwf)
    _, trace1, _ = lsmr(A, b, config, kwf, stop_when=lambda row: False)
    assert trace.row_block_size == 2
    r3, r4 = trace.rows[2:4]
    assert r3.norm_r_theta > 0.0 and r4.norm_r_theta == 0.0
    assert r4.nu_sketched == r4.lb_fresh == 0.0
    assert_rows_close(trace.rows, trace1.rows)


def test_zero_matrix_converges_at_once():
    # Power iteration gives ||A||_2 = 0, which SolverConfig rejects; lsmr
    # must not store it and stops before the first trace row.
    x, trace, stop = lsmr(np.zeros((5, 3)), np.ones(5))
    assert stop == "converged" and not trace.rows and trace.norm_A_2 == 0.0
    assert np.all(x == 0.0)


@pytest.mark.parametrize("b", [None, np.ones(40)], ids=["seeded", "given"])
def test_traced_run_zero_matrix_resolves_norm_once(monkeypatch, b):
    # _traced_run's power iteration finds ||A||_2 = 0 in one step; lsmr,
    # seeing ||A||_F = 0, must not run it again.
    calls = []
    power = lsbe.solver._power_spectral_norm

    def counted(ops):
        calls.append(ops)
        return power(ops)
    monkeypatch.setattr(lsbe.solver, "_power_spectral_norm", counted)
    S = SketchOperator(kind="gaussian", rows=12, cols=40, seed=1)
    x, trace, stop = lsbe.solver._traced_run(sp.csc_matrix((40, 6)),
                                             SolverConfig(), S, b)
    assert len(calls) == 1
    assert (trace.setup_matvecs, trace.setup_rmatvecs) == (1, 1)
    assert stop == "converged" and not trace.rows and not x.any()


def test_true_mu_rejects_bare_operator(rng):
    # An operator with only matvec/rmatvec/shape cannot be factored for
    # the exact backward error: refuse at entry, before any product.
    A = rng.standard_normal((12, 4))

    class Op:
        shape = A.shape
        products = 0

        def matvec(self, v):
            Op.products += 1
            return A @ v

        def rmatvec(self, u):
            Op.products += 1
            return A.T @ u

    with pytest.raises(ValueError, match="compute_true_mu"):
        lsmr(Op(), rng.standard_normal(12), SolverConfig(compute_true_mu=True))
    assert Op.products == 0
    _, trace, _ = lsmr(Op(), rng.standard_normal(12),
                       SolverConfig(estimate_every=5))
    assert trace.rows and math.isnan(trace.rows[-1].mu_true)


# Reference rows for _regression_run, written by a version that took the
# SVD of the full sketch and built A' for every product.  Factoring through
# R and binding A' once must reproduce them.  The count columns were later
# re-recorded, each 20 lower, when the power iteration's products moved
# from the rows to the trace's set-up counts; no other column changed.
# The six estimator columns were re-recorded, one row per block, when the
# Gaussian sketch came to be drawn block by block in transposed layout
# from SFC64; the other seven columns kept their bytes.  The lb_recycled
# column was re-recorded, one row per block, when each row came to carry
# the previous row's fresh direction (a threshold had kept the first row's
# before); the other twelve columns kept their bytes.
REGRESSION_TRACE = os.path.join(os.path.dirname(__file__), "data",
                                "lsmr_trace_400x40.csv")


def _regression_run():
    """Seeded 400x40 sparse CSC least-squares problem through lsmr with a
    Gaussian 6n sketch, a row every iteration and one refinement step."""
    rng = np.random.default_rng(0x1A5B)
    m, n, nnz = 400, 40, 1200
    rows = rng.integers(0, m, nnz)
    cols = rng.integers(0, n, nnz)
    A = sp.csc_matrix((rng.standard_normal(nnz), (rows, cols)), shape=(m, n))
    A = (A + sp.eye(m, n, format="csc")) @ sp.diags(np.logspace(0, -2, n))
    A = sp.csc_matrix(A)
    b = A @ rng.standard_normal(n) + 1e-3 * rng.standard_normal(m)
    config = SolverConfig(atol=1e-10, estimate_every=1, refine_steps=1,
                          compute_true_mu=True, max_iters=60)
    return lsmr(A, b, config, _sketch_kwf(A))[1]


@pytest.mark.threaded_blas
def test_trace_regression_sparse_gaussian_sketch():
    # Rows run in blocks of 4 here (4 * 400 <= 40^2), so the estimator
    # columns hold to attainable accuracy, not bit for bit.  mu_true was
    # recorded by an older exact route and differs from today's by up to
    # 3.3e-15 relative.
    trace = _regression_run()
    ref = read_trace_csv(REGRESSION_TRACE)
    assert len(trace.rows) == len(ref) == 60
    assert_rows_close(trace.rows, ref,
                      exact=[c for c in EXACT_COLUMNS if c != "mu_true"])
    for got, want in zip(trace.rows, ref):
        assert got.mu_true == pytest.approx(want.mu_true, rel=1e-12, abs=0)


def _graded_problem(rng, m=300, n=16):
    # Graded columns, so LSMR runs some 80 iterations.
    A = sp.csc_matrix(rng.standard_normal((m, n)) * np.logspace(0, -6, n))
    return A, rng.standard_normal(m)


def _assert_same_run(got, ref):
    (x, trace, stop), (x_ref, trace_ref, stop_ref) = got, ref
    assert (stop, trace.iterations) == (stop_ref, trace_ref.iterations)
    assert np.array_equal(x, x_ref)
    assert len(trace.rows) == len(trace_ref.rows) > 0
    for row, ref_row in zip(trace.rows, trace_ref.rows):
        assert np.array_equal([getattr(row, c) for c in TRACE_COLUMNS],
                              [getattr(ref_row, c) for c in TRACE_COLUMNS],
                              equal_nan=True)


def _gate(threshold, reached, made):
    """An operator class for lsmr that sets `reached` once `threshold`
    matvecs are done (before the factorizations land, one per iteration)
    and appends each instance to `made`."""
    class Gate(MatrixOperator):
        def __init__(self, A):
            super().__init__(A)
            made.append(self)

        def matvec(self, v):
            out = super().matvec(v)
            if self.matvecs >= threshold:
                reached.set()
            return out
    return Gate


def _with_stop(stop_when):
    """lsmr with stop_when bound, for _traced_run, which passes none."""
    def run(*args, **kwargs):
        return lsmr(*args, stop_when=stop_when, **kwargs)
    return run


@pytest.mark.threaded_blas
@pytest.mark.parametrize("every", [1, 7])
@pytest.mark.parametrize("true_mu", [False, True])
@pytest.mark.parametrize("stop", [False, True])
def test_rows_match_when_factorizations_land_late(rng, monkeypatch, every,
                                                  true_mu, stop):
    # The factorizations land only after the recurrence has kept rows (or,
    # with stop_when, reached its first row, where it must wait): the run
    # must equal the one given ready factorizations, counts included.
    A, b = _graded_problem(rng)
    S = SketchOperator(kind="gaussian", rows=96, cols=A.shape[0], seed=4)
    config = SolverConfig(estimate_every=every, refine_steps=1,
                          compute_true_mu=true_mu, norm_A_2=1.0)
    kwf = kw_factorization(apply_sketch(S, A))
    exact = kw_factorization(A) if true_mu else None
    stop_when = ((lambda row: row.iter >= 5 * every) if stop else None)
    ref = lsmr(A, b, config, kwf, stop_when, exact=exact)
    threshold = every if stop else 3 * every + 1
    got = _run_landing_late(monkeypatch, A, b, config, S, stop_when,
                            threshold)
    _assert_same_run(got, ref)
    landed = got[1].factored_at_iter
    if stop:
        assert landed == every  # the first row waited
    else:
        assert threshold <= landed <= got[1].iterations


def _run_landing_late(monkeypatch, A, b, config, S, stop_when, threshold):
    """_traced_run(A, config, S, b) with stop_when, its factorizations
    held back until the recurrence has done `threshold` matvecs."""
    reached = threading.Event()
    monkeypatch.setattr(lsbe.solver, "MatrixOperator",
                        _gate(threshold, reached, []))

    def gated(fn):
        def wait_then(*args, **kwargs):
            assert reached.wait(timeout=60)
            return fn(*args, **kwargs)
        return wait_then
    monkeypatch.setattr(lsbe.solver, "kw_factorization",
                        gated(lsbe.solver.kw_factorization))
    monkeypatch.setattr(lsbe.solver, "lsmr", _with_stop(stop_when))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        return lsbe.solver._traced_run(A, config, S, b)
    finally:
        sys.setswitchinterval(interval)


def _blocked_problem(rng):
    """A dense 240 x 90 problem with graded columns, so that 32-row blocks
    fit the cap (32 * 240 <= 90^2) and LSMR runs all 300 iterations."""
    A = rng.standard_normal((240, 90)) * np.logspace(0, -4, 90)
    return A, rng.standard_normal(240), _sketch_kwf(A, factor=3)


@pytest.mark.threaded_blas
@pytest.mark.parametrize("every", [1, 7])
@pytest.mark.parametrize("steps", [0, 1, 2])
def test_blocked_rows_match_blocks_of_one(rng, every, steps):
    # stop_when forces blocks of one.  Blocks of 32, with or without
    # refinement, share their solves as gemms, so only the estimator
    # columns move, and those within attainable accuracy.
    A, b, kwf = _blocked_problem(rng)
    config = SolverConfig(estimate_every=every, refine_steps=steps,
                          max_iters=300)
    x, trace, stop = lsmr(A, b, config, kwf)
    x1, trace1, stop1 = lsmr(A, b, config, kwf, stop_when=lambda row: False)
    assert (stop, trace.iterations) == (stop1, trace1.iterations)
    assert np.array_equal(x, x1)
    rows = len(trace1.rows)
    assert rows == len(trace.rows) > 32
    assert (trace.row_block_size, trace.row_blocks) == (32, -(-rows // 32))
    assert (trace1.row_block_size, trace1.row_blocks) == (1, rows)
    assert_rows_close(trace.rows, trace1.rows)


@pytest.mark.threaded_blas
@pytest.mark.parametrize("threshold", [40, 64])
def test_blocks_do_not_depend_on_when_factorizations_land(rng, monkeypatch,
                                                          threshold):
    # Blocks are counted from the first row, so rows kept until the
    # factorizations land (40 or 64 of them, not a multiple of 32) give
    # the ready run bit for bit, lb_refined included.
    A, b, _ = _blocked_problem(rng)
    S = SketchOperator(kind="gaussian", rows=96, cols=A.shape[0], seed=4)
    config = SolverConfig(estimate_every=1, refine_steps=1, max_iters=300,
                          norm_A_2=1.0)
    ref = lsmr(A, b, config, kw_factorization(apply_sketch(S, A)))
    got = _run_landing_late(monkeypatch, A, b, config, S, None, threshold)
    _assert_same_run(got, ref)
    assert got[1].row_block_size == 32
    assert threshold <= got[1].factored_at_iter < got[1].iterations


@pytest.mark.threaded_blas
def test_tall_problem_evaluates_rows_one_by_one(rng):
    # 2 * 300 > 16^2: a block of two would keep more than n^2 floats of
    # residuals, so rows run one by one, bit for bit as with stop_when.
    A, b = _graded_problem(rng)
    kwf = kw_factorization(A)
    config = SolverConfig(estimate_every=1, refine_steps=1, norm_A_2=1.0)
    got = lsmr(A, b, config, kwf)
    assert got[1].row_block_size == 1
    _assert_same_run(got, lsmr(A, b, config, kwf,
                               stop_when=lambda row: False))


@pytest.mark.threaded_blas
def test_rows_of_one_reproduce_estimate_bounds(rng):
    # Every row evaluated on its own is the estimator suite on its
    # iterate, with the previous row's fresh direction carried in.
    A, b, kwf = _blocked_problem(rng)
    config = SolverConfig(estimate_every=1, refine_steps=2, max_iters=8)
    _, trace, _ = lsmr(A, b, config, kwf, stop_when=lambda row: False)
    direction = None
    for row in trace.rows:
        x = lsmr(A, b, replace(config, max_iters=row.iter), kwf)[0]
        r = b - A @ x
        cth = theta_scale(config.theta, float(np.linalg.norm(x)))
        values, direction = estimate_bounds(
            MatrixOperator(A), kwf, cth * r, cth * float(np.linalg.norm(r)),
            cth * (A.T @ r), refine_steps=2, direction=direction)
        for name in ESTIMATE_COLUMNS:
            assert values[name] == getattr(row, name), (row.iter, name)


class _WatchedFuture(Future):
    """A future that flags when someone waits on it before it is done."""

    def __init__(self):
        super().__init__()
        self.waited = threading.Event()

    def result(self, timeout=None):
        if not self.done():
            self.waited.set()
        return super().result(timeout)


def test_recurrence_keeps_at_most_n_iterates(rng):
    # n = 5 columns and a row every iteration: the recurrence keeps five
    # iterates, then waits for the factorization, which lands only then.
    A = rng.standard_normal((60, 5)) * np.logspace(0, -3, 5)
    b = rng.standard_normal(60)
    config = SolverConfig(estimate_every=1, refine_steps=1)
    kwf = _sketch_kwf(A)
    ref = lsmr(A, b, config, kwf)
    assert len(ref[1].rows) > 5
    future = _WatchedFuture()
    with ThreadPoolExecutor(max_workers=1,
                            thread_name_prefix="cap-test") as pool:
        run = pool.submit(lsmr, A, b, config, future)
        assert future.waited.wait(timeout=60)
        future.set_result(kwf)
        got = run.result(timeout=60)
    _assert_same_run(got, ref)
    assert got[1].factored_at_iter == 5


def test_ready_factorizations_land_at_iteration_zero(rng):
    A, b = _ls_problem(rng)
    kwf = _sketch_kwf(A)
    future = Future()
    future.set_result(kwf)
    config = SolverConfig(estimate_every=3)
    ref = lsmr(A, b, config, kwf)
    got = lsmr(A, b, config, future)
    _assert_same_run(got, ref)
    assert got[1].factored_at_iter == ref[1].factored_at_iter == 0


@pytest.mark.threaded_blas
@pytest.mark.parametrize("kind, rows", [("sparse_sign", 900),
                                        ("gaussian", 900)])
def test_factorizations_match_sequential_calls(rng, kind, rows):
    # The pool's results are bit for bit the calls' own, and the pool is
    # gone once the block is left.  A Gaussian sketch of 900 rows streams
    # in four blocks, drawn on a helper thread of its own.
    A, _ = _pool_pair(rng)
    S = SketchOperator(kind=kind, rows=rows, cols=2000, seed=4)
    with lsbe.solver._factorizations(A, S, exact=True) as futures:
        got = [f.result() for f in futures]
    assert not [t.name for t in threading.enumerate()
                if t.name.startswith("lsbe-") and t.is_alive()]
    for kwf, ref in zip(got, (kw_factorization(A, sketch=S),
                              kw_factorization(A))):
        assert np.array_equal(kwf.singular_values, ref.singular_values)
        assert np.array_equal(kwf.right_vectors, ref.right_vectors)
    with lsbe.solver._factorizations(A, S, exact=False) as (kwf, exact):
        assert exact is None
        assert np.array_equal(kwf.result().right_vectors,
                              got[0].right_vectors)


def _pool_pair(rng):
    A = sp.random(2000, 150, density=0.05, format="csc",
                  random_state=np.random.RandomState(int(rng.integers(1e6))))
    A = sp.csc_matrix((A + sp.eye(2000, 150))
                      @ sp.diags(np.logspace(0, -3, 150)))
    return A, SketchOperator(kind="sparse_sign", rows=900, cols=2000, seed=4)


@pytest.mark.threaded_blas
def test_factorization_svds_take_turns(rng, monkeypatch):
    # Each SVD is held for 0.2 s, far longer than either QR, so two SVDs
    # left to themselves would overlap; the pool's lock keeps one at a
    # time.  Outside a pool an SVD takes no turn.
    A, S = _pool_pair(rng)
    svd, guard, running, seen = lsbe.core._svd, threading.Lock(), [0], []

    def counted(R):
        with guard:
            running[0] += 1
            seen.append(running[0])
        time.sleep(0.2)
        try:
            return svd(R)
        finally:
            with guard:
                running[0] -= 1
    monkeypatch.setattr(lsbe.core, "_svd", counted)
    with lsbe.solver._factorizations(A, S, exact=True) as futures:
        for future in futures:
            future.result()
    assert seen == [1, 1]
    assert not hasattr(lsbe.core._svd_turns, "lock")


@pytest.mark.threaded_blas
@pytest.mark.parametrize("failing", [1, 2])
def test_svd_error_on_either_turn_reaches_lsmr(rng, monkeypatch, failing):
    # The SVD that fails gives its turn back, so the other one still runs,
    # and its error stops the recurrence as any factorization's does.
    A, b, S, config = _long_graded_run(rng, true_mu=True)
    svd, calls = lsbe.core._svd, []

    def fails_once(R):
        calls.append(R.shape)
        if len(calls) == failing:
            raise np.linalg.LinAlgError(f"SVD {failing} did not converge")
        return svd(R)
    monkeypatch.setattr(lsbe.core, "_svd", fails_once)
    with pytest.raises(np.linalg.LinAlgError,
                       match=f"SVD {failing} did not converge"):
        lsbe.solver._traced_run(A, config, S, b)
    _lsbe_threads_end()
    assert len(calls) == 2


def _lsbe_threads_end():
    for thread in threading.enumerate():
        if thread.name.startswith("lsbe-"):
            thread.join(timeout=30)
            assert not thread.is_alive(), thread.name


def _long_graded_run(rng, true_mu):
    """(A, b, S, config) for a run that nothing but a failure or an
    interrupt ends early: no row falls due before the last iteration, and
    on these graded columns the recurrence runs all 10^5 iterations (its
    ||A'r|| estimate would underflow to 0 only after some 10^6)."""
    A = sp.csc_matrix(rng.standard_normal((400, 100))
                      * np.logspace(0, -10, 100))
    b = rng.standard_normal(400)
    S = SketchOperator(kind="gaussian", rows=200, cols=400, seed=4)
    config = SolverConfig(atol=1e-300, max_iters=10 ** 5,
                          estimate_every=10 ** 5, compute_true_mu=true_mu,
                          norm_A_2=1.0)
    return A, b, S, config


@pytest.mark.threaded_blas
@pytest.mark.parametrize("true_mu", [False, True])
@pytest.mark.parametrize("error", [np.linalg.LinAlgError, KeyboardInterrupt])
def test_failed_factorization_stops_the_recurrence(rng, monkeypatch, true_mu,
                                                   error):
    # Only the per-step check of the failed future can end the run early;
    # the factorization's own exception comes back once the pool is left.
    A, b, S, config = _long_graded_run(rng, true_mu)
    reached = threading.Event()
    made = []
    monkeypatch.setattr(lsbe.solver, "MatrixOperator",
                        _gate(50, reached, made))
    raised = error("injected")

    def failing(*args, **kwargs):
        assert reached.wait(timeout=60)
        raise raised
    monkeypatch.setattr(lsbe.core, "kw_factorization", failing)
    monkeypatch.setattr(lsbe.solver, "kw_factorization", failing)
    with pytest.raises(error) as caught:
        lsbe.solver._traced_run(A, config, S, b)
    assert caught.value is raised
    _lsbe_threads_end()
    ops = made[0]  # the recurrence's; the estimator suite has its own
    assert 50 <= ops.matvecs < 10 ** 4


@pytest.mark.threaded_blas
@pytest.mark.parametrize("true_mu", [False, True])
def test_interrupt_stops_the_recurrence(rng, monkeypatch, true_mu):
    # Ctrl-C once the factorization futures are done: the recurrence must
    # stop at once instead of running out its 10^5 iterations before the
    # interrupt surfaces.
    A, b, S, config = _long_graded_run(rng, true_mu)
    futures, made = [], []
    run = lsbe.solver.lsmr

    def watched(A, b, config, kwf, exact=None):
        futures.extend(f for f in (kwf, exact) if f is not None)
        return run(A, b, config, kwf, exact=exact)

    class Interrupting(MatrixOperator):
        def __init__(self, A):
            super().__init__(A)
            made.append(self)

        def matvec(self, v):
            if self.matvecs == 50:
                assert not wait(futures, timeout=60).not_done
                _thread.interrupt_main()
            return super().matvec(v)
    monkeypatch.setattr(lsbe.solver, "lsmr", watched)
    monkeypatch.setattr(lsbe.solver, "MatrixOperator", Interrupting)
    with pytest.raises(KeyboardInterrupt):
        lsbe.solver._traced_run(A, config, S, b)
    _lsbe_threads_end()
    assert len(futures) == (2 if true_mu else 1)
    assert 50 <= made[0].matvecs < 10 ** 4


def test_failed_future_is_raised_by_lsmr(rng):
    A, b = _ls_problem(rng)
    future = Future()
    future.set_exception(np.linalg.LinAlgError("injected"))
    with pytest.raises(np.linalg.LinAlgError, match="injected"):
        lsmr(A, b, SolverConfig(estimate_every=5), future)
