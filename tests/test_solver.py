import math
import os

import numpy as np
import pytest
import scipy.sparse as sp

from lsbe import (CountingOperator, SolverConfig, TraceRow, estimate_bounds,
                  kw_factorization, lsmr, mu_rank_one, recycle_policy)
from lsbe.core import theta_scale
from lsbe.estimates import RecycledDirection
from lsbe.fileio import read_trace_csv
from lsbe.solver import ESTIMATE_COLUMNS, TRACE_COLUMNS, _TrueMu
from lsbe.sketch import SketchOperator, apply_sketch


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


def test_recycle_policy_keep_and_recompute():
    config = SolverConfig(recycle_threshold=1e-12, norm_A_2=1.0)

    def row_with(lb):
        return TraceRow(iter=1, norm_r=1, norm_Atr=1, norm_r_theta=1,
                        nu_sketched=1, lb_fresh=1, lb_refined=1,
                        lb_recycled=lb, ub_deflation=1, ub_generous=1,
                        mu_true=math.nan, matvec_count=0, rmatvec_count=0)

    assert recycle_policy(row_with(1e-3), config) == "keep"
    assert recycle_policy(row_with(0.0), config) == "recompute"


def test_recycle_policy_fires_at_first_crossing():
    # Scripted decreasing bound values: the first recompute happens exactly
    # at the first value that drops below the relative threshold.
    config = SolverConfig(recycle_threshold=1e-6, norm_A_2=2.0)
    values = [1e-2, 1e-3, 1e-4, 1e-5, 2.1e-6, 1.2e-7, 1e-9]
    decisions = []
    for v in values:
        row = TraceRow(iter=1, norm_r=1, norm_Atr=1, norm_r_theta=1,
                       nu_sketched=1, lb_fresh=1, lb_refined=1,
                       lb_recycled=v, ub_deflation=1, ub_generous=1,
                       mu_true=math.nan, matvec_count=0, rmatvec_count=0)
        decisions.append(recycle_policy(row, config))
    assert decisions == ["keep"] * 5 + ["recompute", "recompute"]


def test_recycle_policy_needs_norm():
    config = SolverConfig()
    row = TraceRow(iter=1, norm_r=1, norm_Atr=1, norm_r_theta=1,
                   nu_sketched=1, lb_fresh=1, lb_refined=1, lb_recycled=1,
                   ub_deflation=1, ub_generous=1, mu_true=math.nan,
                   matvec_count=0, rmatvec_count=0)
    with pytest.raises(ValueError):
        recycle_policy(row, config)


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


def test_lb_recycled_costs_nothing(rng):
    # Disabling everything except the recycled bound is not a public mode;
    # instead verify the recycled value never adds products: two configs
    # differing only in recycle_threshold produce identical counters.
    A, b = _ls_problem(rng)
    cfg_lo = SolverConfig(estimate_every=1, recycle_threshold=1e-300)
    cfg_hi = SolverConfig(estimate_every=1, recycle_threshold=1e-2)
    _, tr_lo, _ = lsmr(A, b, cfg_lo, _sketch_kwf(A))
    _, tr_hi, _ = lsmr(A, b, cfg_hi, _sketch_kwf(A))
    assert [r.matvec_count for r in tr_lo.rows] == \
        [r.matvec_count for r in tr_hi.rows]
    assert [r.rmatvec_count for r in tr_lo.rows] == \
        [r.rmatvec_count for r in tr_hi.rows]


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
    ops = CountingOperator(A)
    r = b - ops.matvec(x)
    cth = theta_scale(3.0, float(np.linalg.norm(x)))
    At_r = ops.rmatvec(r)
    values, fresh = estimate_bounds(
        ops, _sketch_kwf(A), cth * r, cth * float(np.linalg.norm(r)),
        cth * At_r, refine_steps=2, itn=row.iter)
    assert set(values) == set(ESTIMATE_COLUMNS)
    for name in ESTIMATE_COLUMNS:
        assert values[name] == getattr(row, name), name
    assert fresh.born_at == row.iter and fresh.mu_est_used == 0.0
    # Beyond the refresh: a matvec and an rmatvec per refinement step, a
    # matvec each for the fresh and refined directions, and rmatvecs for
    # the deflation vector and the two basis columns.
    assert (ops.matvecs - 1, ops.rmatvecs - 1) == (4, 5)


def test_estimate_bounds_resets_mu_est_above_sketch_limit(rng):
    A, r, kwf, norm_r, At_r = _bounds_args(rng)
    base, fresh0 = estimate_bounds(CountingOperator(A), kwf, r, norm_r, At_r)
    huge = 10.0 * (norm_r + float(kwf.singular_values[0]))
    values, fresh = estimate_bounds(CountingOperator(A), kwf, r, norm_r,
                                    At_r, mu_est=huge)
    assert fresh.mu_est_used == 0.0
    np.testing.assert_equal(values, base)
    assert np.array_equal(fresh.Ap, fresh0.Ap)


def test_estimate_bounds_zero_direction(rng):
    # A'r = 0: no direction, no products; the recycled bound still uses
    # the direction it is given.
    A, r, kwf, norm_r, _ = _bounds_args(rng)
    ops = CountingOperator(A)
    values, fresh = estimate_bounds(ops, kwf, r, norm_r, np.zeros(5))
    assert fresh is None and (ops.matvecs, ops.rmatvecs) == (0, 0)
    assert values["nu_sketched"] == values["lb_fresh"] == 0.0
    assert values["lb_recycled"] == 0.0
    assert all(math.isnan(values[k]) for k in
               ("lb_refined", "ub_deflation", "ub_generous"))
    p = np.eye(5)[0]
    old = RecycledDirection(p=p, Ap=A @ p)
    values, _ = estimate_bounds(ops, kwf, r, norm_r, np.zeros(5),
                                direction=old)
    assert values["lb_recycled"] == mu_rank_one(A @ p, r)


def test_trace_soundness_small(rng):
    A, b = _ls_problem(rng, m=150, n=12)
    config = SolverConfig(estimate_every=1, refine_steps=1,
                          compute_true_mu=True)
    _, trace, stop = lsmr(A, b, config, _sketch_kwf(A))
    assert trace.rows
    for row in trace.rows:
        for lb in (row.lb_fresh, row.lb_refined, row.lb_recycled):
            if math.isfinite(lb):
                assert lb <= row.mu_true + 1e-10
        for ub in (row.ub_deflation, row.ub_generous):
            if math.isfinite(ub):
                assert ub >= row.mu_true - 1e-10


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
    for row in trace.rows:
        assert row.lb_fresh <= row.mu_true + 1e-10


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
                {"recycle_threshold": math.nan},
                {"recycle_threshold": -1e-12},
                {"atol": math.inf}, {"atol": math.nan},
                {"theta": -1.0}, {"theta": 0.0}, {"theta": math.nan}):
        with pytest.raises(ValueError):
            SolverConfig(**bad)
    assert SolverConfig(max_iters=1, refine_steps=0).max_iters == 1
    assert SolverConfig(norm_A_2=2.5).norm_A_2 == 2.5
    assert SolverConfig(recycle_threshold=0.0).recycle_threshold == 0.0
    assert SolverConfig(theta=math.inf).theta == math.inf


def test_zero_matrix_converges_at_once():
    # Power iteration gives ||A||_2 = 0, which SolverConfig rejects; lsmr
    # must not store it and stops before the first trace row.
    x, trace, stop = lsmr(np.zeros((5, 3)), np.ones(5))
    assert stop == "converged" and not trace.rows and trace.norm_A_2 == 0.0
    assert np.all(x == 0.0)


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
# R and binding A' once must reproduce them.
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


def test_trace_regression_sparse_gaussian_sketch():
    rows = _regression_run().rows
    ref = read_trace_csv(REGRESSION_TRACE)
    assert len(rows) == len(ref) == 60
    for got, want in zip(rows, ref):
        for col in TRACE_COLUMNS:
            g, w = getattr(got, col), getattr(want, col)
            if col in ("iter", "matvec_count", "rmatvec_count"):
                assert g == w, (got.iter, col)
            elif math.isnan(w):
                assert math.isnan(g), (got.iter, col)
            else:
                assert g == pytest.approx(w, rel=1e-12, abs=0), (got.iter, col)

