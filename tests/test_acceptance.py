"""Acceptance suite: every criterion at its stated scale and tolerance.

Each test prints one pass/fail line with the observed worst-case numbers;
run with `pytest tests/test_acceptance.py -v -s` to see them.  The large
conditional reproduction test is skipped unless the GL7d12 matrix file is
available (see README).
"""

import time
from dataclasses import astuple, replace

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp

import lsbe.solver
from lsbe import acceptance


def _report(result):
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} {result.name}: {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"


def test_c1_four_way_exact_agreement():
    t0 = time.perf_counter()
    result = acceptance.criterion_four_way(n_instances=200, seed=0)
    _report(result)
    assert time.perf_counter() - t0 < 10.0


def test_c2_rank_one_closed_form():
    _report(acceptance.criterion_rank_one(n_pairs=1000, n_stress=200,
                                          seed=0))


def test_c3_shifted_direction_attainment():
    _report(acceptance.criterion_attainment(n_instances=200,
                                            n_random_p=10_000, seed=0))


def test_c3_c6_check_the_lower_bound_lsmr_runs(monkeypatch):
    # Both criteria evaluate the bound through the solver's own step, so a
    # fault in the rank-one form the solver binds fails them.
    mu_rank_one = lsbe.solver.mu_rank_one
    monkeypatch.setattr(lsbe.solver, "mu_rank_one",
                        lambda a, r: 0.5 * mu_rank_one(a, r))
    assert not acceptance.criterion_attainment(n_instances=4,
                                               n_random_p=40).passed
    assert not acceptance.criterion_sketched_lb(n_synth=2, n_gauss=1).passed


def test_c4_decomposition_attainment():
    _report(acceptance.criterion_decomposition(
        n_instances=200, n_random_pq=10_000, n_brute=8, seed=0))


def test_c5_kw_inequality_chain():
    _report(acceptance.criterion_kw_chain(n_instances=200, seed=0))


def test_c6_sketched_lower_bound_quality():
    t0 = time.perf_counter()
    result = acceptance.criterion_sketched_lb(n_synth=100, n_gauss=100,
                                              seed=0)
    _report(result)
    assert time.perf_counter() - t0 < 30.0


def test_c7_hyperbolic_cs_roundtrip():
    _report(acceptance.criterion_hyperbolic_cs(n_instances=500, seed=0))


def test_c8_solver_trace_soundness():
    t0 = time.perf_counter()
    result = acceptance.criterion_trace_soundness(seed=0)
    _report(result)
    assert time.perf_counter() - t0 < 60.0


def test_c9_gl7d12_reproduction():
    result = acceptance.criterion_gl7d12()
    if result.skipped:
        print(f"SKIP {result.name}: {result.detail}")
        pytest.skip(result.detail)
    _report(result)


def test_c9_gl7d12_criterion_on_a_small_matrix(tmp_path, monkeypatch):
    # The criterion body on a seeded 600 x 60 matrix with about 2500
    # nonzeros, taken as the expected shape: GL7d12 itself is not bundled.
    m, n, nnz = 600, 60, 2500
    rng = np.random.default_rng(12)
    rows, cols = np.divmod(rng.choice(m * n, size=nnz, replace=False), n)
    A = sp.coo_matrix((rng.standard_normal(nnz), (rows, cols)), shape=(m, n))
    A = (A.tocsc() + sp.eye(m, n, format="csc")) @ sp.diags(
        np.logspace(0, -3, n))
    path = str(tmp_path / "small.mtx")
    scipy.io.mmwrite(path, A)
    monkeypatch.setattr(acceptance, "GL7D12_SHAPE", (m, n))
    runs = []

    def kept_run(*args, **kwargs):
        runs.append((args, kwargs, lsbe.solver._traced_run(*args, **kwargs)))
        return runs[-1][2]
    monkeypatch.setattr(acceptance, "_traced_run", kept_run)
    result = acceptance.criterion_gl7d12(path)
    assert result.passed and not result.skipped, result.detail
    # The first run resolves ||A||_2 and the later two take it, spending no
    # set-up products, with the rows a run resolving its own norm gets.
    traces = [trace for _, _, (_, trace, _) in runs]
    assert [(t.setup_matvecs, t.setup_rmatvecs) for t in traces] == [
        (20, 20), (0, 0), (0, 0)]
    for (A_run, config, S), kwargs, (_, trace, _) in runs[1:]:
        assert config.norm_A_2 == traces[0].norm_A_2
        own = lsbe.solver._traced_run(
            A_run, replace(config, norm_A_2=None), S, **kwargs)[1]
        assert own.norm_A_2 == trace.norm_A_2
        assert np.array_equal([astuple(row) for row in own.rows],
                              [astuple(row) for row in trace.rows],
                              equal_nan=True)
