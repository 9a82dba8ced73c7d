"""Acceptance property suites.

Each criterion function runs a self-contained randomized property check at
a configurable scale and returns a CriterionResult carrying the observed
worst-case numbers.  The pytest acceptance module and the `lsbe verify`
subcommand both drive these functions; the CLI runs them at reduced scale
by default so a full pass stays under a minute.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .core import LSProblem, MatrixOperator, weighted_residual
from .decomposition import _feasible_values, brute_force_max, optimal_pq
from .estimates import kw, kw_factorization, mu_rank_one
from .exact import mu_all_methods, mu_exact, mu_fixed_point
from .pencil import JSignature, hyperbolic_cs
from .sketch import SketchOperator, measure_distortion, sketch_rows
from .solver import SolverConfig, _estimate_row, _traced_run, seeded_rhs

EPS = float(np.finfo(float).eps)
GL7D12_SHAPE = (8899, 1019)
GL7D12_DEFAULT_PATHS = ("data/GL7d12.mtx", "GL7d12.mtx",
                        "data/GL7d12/GL7d12.mtx")


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str
    skipped: bool = False


def _count(default: int, trials: int | None, scale: float) -> int:
    if trials is not None:
        return max(1, trials)
    return max(1, int(round(default * scale)))


def _bound_slack(mu, m: int, norm_r_theta: float) -> float:
    """How far a bound may sit on the wrong side of mu in floating point:
    1e-9 relative plus 16 sqrt(m) eps ||r_theta||, the accuracy a dot
    product over m terms of size ||r_theta|| can attain, with a safety
    factor of 16."""
    return 1e-9 * mu + 16.0 * math.sqrt(m) * EPS * norm_r_theta


def _random_instance(rng, m_range=(5, 60), n_range=(1, 20)):
    """A random problem with an approximate solution and weighted residual."""
    m = int(rng.integers(m_range[0], m_range[1] + 1))
    n = int(rng.integers(n_range[0], min(n_range[1], m - 1) + 1))
    A = rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    x = rng.standard_normal(n)
    theta = [0.5, 1.0, math.inf][int(rng.integers(0, 3))]
    problem = LSProblem(A, b, theta=theta)
    wr = weighted_residual(problem, x)
    return A, wr.Rtheta[:, 0]


def criterion_four_way(n_instances: int = 200, seed: int = 0
                       ) -> CriterionResult:
    """All four exact routes agree pairwise on random single-RHS instances."""
    rng = np.random.default_rng([0xAC01, seed])
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(n_instances):
        A, r = _random_instance(rng)
        res = mu_all_methods(A, r)
        mus = [v.mu for v in res.values()]
        ref = max(max(mus), 1e-300)
        spread = (max(mus) - min(mus)) / ref
        worst = max(worst, spread)
    elapsed = time.perf_counter() - t0
    return CriterionResult(
        "four-way-exact-agreement", worst <= 1e-8,
        f"worst_pairwise_rel={worst:.3e} tol=1e-08 "
        f"instances={n_instances} time={elapsed:.1f}s")


def _unstable_rank_one(a: np.ndarray, r: np.ndarray) -> float:
    # The cancellation-prone closed form; kept out of the library on purpose.
    return abs(np.linalg.norm(a + r) - np.linalg.norm(a - r)) / 2.0


def criterion_rank_one(n_pairs: int = 1000, n_stress: int = 200,
                       seed: int = 0) -> CriterionResult:
    """Stable rank-one closed form vs the exact value, plus near-parallel
    stress pairs where only the stable form keeps its accuracy."""
    rng = np.random.default_rng([0xAC02, seed])
    eps = float(np.finfo(float).eps)
    worst = 0.0
    for _ in range(n_pairs):
        m = int(rng.integers(1, 12))
        a = rng.standard_normal(m)
        r = rng.standard_normal(m)
        val = mu_rank_one(a, r)
        ref = mu_exact(a, r).mu
        denom = max(ref, 1e-300)
        # The eigenvalue-formula reference carries its own cancellation
        # error bar of order eps * (||a||^2 + ||r||^2) in mu^2; discount it
        # so the comparison measures the closed form, not the reference.
        allowance = 16.0 * eps * (a @ a + r @ r) / (2.0 * denom)
        worst = max(worst, max(abs(val - ref) - allowance, 0.0) / denom)
    ok_random = worst <= 1e-10

    worst_stable = 0.0
    worst_unstable = 0.0
    for _ in range(n_stress):
        m = int(rng.integers(2, 10))
        a = rng.standard_normal(m)
        a /= np.linalg.norm(a)
        q = rng.standard_normal(m)
        q -= a * (a @ q)
        q /= np.linalg.norm(q)
        scale = 10.0 ** rng.uniform(-11, -9)
        angle = 10.0 ** rng.uniform(-10, -8.01)
        r = scale * (a + angle * q)
        oracle = mu_fixed_point(a[:, None], r).mu
        stable = mu_rank_one(a, r)
        unstable = _unstable_rank_one(a, r)
        worst_stable = max(worst_stable, abs(stable - oracle) / oracle)
        worst_unstable = max(worst_unstable, abs(unstable - oracle) / oracle)
    ok_stress = worst_stable <= 1e-6
    # The subtraction-based form must visibly lose accuracy on these pairs;
    # that is the point of keeping it out of the library.
    ok_demo = worst_unstable > 1e-8

    passed = ok_random and ok_stress and ok_demo
    return CriterionResult(
        "rank-one-closed-form", passed,
        f"worst_random_rel={worst:.3e} worst_stress_stable={worst_stable:.3e}"
        f" worst_stress_unstable={worst_unstable:.3e}"
        f" pairs={n_pairs}+{n_stress}")


def criterion_attainment(n_instances: int = 200, n_random_p: int = 10_000,
                         seed: int = 0,
                         inject_failure: bool = False) -> CriterionResult:
    """lsmr's lower-bound step, unsketched with mu_est = mu, attains mu (a
    reset or zero direction fails); random unit directions never exceed it."""
    rng = np.random.default_rng([0xAC03, seed])
    worst_attain = 0.0
    worst_excess = -math.inf
    draws_per = max(1, n_random_p // n_instances)
    for _ in range(n_instances):
        m = int(rng.integers(4, 31))
        n = int(rng.integers(1, min(8, m - 1) + 1))
        A = rng.standard_normal((m, n))
        r = rng.standard_normal(m)
        mu = mu_exact(A, r).mu
        if inject_failure:
            mu *= 0.5
        values, (fresh,), _, _ = _estimate_row(
            MatrixOperator(A), kw_factorization(A), r[None],
            [float(np.linalg.norm(r))], (A.T @ r)[None], mu)
        attained = fresh is not None and fresh.mu_est_used == mu
        worst_attain = max(worst_attain, (
            abs(float(values["lb_fresh"][0]) - mu) / max(mu, 1e-300)
            if attained else math.inf))

        P = rng.standard_normal((n, draws_per))
        P /= np.linalg.norm(P, axis=0)
        vals = mu_rank_one((A @ P).T, r)
        worst_excess = max(worst_excess, float(np.max(vals) - mu))
    passed = worst_attain <= 1e-7 and worst_excess <= 1e-12
    return CriterionResult(
        "shifted-direction-attainment", passed,
        f"worst_attain_rel={worst_attain:.3e} worst_excess={worst_excess:.3e}"
        f" instances={n_instances} draws={draws_per * n_instances}")


def criterion_decomposition(n_instances: int = 200, n_random_pq: int = 10_000,
                            n_brute: int = 8, seed: int = 0
                            ) -> CriterionResult:
    """Constructed (P, Q) attains mu; random orthonormal pairs stay below;
    brute-force search agrees on tiny instances."""
    rng = np.random.default_rng([0xAC04, seed])
    worst_attain = 0.0
    worst_excess = -math.inf
    draws_per = max(1, n_random_pq // n_instances)
    for idx in range(n_instances):
        d = 1 + idx % 3
        n = int(rng.integers(1, 9))
        m = int(rng.integers(n + d + 1, n + d + 21))
        A = rng.standard_normal((m, n))
        R = rng.standard_normal((m, d))
        mu = mu_exact(A, R).mu
        wit = optimal_pq(A, R)
        worst_attain = max(worst_attain,
                           abs(wit.total - mu) / max(mu, 1e-300))
        # Each draw is an n x k block for P, then a d x k block for Q.
        G = rng.standard_normal((draws_per, n + d, min(n, d)))
        P, Q = np.linalg.qr(G[:, :n])[0], np.linalg.qr(G[:, n:])[0]
        worst_excess = max(worst_excess,
                           float(np.max(_feasible_values(A, R, P, Q))) - mu)
    worst_brute = 0.0
    for idx in range(n_brute):
        n = 1 + idx % 3
        d = 1 + idx % 2
        m = int(rng.integers(n + d + 1, 13))
        A = rng.standard_normal((m, n))
        R = rng.standard_normal((m, d))
        opt = optimal_pq(A, R).total
        bf = brute_force_max(A, R, trials=150, polish_steps=12,
                             seed=int(rng.integers(0, 2 ** 31))).total
        worst_brute = max(worst_brute, abs(bf - opt) / max(opt, 1e-300))
    passed = (worst_attain <= 1e-7 and worst_excess <= 1e-10
              and worst_brute <= 1e-4)
    return CriterionResult(
        "decomposition-attainment", passed,
        f"worst_attain_rel={worst_attain:.3e} worst_excess={worst_excess:.3e}"
        f" worst_brute_rel={worst_brute:.3e} instances={n_instances}")


def criterion_kw_chain(n_instances: int = 200, seed: int = 0
                       ) -> CriterionResult:
    """1 <= mu/nu <= sqrt(2) on random instances; the 1x1 pair of ones
    saturates the sqrt(2) end."""
    rng = np.random.default_rng([0xAC05, seed])
    lo, hi = math.inf, -math.inf
    for _ in range(n_instances):
        A, r = _random_instance(rng, m_range=(4, 40), n_range=(1, 12))
        nu = kw(A, r)
        if nu <= 0.0:
            continue
        ratio = mu_exact(A, r).mu / nu
        lo, hi = min(lo, ratio), max(hi, ratio)
    ones = np.array([[1.0]]), np.array([1.0])
    sat = mu_exact(*ones).mu / kw(*ones)
    sat_err = abs(sat - math.sqrt(2.0))
    passed = (lo >= 1.0 - 1e-10 and hi <= math.sqrt(2.0) + 1e-10
              and sat_err <= 1e-12)
    return CriterionResult(
        "kw-inequality-chain", passed,
        f"ratio_range=[{lo:.12f},{hi:.12f}] saturation_err={sat_err:.2e}"
        f" instances={n_instances}")


def criterion_sketched_lb(n_synth: int = 100, n_gauss: int = 100,
                          seed: int = 0) -> CriterionResult:
    """lsmr's lower-bound step with mu_est = 0 meets its distortion
    guarantee ((1 - eta^2)/(1 + eta^2)) nu, for synthetic sketches of
    exactly known distortion and Gaussian sketches with measured distortion."""
    rng = np.random.default_rng([0xAC06, seed])
    t0 = time.perf_counter()
    worst_margin = math.inf

    def lb_for(A, r, S):
        values, _, _, _ = _estimate_row(
            MatrixOperator(A), kw_factorization(A, sketch=S), r[None],
            [float(np.linalg.norm(r))], (A.T @ r)[None], 0.0)
        return float(values["lb_fresh"][0])

    for eta in (0.1, 0.3, 0.5):
        guarantee = (1.0 - eta ** 2) / (1.0 + eta ** 2)
        for i in range(n_synth):
            m = int(rng.integers(10, 41))
            n = int(rng.integers(2, 9))
            A = rng.standard_normal((m, n))
            r = rng.standard_normal(m)
            if i % 2 == 0:
                # Designate directions inside col(A): distortion exactly eta.
                U, _ = np.linalg.qr(A)
                sub = U[:, :2]
            else:
                sub = None
            S = SketchOperator(kind="synthetic_eta", rows=m, cols=m,
                               seed=int(rng.integers(0, 2 ** 31)), eta=eta,
                               subspace=sub)
            margin = lb_for(A, r, S) - guarantee * kw(A, r)
            worst_margin = min(worst_margin, margin)

    worst_gauss = math.inf
    for i in range(n_gauss):
        m, n = 300, 20
        A = np.random.default_rng([0xAC61, seed, i]).standard_normal((m, n))
        r = np.random.default_rng([0xAC62, seed, i]).standard_normal(m)
        S = SketchOperator(kind="gaussian", rows=6 * n, cols=m, seed=i)
        lo, hi = measure_distortion(S, A)
        eta_hat = max(abs(lo), abs(hi))
        guarantee = (1.0 - eta_hat ** 2) / (1.0 + eta_hat ** 2)
        margin = lb_for(A, r, S) - guarantee * kw(A, r)
        worst_gauss = min(worst_gauss, margin)

    elapsed = time.perf_counter() - t0
    passed = worst_margin >= -1e-10 and worst_gauss >= -1e-10
    return CriterionResult(
        "sketched-lower-bound-quality", passed,
        f"worst_synth_margin={worst_margin:.3e}"
        f" worst_gauss_margin={worst_gauss:.3e}"
        f" counts={3 * n_synth}+{n_gauss} time={elapsed:.1f}s")


def criterion_hyperbolic_cs(n_instances: int = 500, seed: int = 0
                            ) -> CriterionResult:
    """Build-then-recover round trips for the hyperbolic CS decomposition."""
    rng = np.random.default_rng([0xAC07, seed])
    worst_rec = 0.0
    worst_identity = 0.0
    worst_orth = 0.0
    for _ in range(n_instances):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(d, 11))
        P, _ = np.linalg.qr(rng.standard_normal((n, d)))
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        Z, _ = np.linalg.qr(rng.standard_normal((d, d)))
        s = np.abs(rng.standard_normal(d)) * 2.0
        c = np.sqrt(1.0 + s * s)
        X = np.vstack([P * s, Q * c]) @ Z.T
        cs = hyperbolic_cs(X, JSignature(n, d))
        rec = cs.reconstruct()
        worst_rec = max(worst_rec,
                        float(np.linalg.norm(rec - X))
                        / max(float(np.linalg.norm(X)), 1e-300))
        ident = np.max(np.abs(cs.c ** 2 - cs.s ** 2 - 1.0)
                       / (1.0 + cs.s ** 2))
        worst_identity = max(worst_identity, float(ident))
        worst_orth = max(worst_orth, float(np.max(np.abs(
            cs.Q.T @ cs.Q - np.eye(d)))))
    passed = (worst_rec <= 1e-10 and worst_identity <= 8e-16
              and worst_orth <= 1e-10)
    return CriterionResult(
        "hyperbolic-cs-roundtrip", passed,
        f"worst_reconstruction={worst_rec:.3e}"
        f" worst_c2_minus_s2={worst_identity:.3e}"
        f" worst_Q_orth={worst_orth:.3e} instances={n_instances}")


def criterion_trace_soundness(seed: int = 0) -> CriterionResult:
    """Full LSMR traces on a random sparse problem: every lower bound stays
    below the true backward error, every upper bound above, each to within
    _bound_slack of it; for generous sketches the fresh bound captures a
    solid fraction of it; product accounting is exact."""
    t0 = time.perf_counter()
    rng = np.random.default_rng([0xAC08, seed])
    m, n = 500, 40
    A = sp.random(m, n, density=0.15, random_state=np.random.RandomState(
        int(rng.integers(0, 2 ** 31))), format="csr")
    A = A + 0.1 * sp.random(m, n, density=0.05,
                            random_state=np.random.RandomState(
                                int(rng.integers(0, 2 ** 31))), format="csr")
    b = seeded_rhs(A, float(np.linalg.norm(A.toarray(), 2)), rng)
    config = SolverConfig(atol=1e-12, estimate_every=1, refine_steps=1,
                          compute_true_mu=True)
    problems = []
    worst_lb = -math.inf
    worst_ub = -math.inf
    for factor in (1.5, 6, 16):
        S = SketchOperator(kind="gaussian", rows=sketch_rows(factor, n),
                           cols=m, seed=int(seed) + 17)
        x, trace, stop = _traced_run(A, config, S, b)
        rows = trace.rows
        if not rows:
            problems.append(f"factor {factor}: empty trace")
            continue
        for row in rows:  # bounds not computed are NaN
            slack = _bound_slack(row.mu_true, m, row.norm_r_theta)
            lbs = np.array([row.lb_fresh, row.lb_refined, row.lb_recycled])
            ubs = np.array([row.ub_deflation, row.ub_generous])
            worst_lb = np.nanmax([worst_lb, *(lbs - row.mu_true) / slack])
            worst_ub = np.nanmax([worst_ub, *(row.mu_true - ubs) / slack])
        if factor >= 6:
            good = sum(1 for row in rows
                       if row.lb_fresh >= 0.3 * row.mu_true)
            if good < 0.95 * len(rows):
                problems.append(
                    f"factor {factor}: lb/mu >= 0.3 at {good}/{len(rows)}")
        # Per-iteration product accounting: 1 bidiagonalization pair plus
        # the estimator suite (refresh, fresh direction, one refinement
        # pass and its evaluation; transpose products for A'r, the
        # deflation vector, and the two-column compression).
        for prev, cur in zip(rows, rows[1:]):
            dmv = cur.matvec_count - prev.matvec_count
            drmv = cur.rmatvec_count - prev.rmatvec_count
            if (dmv, drmv) != (5, 6):
                problems.append(
                    f"factor {factor} iter {cur.iter}: deltas {dmv},{drmv}")
                break
    passed = worst_lb <= 1.0 and worst_ub <= 1.0 and not problems
    elapsed = time.perf_counter() - t0
    return CriterionResult(
        "solver-trace-soundness", passed,
        f"worst_lb_excess={worst_lb:.3e} worst_ub_deficit={worst_ub:.3e}"
        " (in slacks)"
        f" problems={problems or 'none'} time={elapsed:.1f}s")


def find_gl7d12(path: str | None = None) -> str | None:
    candidates = [path] if path else []
    candidates += [os.path.join(os.getcwd(), p) for p in GL7D12_DEFAULT_PATHS]
    for cand in candidates:
        if cand and os.path.exists(cand):
            return cand
    return None


def criterion_gl7d12(path: str | None = None, seed: int = 0
                     ) -> CriterionResult:
    """Conditional large-scale reproduction: only runs when the 8899x1019
    SuiteSparse matrix file is available locally."""
    found = find_gl7d12(path)
    if found is None:
        return CriterionResult(
            "gl7d12-reproduction", True,
            "matrix file not present (expected data/GL7d12.mtx); download "
            "GL7d12 from the SuiteSparse collection to enable", skipped=True)
    from .fileio import load_matrix

    A = load_matrix(found)
    m, n = A.shape
    if (m, n) != GL7D12_SHAPE:
        return CriterionResult(
            "gl7d12-reproduction", False,
            f"unexpected shape {A.shape} at {found}")
    config = SolverConfig(atol=1e-12, estimate_every=10, refine_steps=1,
                          max_iters=4000)
    problems = []
    t0 = time.perf_counter()
    for factor in (1.5, 6, 16):
        S = SketchOperator(kind="gaussian", rows=sketch_rows(factor, n),
                           cols=m, seed=seed)
        x, trace, stop = _traced_run(A, config, S, seed=seed)
        # ||A||_2 is resolved once, by the first run's power iteration.
        config = replace(config, norm_A_2=trace.norm_A_2 or None)
        rows = trace.rows
        if not rows:
            problems.append(f"factor {factor}: no trace rows")
            continue
        drop = trace.est_norm_Atr[0] / max(trace.est_norm_Atr[-1], 1e-300)
        if stop not in ("converged", "max_iters") or drop < 1e6:
            problems.append(f"factor {factor}: stop={stop} drop={drop:.1e}")
        for row in rows:  # a pair with a bound not computed (NaN) is skipped
            ub = row.ub_generous
            ordered = ((row.lb_fresh, ub), (row.lb_recycled, ub),
                       (ub, row.ub_deflation), (ub, row.norm_Atr / row.norm_r))
            if not all(lo - hi <= _bound_slack(hi, m, row.norm_r_theta)
                       for lo, hi in ordered
                       if not (math.isnan(lo) or math.isnan(hi))):
                problems.append(f"factor {factor} iter {row.iter}: ordering")
                break
        if factor >= 6:
            good = sum(1 for row in rows
                       if row.lb_fresh >= 0.2 * row.nu_sketched)
            if good < 0.9 * len(rows):
                problems.append(f"factor {factor}: lb tracks nu at "
                                f"{good}/{len(rows)}")
    elapsed = time.perf_counter() - t0
    return CriterionResult(
        "gl7d12-reproduction", not problems,
        f"problems={problems or 'none'} time={elapsed:.1f}s")


def run_all(trials: int | None = None, scale: float = 1.0, seed: int = 0,
            inject_failure: bool = False,
            gl7d12_path: str | None = None) -> list[CriterionResult]:
    results = [
        criterion_four_way(_count(200, trials, scale), seed),
        criterion_rank_one(_count(1000, trials, scale),
                           _count(200, trials, scale), seed),
        criterion_attainment(_count(200, trials, scale),
                             _count(10_000, trials, scale), seed,
                             inject_failure=inject_failure),
        criterion_decomposition(_count(200, trials, scale),
                                _count(10_000, trials, scale),
                                _count(8, trials, scale), seed),
        criterion_kw_chain(_count(200, trials, scale), seed),
        criterion_sketched_lb(_count(100, trials, scale),
                              _count(100, trials, scale), seed),
        criterion_hyperbolic_cs(_count(500, trials, scale), seed),
        criterion_trace_soundness(seed),
        criterion_gl7d12(gl7d12_path, seed),
    ]
    return results


__all__ = ["CriterionResult", "run_all", "find_gl7d12", "seeded_rhs",
           "criterion_four_way", "criterion_rank_one",
           "criterion_attainment", "criterion_decomposition",
           "criterion_kw_chain", "criterion_sketched_lb",
           "criterion_hyperbolic_cs", "criterion_trace_soundness",
           "criterion_gl7d12"]
