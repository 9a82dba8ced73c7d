"""LSMR least-squares solver with per-iteration backward-error estimates.

The solver runs the standard Golub-Kahan bidiagonalization recurrences that
minimize ||A'r|| over a growing Krylov subspace, and every estimate_every
iterations refreshes the residual explicitly, evaluates the configured
estimates and bounds on the weighted residual, and emits a trace row.
Every product with A (including those spent on estimation) is counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Callable

import numpy as np

from .core import (KWFactorization, MatrixOperator, is_sparse,
                   kw_factorization, theta_scale)
from .errors import DimensionMismatch, NoConvergence, ShiftNotPD
from .estimates import (RecycledDirection, lb_direction, lb_refine,
                        mu_rank_one, pair_basis, sketched_kw, ub_deflation,
                        ub_generous)
from .exact import mu_exact, mu_fixed_point


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for a solver run.

    atol drives the normwise stopping test ||A'r|| <= atol ||A||_F ||r||;
    estimate_every sets the trace cadence; recycle_threshold is compared
    against the recycled bound relative to ||A||_2; refine_steps counts
    refinement passes per trace row (0 disables); compute_true_mu adds the
    exact backward error to each row (A is densified only while factored
    at setup, keeping s and V; each row costs O(nnz + n^2));
    theta is the residual weighting, math.inf meaning normalization by
    ||x||.  norm_A_2 may supply a known spectral norm, otherwise it is
    estimated by power iteration at setup.
    """

    atol: float = 1e-12
    max_iters: int | None = None
    estimate_every: int = 1
    recycle_threshold: float = 1e-12
    refine_steps: int = 0
    compute_true_mu: bool = False
    theta: float = math.inf
    norm_A_2: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.atol) and self.atol > 0):
            raise ValueError("atol must be finite and positive")
        if self.estimate_every < 1:
            raise ValueError("estimate_every must be at least 1")
        if self.max_iters is not None and self.max_iters < 1:
            raise ValueError("max_iters must be at least 1 (or None)")
        if self.refine_steps < 0:
            raise ValueError("refine_steps must be nonnegative")
        if not (self.recycle_threshold >= 0):  # rejects NaN too
            raise ValueError("recycle_threshold must be nonnegative")
        if not (self.theta > 0):  # rejects NaN and nonpositive values
            raise ValueError("theta must be positive (math.inf allowed)")
        if self.norm_A_2 is not None and not (
                math.isfinite(self.norm_A_2) and self.norm_A_2 > 0):
            raise ValueError("norm_A_2 must be finite and positive (or None)")


@dataclass(frozen=True)
class TraceRow:
    """One traced iteration, and the trace schema: the CSV columns are its
    fields, in order.  Estimator fields are NaN when not computed (no
    sketch configured, refinement disabled, or true mu off)."""

    iter: int
    norm_r: float
    norm_Atr: float
    norm_r_theta: float
    nu_sketched: float
    lb_fresh: float
    lb_refined: float
    lb_recycled: float
    ub_deflation: float
    ub_generous: float
    mu_true: float
    matvec_count: int
    rmatvec_count: int


TRACE_COLUMNS = [f.name for f in fields(TraceRow)]


@dataclass
class SolverTrace:
    """Trace rows plus run-level diagnostics.

    est_norm_r / est_norm_Atr hold the solver's internal recurrence
    estimates for every iteration (not only traced ones), for drift
    auditing against the explicit values in the rows.
    """

    rows: list[TraceRow] = field(default_factory=list)
    est_norm_r: list[float] = field(default_factory=list)
    est_norm_Atr: list[float] = field(default_factory=list)
    norm_A_fro: float = 0.0
    norm_A_fro_source: str = "recurrence"
    norm_A_2: float = 0.0
    stop_reason: str = ""
    iterations: int = 0
    setup_matvecs: int = 0
    setup_rmatvecs: int = 0


# The counting operator under the name the quick start uses.
CountingOperator = MatrixOperator


def _sym_ortho(a: float, b: float) -> tuple[float, float, float]:
    """Stable Givens rotation: returns (c, s, r) with c*a + s*b = r,
    -s*a + c*b = 0."""
    if b == 0.0:
        return math.copysign(1.0, a), 0.0, abs(a)
    if a == 0.0:
        return 0.0, math.copysign(1.0, b), abs(b)
    if abs(b) > abs(a):
        tau = a / b
        s = math.copysign(1.0, b) / math.sqrt(1.0 + tau * tau)
        c = s * tau
        r = b / s
    else:
        tau = b / a
        c = math.copysign(1.0, a) / math.sqrt(1.0 + tau * tau)
        s = c * tau
        r = a / c
    return c, s, r


def _frobenius_norm(A) -> float | None:
    if is_sparse(A):
        # Sum duplicates before squaring, on a copy that keeps CSR/CSC order.
        A = A.copy() if hasattr(A, "sum_duplicates") else A.tocsr()
        A.sum_duplicates()
        return float(np.sqrt(np.sum(A.data ** 2)))
    if isinstance(A, np.ndarray):
        return float(np.linalg.norm(A))
    return None


def _power_spectral_norm(ops: MatrixOperator, steps: int = 20) -> float:
    """Spectral norm estimate by power iteration on A'A (seeded, so runs
    are reproducible)."""
    rng = np.random.default_rng(0x5EED)
    v = rng.standard_normal(ops.shape[1])
    nv = np.linalg.norm(v)
    if nv == 0.0:
        return 0.0
    v /= nv
    sigma2 = 0.0
    for _ in range(steps):
        w = ops.rmatvec(ops.matvec(v))
        sigma2 = float(np.linalg.norm(w))
        if sigma2 == 0.0:
            return 0.0
        v = w / sigma2
    return math.sqrt(sigma2)


def recycle_policy(row: TraceRow, config: SolverConfig) -> str:
    """Decide whether a recycled direction is still useful.

    Recompute when the recycled bound, relative to ||A||_2, has fallen
    below the configured threshold; keep otherwise.  config.norm_A_2 must
    be resolved (the solver always passes a resolved config).
    """
    if config.norm_A_2 is None:
        raise ValueError("recycle_policy needs a resolved norm_A_2")
    rel = row.lb_recycled / config.norm_A_2
    return "recompute" if rel < config.recycle_threshold else "keep"


class _TrueMu:
    """Exact backward error for trace rows from a cached factorization.

    The secular-equation route keeps full relative accuracy when mu is
    tiny, where the eigenvalue formula loses everything to cancellation
    against ||r_theta||^2; the eigenvalue route remains as fallback.  Only
    the singular values and right singular vectors of A are kept.
    """

    def __init__(self, A):
        self.A = A
        self.kwf = kw_factorization(A)

    def __call__(self, r_theta: np.ndarray) -> float:
        try:
            return mu_fixed_point(self.A, r_theta, kwf=self.kwf).mu
        except NoConvergence:
            return mu_exact(self.A, r_theta).mu


ESTIMATE_COLUMNS = ("nu_sketched", "lb_fresh", "lb_refined", "lb_recycled",
                    "ub_deflation", "ub_generous")


def estimate_bounds(ops, kwf: KWFactorization, r_theta, norm_r_theta: float,
                    At_r_theta, mu_est: float = 0.0, refine_steps: int = 0,
                    direction: RecycledDirection | None = None, itn: int = 0):
    """Evaluate the sketched estimator suite on one weighted residual.

    Returns (values, fresh): values maps each name in ESTIMATE_COLUMNS to a
    float (NaN when not computed), and fresh is the new RecycledDirection
    (None when the direction solve returned zero).  The direction solve
    resets mu_est to 0 when the shift is not positive definite; fresh
    records the value used.  lb_recycled is evaluated on direction, or on
    fresh when direction is None.  Products go through ops; norm_r_theta
    is passed in so callers keep their own rounding of ||r_theta||.
    """
    values = dict.fromkeys(ESTIMATE_COLUMNS, math.nan)
    values["nu_sketched"] = sketched_kw(kwf, At_r_theta, norm_r_theta)
    try:
        p_tilde = lb_direction(kwf, At_r_theta, norm_r_theta, mu_est)
    except ShiftNotPD:
        mu_est = 0.0
        p_tilde = lb_direction(kwf, At_r_theta, norm_r_theta, mu_est)
    np_t = float(np.linalg.norm(p_tilde))
    fresh = None
    if np_t > 0.0:
        p_hat = p_tilde / np_t
        fresh = RecycledDirection(p=p_hat, Ap=ops.matvec(p_hat), born_at=itn,
                                  mu_est_used=mu_est)
    recycled = fresh if direction is None else direction
    values["lb_recycled"] = (0.0 if recycled is None
                             else mu_rank_one(recycled.Ap, r_theta))
    if fresh is None:
        values["lb_fresh"] = 0.0
        return values, None
    Ap = fresh.Ap
    values["lb_fresh"] = mu_rank_one(Ap, r_theta)
    if refine_steps > 0:
        q = p_tilde
        for _ in range(refine_steps):
            q = lb_refine(q, kwf, ops, r_theta, norm_r_theta, mu_est)
        nq = float(np.linalg.norm(q))
        if nq > 0.0:
            values["lb_refined"] = mu_rank_one(ops.matvec(q / nq), r_theta)
    u_def = Ap - r_theta
    if float(np.linalg.norm(u_def)) > 0.0:
        values["ub_deflation"] = ub_deflation(u_def, r_theta,
                                              ops.rmatvec(u_def))
    if norm_r_theta > 0.0 or float(np.linalg.norm(Ap)) > 0.0:
        U = pair_basis(Ap, r_theta)
        rows_UA = np.stack([ops.rmatvec(U[:, i]) for i in range(U.shape[1])])
        values["ub_generous"] = ub_generous(rows_UA, U.T @ r_theta)
    return values, fresh


def _estimate_row(itn, ops, b, x, config, kwf, direction, true_mu):
    """Refresh the residual, evaluate the estimator suite, and build a
    trace row.  Returns (row, direction), where direction may have been
    replaced per the recycle policy."""
    r = b - ops.matvec(x)
    norm_r = float(np.linalg.norm(r))
    At_r = ops.rmatvec(r)
    norm_Atr = float(np.linalg.norm(At_r))
    cth = theta_scale(config.theta, float(np.linalg.norm(x)))

    values = dict.fromkeys(ESTIMATE_COLUMNS, math.nan)
    mu_t = norm_rth = math.nan
    fresh: RecycledDirection | None = None
    if math.isfinite(cth):
        r_th = cth * r
        norm_rth = cth * norm_r
        if true_mu is not None:
            mu_t = true_mu(r_th)
        if kwf is not None:
            values, fresh = estimate_bounds(
                ops, kwf, r_th, norm_rth, cth * At_r,
                refine_steps=config.refine_steps, direction=direction, itn=itn)

    row = TraceRow(
        iter=itn, norm_r=norm_r, norm_Atr=norm_Atr, norm_r_theta=norm_rth,
        mu_true=mu_t, matvec_count=ops.matvecs, rmatvec_count=ops.rmatvecs,
        **values)

    if fresh is not None and (direction is None
                              or recycle_policy(row, config) == "recompute"):
        direction = fresh
    return row, direction


def lsmr(A, b, config: SolverConfig | None = None,
         kwf: KWFactorization | None = None,
         stop_when: Callable[[TraceRow], bool] | None = None):
    """Minimize ||Ax - b|| by LSMR, tracing estimates along the way.

    kwf is the retained sketch factorization behind the estimates (None
    leaves the estimator columns NaN); stop_when, if given, sees every
    trace row and stops the run when it returns True.  Returns
    (x, trace, stop_reason) with stop_reason one of "converged" (the
    ||A'r|| test fired), "estimator" (stop_when fired), "breakdown" (the
    bidiagonalization produced a zero vector first), or "max_iters".
    """
    config = config or SolverConfig()
    ops = MatrixOperator(A)
    m, n = ops.shape
    b = np.asarray(b, dtype=float).ravel()
    if b.shape[0] != m:
        raise DimensionMismatch(f"b must have {m} entries")
    if not np.all(np.isfinite(b)):
        raise ValueError("b contains non-finite entries")

    norm_A_fro = _frobenius_norm(ops.matrix)
    if config.compute_true_mu and norm_A_fro is None:
        raise ValueError(
            "compute_true_mu needs A as an ndarray or a sparse matrix")
    fro_source = "input" if norm_A_fro is not None else "recurrence"
    norm_A_2 = config.norm_A_2 or _power_spectral_norm(ops)
    setup_mv, setup_rmv = ops.matvecs, ops.rmatvecs
    if norm_A_2 > 0.0:  # 0 for A = 0, which SolverConfig rejects
        config = replace(config, norm_A_2=norm_A_2)
    max_iters = config.max_iters or 5 * min(m, n)
    true_mu = _TrueMu(ops.matrix) if config.compute_true_mu else None

    trace = SolverTrace(norm_A_fro=norm_A_fro or 0.0,
                        norm_A_fro_source=fro_source, norm_A_2=norm_A_2,
                        setup_matvecs=setup_mv, setup_rmatvecs=setup_rmv)
    x = np.zeros(n)

    normb = float(np.linalg.norm(b))
    if normb == 0.0:
        trace.stop_reason = "converged"
        return x, trace, "converged"

    beta = normb
    u = b / beta
    v = ops.rmatvec(u)
    alpha = float(np.linalg.norm(v))
    if alpha == 0.0:
        # A'b = 0: the zero vector already satisfies the normal equations.
        trace.stop_reason = "converged"
        return x, trace, "converged"
    v = v / alpha

    zetabar = alpha * beta
    alphabar = alpha
    rho = rhobar = cbar = 1.0
    sbar = 0.0
    h = v.copy()
    hbar = np.zeros(n)

    betadd = beta
    betad = 0.0
    rhodold = 1.0
    tautildeold = 0.0
    thetatilde = 0.0
    zeta = 0.0

    normA2 = alpha * alpha
    stop_reason = ""
    direction: RecycledDirection | None = None

    itn = 0
    while itn < max_iters:
        itn += 1
        u = ops.matvec(v) - alpha * u
        beta = float(np.linalg.norm(u))
        zerovec = beta == 0.0
        if not zerovec:
            u = u / beta
            v = ops.rmatvec(u) - beta * v
            alpha = float(np.linalg.norm(v))
            if alpha == 0.0:
                zerovec = True
            else:
                v = v / alpha

        rhoold = rho
        c, s, rho = _sym_ortho(alphabar, beta)
        thetanew = s * alpha
        alphabar = c * alpha

        rhobarold = rhobar
        zetaold = zeta
        thetabar = sbar * rho
        cbar, sbar, rhobar = _sym_ortho(cbar * rho, thetanew)
        zeta = cbar * zetabar
        zetabar = -sbar * zetabar

        if rho == 0.0 or rhobar == 0.0:
            stop_reason = "breakdown"
            break

        hbar = h - (thetabar * rho / (rhoold * rhobarold)) * hbar
        x = x + (zeta / (rho * rhobar)) * hbar
        h = v - (thetanew / rho) * h

        # Residual-norm recurrence (no damping, so the first rotation layer
        # is the identity).
        betahat = c * betadd
        betadd = -s * betadd
        thetatildeold = thetatilde
        ctildeold, stildeold, rhotildeold = _sym_ortho(rhodold, thetabar)
        thetatilde = stildeold * rhobar
        rhodold = ctildeold * rhobar
        betad = -stildeold * betad + ctildeold * betahat
        tautildeold = (zetaold - thetatildeold * tautildeold) / rhotildeold
        taud = (zeta - thetatilde * tautildeold) / rhodold
        normr_est = math.sqrt((betad - taud) ** 2 + betadd ** 2)

        normA2 += beta * beta
        normA_est = math.sqrt(normA2)
        normA2 += alpha * alpha
        normar_est = abs(zetabar)

        trace.est_norm_r.append(normr_est)
        trace.est_norm_Atr.append(normar_est)

        normA_stop = norm_A_fro if norm_A_fro is not None else normA_est
        converged = normar_est <= config.atol * normA_stop * normr_est
        last = converged or zerovec or itn == max_iters

        if itn % config.estimate_every == 0 or last:
            row, direction = _estimate_row(
                itn, ops, b, x, config, kwf, direction, true_mu)
            trace.rows.append(row)
            if stop_when is not None and stop_when(row):
                stop_reason = "estimator"
                break
        if converged:
            stop_reason = "converged"
            break
        if zerovec:
            stop_reason = "breakdown"
            break

    if not stop_reason:
        stop_reason = "max_iters"
    trace.stop_reason = stop_reason
    trace.iterations = itn
    return x, trace, stop_reason


__all__ = [
    "SolverConfig", "SolverTrace", "TraceRow", "TRACE_COLUMNS",
    "CountingOperator", "lsmr", "recycle_policy", "estimate_bounds",
]
