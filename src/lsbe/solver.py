"""LSMR least-squares solver with per-iteration backward-error estimates.

The solver runs the standard Golub-Kahan bidiagonalization recurrences that
minimize ||A'r|| over a growing Krylov subspace, and every estimate_every
iterations refreshes the residual explicitly, evaluates the configured
estimates and bounds on the weighted residual, and emits a trace row.
Every product with A (including those spent on estimation) is counted.
"""

from __future__ import annotations

import contextlib
import math
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from types import SimpleNamespace
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
    exact backward error to each row (A is densified only while it is
    factored, keeping s and V, and lsmr takes that factorization as
    exact= when the caller already has it, as `lsbe solve --true-mu on`
    does, from a future computed beside the recurrence; each row costs
    O(nnz + n^2));
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
    auditing against the explicit values in the rows.  setup_matvecs and
    setup_rmatvecs count the products spent before the first iteration
    (the power-iteration norm estimate).  factored_at_iter is the
    iteration the recurrence had reached when factorizations passed as
    futures landed, 0 when they were passed in ready.  row_block_size is
    the number of rows evaluated together (see lsmr), row_blocks the
    number of blocks evaluated and row_s the seconds spent evaluating
    them, waits for the factorizations excluded.
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
    factored_at_iter: int = 0
    row_block_size: int = 1
    row_blocks: int = 0
    row_s: float = 0.0


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
    below the configured threshold; keep otherwise.  Only row.lb_recycled
    is read, so row may be any object with it (the solver passes a row's
    estimator values before the row is built).  config.norm_A_2 must be
    resolved (the solver always passes a resolved config).
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
    the singular values and right singular vectors of A are kept: kwf
    when given, kw_factorization(A) otherwise.
    """

    def __init__(self, A, kwf: KWFactorization | None = None):
        self.A = A
        self.kwf = kw_factorization(A) if kwf is None else kwf

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

    This is lsmr's estimator pass on a block of one row, and gives that
    row bit for bit.  lsmr refines the directions of a block of rows with
    one batched solve per step, so there lb_refined may move in its last
    bits (see lsmr); every other value is computed per row.
    """
    (values,), _, fresh = _estimate_rows(
        ops, kwf, [r_theta], [norm_r_theta], [At_r_theta], [itn],
        refine_steps, direction, mu_est=mu_est)
    return values, fresh


def _estimate_rows(ops, kwf: KWFactorization, R, norms, At_R, itns,
                   refine_steps: int, direction: RecycledDirection | None,
                   config: SolverConfig | None = None, mu_est: float = 0.0):
    """The estimator suite on a block of weighted residuals R (with their
    norms, A'R rows and iterations), in one pass.

    Each row in turn gets its _estimate_row work, then the recycle
    decision, so the next row sees the direction carried on: with config,
    as recycle_policy decides, else the row's own fresh direction (None
    without one).  Then each refinement step is one lb_refine on the stack
    of the rows' directions (a matvec and an rmatvec per row, and one
    batched solve with kwf), and each refined direction is evaluated with
    one matvec (none when it is zero).  Returns (values, spent, direction):
    per row a dict over ESTIMATE_COLUMNS and the (matvecs, rmatvecs) its
    estimates cost, and the direction carried out of the block.
    """
    values, spent, refined = [], [], []  # refined: (row, lb_refine's inputs)
    for r_theta, norm_r_theta, At_r_theta, itn in zip(R, norms, At_R, itns):
        row, fresh, p_tilde, products = _estimate_row(
            ops, kwf, r_theta, norm_r_theta, At_r_theta, mu_est, direction,
            itn)
        if fresh is not None:
            refined.append((len(values), p_tilde, r_theta, norm_r_theta,
                            fresh.mu_est_used))
        values.append(row)
        spent.append(products)
        if config is None or (fresh is not None and (
                direction is None or recycle_policy(
                    SimpleNamespace(**row), config) == "recompute")):
            direction = fresh
    if refine_steps > 0 and refined:
        at, P, Rr, norms_r, mu_ests = zip(*refined)
        P, Rr = np.stack(P), np.stack(Rr)
        for _ in range(refine_steps):
            P = lb_refine(P, kwf, ops, Rr, norms_r, mu_ests)
        for i, q in zip(at, P):
            nq = float(np.linalg.norm(q))
            if nq > 0.0:
                values[i]["lb_refined"] = mu_rank_one(ops.matvec(q / nq),
                                                      R[i])
            spent[i] = (spent[i][0] + refine_steps + (nq > 0.0),
                        spent[i][1] + refine_steps)
    return values, spent, direction


def _estimate_row(ops, kwf, r_theta, norm_r_theta, At_r_theta, mu_est,
                  direction, itn):
    """One row's estimator work, all but the refinement: returns (values,
    fresh, p_tilde, spent) with values["lb_refined"] NaN, fresh the new
    RecycledDirection (None when the direction solve returned zero),
    p_tilde that solve's direction and spent its (matvecs, rmatvecs)."""
    values = dict.fromkeys(ESTIMATE_COLUMNS, math.nan)
    At_r_theta = np.asarray(At_r_theta, dtype=float).ravel()
    z = kwf.coordinates(At_r_theta)  # shared by nu and the direction
    values["nu_sketched"] = sketched_kw(kwf, At_r_theta, norm_r_theta, z=z)
    try:
        p_tilde = lb_direction(kwf, At_r_theta, norm_r_theta, mu_est, z=z)
    except ShiftNotPD:
        mu_est = 0.0
        p_tilde = lb_direction(kwf, At_r_theta, norm_r_theta, mu_est, z=z)
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
        return values, None, p_tilde, (0, 0)
    Ap = fresh.Ap
    values["lb_fresh"] = mu_rank_one(Ap, r_theta)
    rmatvecs = 0
    u_def = Ap - r_theta
    if float(np.linalg.norm(u_def)) > 0.0:
        rmatvecs += 1
        values["ub_deflation"] = ub_deflation(u_def, r_theta,
                                              ops.rmatvec(u_def))
    if norm_r_theta > 0.0 or float(np.linalg.norm(Ap)) > 0.0:
        U = pair_basis(Ap, r_theta)
        rmatvecs += U.shape[1]
        rows_UA = np.stack([ops.rmatvec(U[:, i]) for i in range(U.shape[1])])
        values["ub_generous"] = ub_generous(rows_UA, U.T @ r_theta)
    return values, fresh, p_tilde, (1, rmatvecs)


def _checked_rhs(b, m: int) -> np.ndarray:
    """b as a flat float array, after lsmr's check that it has m finite
    entries (lsbe solve runs it before it factors anything)."""
    b = np.asarray(b, dtype=float).ravel()
    if b.shape[0] != m:
        raise DimensionMismatch(f"b must have {m} entries")
    if not np.all(np.isfinite(b)):
        raise ValueError("b contains non-finite entries")
    return b


# Due rows are evaluated in blocks of this many, so that each refinement
# step solves the whole block with one gemm, which reads the n x n factor
# once, instead of one gemv per row.
ROW_BLOCK = 32


class _Rows:
    """The trace rows of one lsmr run, evaluated in iteration order once
    the factorizations behind them are at hand.

    kwf and exact may be Futures.  _land alone resolves them and builds
    the true mu, factoring A when exact is None: at set-up when none is
    pending, else once all have landed (so beside a pending kwf, A is
    factored at landing), with the same rows either way.  While one is
    pending, a due row keeps its iterate (the recurrence rebinds x every
    step, so this is no copy) and the recurrence's product counts, for
    at most n rows, the memory of one n x n factor.  At that cap, and at
    every row when stop_when is given (a stop cannot be deferred), the
    recurrence waits.

    Rows are evaluated in blocks of consecutive rows, counted from the
    first row, so a row does not depend on when the futures land.  The
    block size is ROW_BLOCK, capped so that the residuals a block keeps
    for its refinement hold no more than n x n floats (block * m <= n^2,
    and at least 1); it is 1 without refinement, which has nothing to
    batch, and with stop_when.  A block refreshes each row's residual
    (and its true mu), then runs one _estimate_rows pass on the weighted
    residuals.  ops is the estimator suite's own operator, and a row's
    counts are the recurrence's at its iteration plus the running sum of
    the products of every row evaluated up to and including it (its
    refresh and what _estimate_rows returns for it): what one shared
    operator counts when each row is evaluated as it falls due.
    """

    def __init__(self, ops, b, config, kwf, exact, stop_when, trace):
        self.ops, self.b, self.config = ops, b, config
        self.kwf, self.exact = kwf, exact
        self.stop_when, self.trace = stop_when, trace
        self.pending = [f for f in (kwf, exact) if isinstance(f, Future)]
        self.true_mu = None
        self.kept = []  # (itn, x, recurrence counts) of unevaluated rows
        self.direction: RecycledDirection | None = None
        self.spent = (0, 0)  # products of the rows evaluated so far
        m, n = ops.shape
        self.block = (1 if config.refine_steps == 0 or stop_when is not None
                      else max(1, min(ROW_BLOCK, n * n // m)))
        trace.row_block_size = self.block
        if not self.pending:
            self._land(0)

    def poll(self, itn: int) -> None:
        """Between iterations while a factorization is pending: a failed
        one raises its exception; once all have landed, the kept rows are
        evaluated, in full blocks."""
        landed = [f for f in self.pending if f.done()]
        for f in landed:
            f.result()
        if len(landed) == len(self.pending):
            self._land(itn)

    def due(self, itn: int, x: np.ndarray, counts: tuple[int, int]) -> bool:
        """Take the row due at iteration itn, where the recurrence has
        taken counts (matvecs, rmatvecs); True when stop_when stops the
        run."""
        self.kept.append((itn, x, counts))
        if not self.pending:
            self._evaluate_kept()
        elif (self.stop_when is not None
              or len(self.kept) >= self.ops.shape[1]):
            self._land(itn)
        return self.stop_when is not None and self.stop_when(
            self.trace.rows[-1])

    def finish(self, itn: int) -> None:
        """Wait for the pending factorizations and evaluate every kept
        row, the last block short if need be."""
        if self.pending:
            self._land(itn)
        self._evaluate_kept(tail=True)

    def _land(self, itn: int) -> None:
        """Resolve kwf, then exact, build the true mu, evaluate kept rows."""
        self.kwf, exact = (f.result() if isinstance(f, Future) else f
                           for f in (self.kwf, self.exact))
        if self.config.compute_true_mu:
            self.true_mu = _TrueMu(self.ops.matrix, exact)
        self.pending = []
        self.trace.factored_at_iter = itn
        self._evaluate_kept()

    def _evaluate_kept(self, tail: bool = False) -> None:
        while len(self.kept) >= self.block or (tail and self.kept):
            block, self.kept = self.kept[:self.block], self.kept[self.block:]
            self._evaluate(block)

    def _evaluate(self, block) -> None:
        """Refresh the residual of each row of block, run the estimator
        pass on the weighted ones, and append the rows."""
        start = time.perf_counter()
        ops, config = self.ops, self.config
        rows, weighted = [], []  # weighted: _estimate_rows's inputs
        for itn, x, _ in block:
            r = self.b - ops.matvec(x)
            norm_r = float(np.linalg.norm(r))
            At_r = ops.rmatvec(r)
            norm_Atr = float(np.linalg.norm(At_r))
            cth = theta_scale(config.theta, float(np.linalg.norm(x)))
            mu_t = norm_rth = math.nan
            if math.isfinite(cth):
                r_th = cth * r
                norm_rth = cth * norm_r
                if self.true_mu is not None:
                    mu_t = self.true_mu(r_th)
                weighted.append((len(rows), itn, r_th, norm_rth, cth * At_r))
            rows.append(TraceRow(
                iter=itn, norm_r=norm_r, norm_Atr=norm_Atr,
                norm_r_theta=norm_rth, mu_true=mu_t, matvec_count=0,
                rmatvec_count=0, **dict.fromkeys(ESTIMATE_COLUMNS, math.nan)))
        spent = [(1, 1)] * len(rows)  # the refresh
        if weighted and self.kwf is not None:
            at, itns, R, norms, At_R = zip(*weighted)
            values, products, self.direction = _estimate_rows(
                ops, self.kwf, R, norms, At_R, itns, config.refine_steps,
                self.direction, config)
            for i, v, (mv, rmv) in zip(at, values, products):
                rows[i] = replace(rows[i], **v)
                spent[i] = (1 + mv, 1 + rmv)
        for (_, _, counts), row, (mv, rmv) in zip(block, rows, spent):
            self.spent = (self.spent[0] + mv, self.spent[1] + rmv)
            self.trace.rows.append(replace(
                row, matvec_count=counts[0] + self.spent[0],
                rmatvec_count=counts[1] + self.spent[1]))
        self.trace.row_blocks += 1
        self.trace.row_s += time.perf_counter() - start


def lsmr(A, b, config: SolverConfig | None = None,
         kwf: KWFactorization | Future | None = None,
         stop_when: Callable[[TraceRow], bool] | None = None,
         exact: KWFactorization | Future | None = None):
    """Minimize ||Ax - b|| by LSMR, tracing estimates along the way.

    kwf is the retained sketch factorization behind the estimates (None
    leaves the estimator columns NaN); stop_when, if given, sees every
    trace row and stops the run when it returns True; exact, only with
    config.compute_true_mu, is kw_factorization(A) behind mu_true (None
    factors A once kwf is at hand).  kwf and exact may also be
    concurrent.futures.Future objects that another thread resolves: while
    they are pending the recurrence runs on, keeping up to n due iterates
    (then it waits; with stop_when it waits at the first row), and the
    rows come out bit for bit as the ready factorizations give them.  A
    future that fails stops the run at its next iteration with its
    exception, and lsmr returns only once every future has landed.

    With refinement and no stop_when, due rows are evaluated in blocks of
    up to ROW_BLOCK consecutive rows (fewer when block * m would exceed
    n^2, so the residuals a block keeps stay within one n x n factor).  A
    block is one estimator pass: each row's own estimates and recycle
    decision in turn, then each refinement step for the whole block with
    one gemm, which sums in another order than a row's own solve.  So
    lb_refined may move against evaluating each row on its own, as
    estimate_bounds does, by about one rounding of ||r_theta||: below
    1e-15 relative unless mu is far below ||r_theta||, where a'r cancels
    and the relative change grows (up to 2.4e-9 at mu/||r_theta|| =
    1e-8).  Every other column and every count is computed per row and
    is bit for bit the same.
    Blocks are counted from the first row, so rows do not depend on when
    futures land.  Returns (x, trace, stop_reason) with stop_reason one
    of "converged" (the ||A'r|| test fired), "estimator" (stop_when
    fired), "breakdown" (the bidiagonalization produced a zero vector
    first), or "max_iters".
    """
    config = config or SolverConfig()
    ops = MatrixOperator(A)
    m, n = ops.shape
    b = _checked_rhs(b, m)

    norm_A_fro = _frobenius_norm(ops.matrix)
    if config.compute_true_mu and norm_A_fro is None:
        raise ValueError(
            "compute_true_mu needs A as an ndarray or a sparse matrix")
    if exact is not None and not config.compute_true_mu:
        raise ValueError("exact is the factorization behind compute_true_mu")
    fro_source = "input" if norm_A_fro is not None else "recurrence"
    norm_A_2 = config.norm_A_2 or _power_spectral_norm(ops)
    setup_mv, setup_rmv = ops.matvecs, ops.rmatvecs
    if norm_A_2 > 0.0:  # 0 for A = 0, which SolverConfig rejects
        config = replace(config, norm_A_2=norm_A_2)
    max_iters = config.max_iters or 5 * min(m, n)

    trace = SolverTrace(norm_A_fro=norm_A_fro or 0.0,
                        norm_A_fro_source=fro_source, norm_A_2=norm_A_2,
                        setup_matvecs=setup_mv, setup_rmatvecs=setup_rmv)
    rows = _Rows(MatrixOperator(A), b, config, kwf, exact, stop_when, trace)
    x = np.zeros(n)

    normb = float(np.linalg.norm(b))
    if normb == 0.0:
        rows.finish(0)
        trace.stop_reason = "converged"
        return x, trace, "converged"

    beta = normb
    u = b / beta
    v = ops.rmatvec(u)
    alpha = float(np.linalg.norm(v))
    if alpha == 0.0:
        # A'b = 0: the zero vector already satisfies the normal equations.
        rows.finish(0)
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

    itn = 0
    while itn < max_iters:
        if rows.pending:
            rows.poll(itn)
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

        if ((itn % config.estimate_every == 0 or last)
                and rows.due(itn, x, (ops.matvecs, ops.rmatvecs))):
            stop_reason = "estimator"
            break
        if converged:
            stop_reason = "converged"
            break
        if zerovec:
            stop_reason = "breakdown"
            break

    rows.finish(itn)
    if not stop_reason:
        stop_reason = "max_iters"
    trace.stop_reason = stop_reason
    trace.iterations = itn
    return x, trace, stop_reason


@contextlib.contextmanager
def _factorizations(A, sketch, exact: bool):
    """Yield futures (kwf, exact): kw_factorization(A, sketch=sketch) and,
    when exact is true, kw_factorization(A) (else None), computed on the
    one two-worker lsbe-factor pool of lsbe estimate, lsbe solve and the
    trace criterion.  LAPACK releases the interpreter lock, so on two
    free cores the pair costs about the longer of the two.  Leaving the
    block waits for both, even on an error or an interrupt."""
    with ThreadPoolExecutor(max_workers=2,
                            thread_name_prefix="lsbe-factor") as pool:
        # A first: the sparse-sign draw holds the GIL and would hold A back.
        exact = pool.submit(kw_factorization, A) if exact else None
        yield pool.submit(kw_factorization, A, sketch=sketch), exact


def _lsmr_beside_factorization(A, b, config: SolverConfig, sketch):
    """lsmr(A, b, config, kwf, exact=exact) on the calling thread, with
    kwf (the factorization of S A) and, with config.compute_true_mu,
    exact (that of A) futures of _factorizations.  A factorization that
    fails stops lsmr at its next iteration; an interrupt stops it at
    once, and the call returns once the factorizations running finish.
    """
    with _factorizations(A, sketch, config.compute_true_mu) as (kwf, exact):
        return lsmr(A, b, config, kwf, exact=exact)


__all__ = [
    "SolverConfig", "SolverTrace", "TraceRow", "TRACE_COLUMNS",
    "lsmr", "recycle_policy", "estimate_bounds",
]
