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
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from typing import Callable

import numpy as np

from .core import (KWFactorization, MatrixOperator, is_sparse,
                   kw_factorization, take_svd_turns, theta_scale)
from .errors import DimensionMismatch, NoConvergence, ShiftNotPD
from .estimates import (RecycledDirection, _shifts, lb_direction, lb_refine,
                        mu_rank_one, pair_basis, sketched_kw, ub_deflation,
                        ub_generous)
from .exact import mu_fixed_point, mu_sigma_min


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for a solver run.

    atol drives the normwise stopping test ||A'r|| <= atol ||A||_F ||r||;
    estimate_every sets the trace cadence; refine_steps counts refinement
    passes per trace row (0 disables); compute_true_mu adds the exact
    backward error to each row (A is made dense only a chunk of rows at
    a time while it is factored, keeping s and V, and lsmr takes that
    factorization as exact= when the caller already has it, as `lsbe
    solve --true-mu on` does, from a future computed beside the
    recurrence; each row costs O(nnz + n^2));
    theta is the residual weighting, math.inf meaning normalization by
    ||x||.  norm_A_2 may supply a known spectral norm, otherwise it is
    estimated by power iteration at setup.  No knob governs lb_recycled:
    each row takes it on the most recent earlier row's fresh direction.
    """

    atol: float = 1e-12
    max_iters: int | None = None
    estimate_every: int = 1
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
    setup_rmatvecs count the products of the set-up, the power-iteration
    norm estimate, spent on an operator of its own: a row's counts never
    include them.  factored_at_iter is the iteration the recurrence had
    reached when factorizations passed as futures landed, 0 when they
    were passed in ready.  row_block_size is the number of rows evaluated
    together (see lsmr), row_blocks the number of blocks evaluated and
    row_s the seconds spent evaluating them, waits for the factorizations
    excluded.
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


def _power_spectral_norm(ops: MatrixOperator) -> float:
    """Spectral norm estimate by 20 steps of power iteration on A'A
    (seeded, so runs are reproducible)."""
    rng = np.random.default_rng(0x5EED)
    v = rng.standard_normal(ops.shape[1])
    nv = np.linalg.norm(v)
    if nv == 0.0:
        return 0.0
    v /= nv
    sigma2 = 0.0
    for _ in range(20):
        w = ops.rmatvec(ops.matvec(v))
        sigma2 = float(np.linalg.norm(w))
        if sigma2 == 0.0:
            return 0.0
        v = w / sigma2
    return math.sqrt(sigma2)


def _resolved_norm(A, config: SolverConfig, norm_A_fro: float | None = None):
    """(config, products): config with norm_A_2 set, unless given, by
    _power_spectral_norm on an operator of its own, and the (matvecs,
    rmatvecs) that spent.  A norm of 0 (A = 0) is not stored, since
    SolverConfig rejects it; a known norm_A_fro of 0 gives it without a
    product, so lsmr does not repeat _traced_run's power iteration."""
    if config.norm_A_2 is not None or norm_A_fro == 0.0:
        return config, (0, 0)
    power = MatrixOperator(A)
    norm_A_2 = _power_spectral_norm(power)
    if norm_A_2 > 0.0:
        config = replace(config, norm_A_2=norm_A_2)
    return config, (power.matvecs, power.rmatvecs)


def seeded_rhs(A, norm_A_2: float, rng) -> np.ndarray:
    """b = A x + 1e-4 ||A||_2 w for the trace runs: x, then w, drawn from
    rng as Gaussians of unit expected norm."""
    m, n = A.shape
    x_true = rng.standard_normal(n) / math.sqrt(n)
    w = rng.standard_normal(m) / math.sqrt(m)
    return A @ x_true + 1e-4 * norm_A_2 * w


class _TrueMu:
    """Exact backward error for trace rows from a cached factorization.

    The secular-equation route keeps full relative accuracy when mu is
    tiny, where the eigenvalue formula loses everything to cancellation
    against ||r_theta||^2.  Should its Newton iteration not converge, the
    singular value route mu_sigma_min (O(m n^2) per row, accurate to
    about eps (||A||_2 + ||r_theta||)) gives the row instead; over the
    227 true-mu rows of solve-converge on stand-in seeds 1-2 Newton took
    at most 6 iterations, so it never fires there.  Only the singular
    values and right singular vectors of A are kept: kwf when given,
    kw_factorization(A) otherwise.
    """

    def __init__(self, A, kwf: KWFactorization | None = None):
        self.A = A
        self.kwf = kw_factorization(A) if kwf is None else kwf

    def __call__(self, r_theta: np.ndarray) -> float:
        try:
            return mu_fixed_point(self.A, r_theta, kwf=self.kwf).mu
        except NoConvergence:
            return mu_sigma_min(self.A, r_theta).mu


ESTIMATE_COLUMNS = ("nu_sketched", "lb_fresh", "lb_refined", "lb_recycled",
                    "ub_deflation", "ub_generous")


def estimate_bounds(ops, kwf: KWFactorization, r_theta, norm_r_theta: float,
                    At_r_theta, mu_est: float = 0.0, refine_steps: int = 0,
                    direction: RecycledDirection | None = None):
    """Evaluate the sketched estimator suite on one weighted residual.

    Returns (values, carried): values maps each name in ESTIMATE_COLUMNS
    to a float (NaN when not computed), and carried is the
    RecycledDirection the next row's lb_recycled uses: this row's fresh
    direction, or direction when the fresh one is zero (A'r_theta = 0).
    The direction solve resets mu_est to 0 when the shift is not positive
    definite; the fresh direction records the value used.  lb_recycled is
    evaluated on direction, or on the fresh one when direction is None
    (0 without either).  Products go through ops; norm_r_theta is passed
    in so callers keep their own rounding of ||r_theta||.

    This is lsmr's estimator pass on a block of one row, and gives that
    row bit for bit.  lsmr runs the pass on blocks of rows, whose
    coordinates, direction solves and refinement solves are gemms over
    the block, so there the estimator columns may move in their last bits
    against this call (see lsmr).
    """
    (values,), _, carried = _estimate_rows(
        ops, kwf, [r_theta], [norm_r_theta], [At_r_theta], refine_steps,
        direction, mu_est=mu_est)
    return values, carried


def _estimate_rows(ops, kwf: KWFactorization, R, norms, At_R,
                   refine_steps: int, direction: RecycledDirection | None,
                   mu_est: float = 0.0):
    """The estimator suite on a block of weighted residuals R (with their
    norms and A'R rows), stage by stage.

    First the block's lower-bound step (_estimate_row).  Then lb_recycled,
    each row on the most recent earlier fresh direction: the direction
    carried in (the first row's own when that is None), and a row without
    a fresh direction passes the earlier one on.  It costs no product:
    mu_rank_one on stacks of ROW_CHUNK rows of the carried Ap, a zero row
    (so lb_recycled 0) where no direction is carried.  Then the upper
    bounds from the rows' fresh Ap, on stacks of ROW_CHUNK rows: the
    deflators with ub_deflation and the pair bases, an rmatvec per nonzero
    deflator and per basis column, and ub_generous per row.  Then each
    refinement step is one lb_refine on the stack of the rows' directions
    (a matvec and an rmatvec per row, and one batched solve with kwf), and
    each refined direction is evaluated with one matvec (none when it is
    zero) and lb_refined, again on stacks of ROW_CHUNK rows.  Returns
    (values, spent, direction): per row a dict over ESTIMATE_COLUMNS and
    the (matvecs, rmatvecs) its estimates cost, and the direction carried
    out of the block.
    """
    R = np.ascontiguousarray(R, dtype=float)
    norms = np.asarray(norms, dtype=float)
    cols, fresh, P, AP = _estimate_row(ops, kwf, R, norms, At_R, mu_est)
    for col in ESTIMATE_COLUMNS:
        cols.setdefault(col, np.full(len(R), math.nan))
    carried_Ap = np.zeros_like(R)
    for i, new in enumerate(fresh):
        carried = direction or new
        if carried is not None:
            carried_Ap[i] = carried.Ap
        direction = new or direction
    for lo in range(0, len(R), ROW_CHUNK):
        c = slice(lo, lo + ROW_CHUNK)
        cols["lb_recycled"][c] = mu_rank_one(carried_Ap[c], R[c])
    has = np.array([new is not None for new in fresh])
    at = np.flatnonzero(has)
    matvecs, rmatvecs = has.astype(int), np.zeros(len(R), dtype=int)
    for c in _chunks(at):
        R_c, AP_c = R[c], AP[c]
        U = AP_c - R_c
        live = np.vecdot(U, U) > 0.0
        if live.any():
            U, R_l = _rows(live, U, R_c)
            cols["ub_deflation"][c[live]] = ub_deflation(
                U, R_l, np.stack([ops.rmatvec(u) for u in U]))
            rmatvecs[c[live]] += 1
        paired = (norms[c] > 0.0) | (np.vecdot(AP_c, AP_c) > 0.0)
        if paired.any():
            AP_p, R_p = _rows(paired, AP_c, R_c)
            for i, B, rank, r in zip(c[paired], *pair_basis(AP_p, R_p),
                                     R_p):
                B = B[:, :rank]
                rows_UA = np.stack([ops.rmatvec(u) for u in B.T])
                cols["ub_generous"][i] = ub_generous(rows_UA, B.T @ r)
                rmatvecs[i] += B.shape[1]
    if refine_steps > 0 and at.size:
        Q, R_at = _rows(has, P, R)
        mu_used = [fresh[i].mu_est_used for i in at]
        for _ in range(refine_steps):
            Q = lb_refine(Q, kwf, ops, R_at, norms[at], mu_used)
        norm_Q = np.sqrt(np.vecdot(Q, Q))
        for c in _chunks(np.flatnonzero(norm_Q > 0.0)):
            AQ = np.stack([ops.matvec(q) for q in Q[c] / norm_Q[c, None]])
            cols["lb_refined"][at[c]] = mu_rank_one(AQ, R_at[c])
        matvecs[at] += refine_steps + (norm_Q > 0.0)
        rmatvecs[at] += refine_steps
    values = [dict(zip(ESTIMATE_COLUMNS, row)) for row in zip(
        *(cols[c].tolist() for c in ESTIMATE_COLUMNS))]
    return values, list(zip(matvecs.tolist(), rmatvecs.tolist())), direction


# Rows that a stage of m-vector arithmetic takes at a time.  A chunk's
# stacks on the GL7d12 stand-in (m = 8899) stay in a 2 MB L2 cache, and
# its products read vectors just written, where a whole block's stacks
# spill to memory: the row pass of solve-trace seed 1 took 0.57 s chunk by
# chunk against 0.67 s block-wide (medians of 20, one BLAS thread).
ROW_CHUNK = 4


def _chunks(rows):
    """The index array rows in consecutive runs of at most ROW_CHUNK."""
    return [rows[i:i + ROW_CHUNK] for i in range(0, len(rows), ROW_CHUNK)]


def _rows(mask, *stacks):
    """The rows of each stack where mask holds: the stacks themselves,
    uncopied, when it holds on every row."""
    return stacks if mask.all() else tuple(X[mask] for X in stacks)


def _estimate_row(ops, kwf, R, norms, At_R, mu_est):
    """The lower-bound step of a block of rows, which lsmr, lsbe estimate
    and the acceptance criteria run (the last two on a block of one): R
    (k, m) weighted residuals, with their norms and A'R rows (k, n), and
    one mu_est that every row starts from.

    Returns (cols, fresh, P, AP).  cols maps nu_sketched and lb_fresh to
    arrays (k,).  P (k, n) holds the direction solves, zero on rows with
    A'r_theta = 0 (whose direction is 0 at any shift, so none runs).
    fresh holds per row the RecycledDirection of P's row (None when that
    row is 0) with the mu_est it used, reset to 0 on rows whose shift is
    not positive definite.  AP (k, m) holds the products of the unit
    directions, one matvec per fresh direction, and zero rows elsewhere,
    where lb_fresh is 0.

    nu and the directions share one gemm, Z = A'R V, and the solves are
    one more (lb_direction on the stack, one shift per row).  The rest is
    vector arithmetic on stacks, each row bitwise what a block of one
    gets: the unit directions over the block, and a matvec per fresh
    direction then lb_fresh over chunks of ROW_CHUNK rows.
    """
    k = len(R)
    norms = np.asarray(norms, dtype=float)
    At_R = np.ascontiguousarray(At_R, dtype=float)
    Z = kwf.coordinates(At_R)
    nu = sketched_kw(kwf, At_R, norms, z=Z)
    mu_est = float(mu_est)
    mu_used = [mu_est] * k
    live = At_R.any(axis=1)
    P = np.zeros_like(At_R)
    if live.any():
        At_l, norms_l, Z_l = _rows(live, At_R, norms, Z)
        try:
            P[live] = lb_direction(kwf, At_l, norms_l, mu_est, z=Z_l)
        except ShiftNotPD:
            mu_used = np.where(kwf.definite(_shifts(norms, mu_est)), mu_est,
                               0.0)
            P[live] = lb_direction(kwf, At_l, norms_l, mu_used[live], z=Z_l)
            mu_used = mu_used.tolist()
    norm_P = np.sqrt(np.vecdot(P, P)).tolist()
    AP = np.empty_like(R)
    lb = np.empty(k)
    fresh = [None] * k
    for lo in range(0, k, ROW_CHUNK):
        c = slice(lo, lo + ROW_CHUNK)
        for i in range(lo, min(lo + ROW_CHUNK, k)):
            if norm_P[i] == 0.0:
                AP[i] = 0.0
                continue
            p_hat = P[i] / norm_P[i]
            AP[i] = ops.matvec(p_hat)
            fresh[i] = RecycledDirection(p=p_hat, Ap=AP[i],
                                         mu_est_used=mu_used[i])
        lb[c] = mu_rank_one(AP[c], R[c])
    return {"nu_sketched": nu, "lb_fresh": lb}, fresh, P, AP


def _checked_rhs(b, m: int) -> np.ndarray:
    """b as a flat float array, after lsmr's check that it has m finite
    entries (lsbe solve runs it before it factors anything)."""
    b = np.asarray(b, dtype=float).ravel()
    if b.shape[0] != m:
        raise DimensionMismatch(f"b must have {m} entries")
    if not np.all(np.isfinite(b)):
        raise ValueError("b contains non-finite entries")
    return b


# Due rows are evaluated in blocks of this many, so that the coordinates,
# the direction solve and each refinement step are one gemm over the
# block, which reads the n x n factor once, instead of one gemv per row.
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
    block size is ROW_BLOCK, capped so that each m-vector stack a block
    works on (its residuals, products, deflators and pair bases) holds no
    more than n x n floats (block * m <= n^2, and at least 1); it is 1
    with stop_when.  A block refreshes each row's residual
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
        self.block = (1 if stop_when is not None
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
                weighted.append((len(rows), r_th, norm_rth, cth * At_r))
            rows.append(dict(iter=itn, norm_r=norm_r, norm_Atr=norm_Atr,
                             norm_r_theta=norm_rth, mu_true=mu_t,
                             **dict.fromkeys(ESTIMATE_COLUMNS, math.nan)))
        spent = [(1, 1)] * len(rows)  # the refresh
        if weighted and self.kwf is not None:
            at, R, norms, At_R = zip(*weighted)
            values, products, self.direction = _estimate_rows(
                ops, self.kwf, R, norms, At_R, config.refine_steps,
                self.direction)
            for i, v, (mv, rmv) in zip(at, values, products):
                rows[i].update(v)
                spent[i] = (1 + mv, 1 + rmv)
        for (_, _, counts), row, (mv, rmv) in zip(block, rows, spent):
            self.spent = (self.spent[0] + mv, self.spent[1] + rmv)
            self.trace.rows.append(TraceRow(
                **row, matvec_count=counts[0] + self.spent[0],
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
    Without config.norm_A_2, ||A||_2 is resolved first by power iteration
    on an operator of its own (none when ||A||_F = 0): its products go to
    trace.setup_matvecs and setup_rmatvecs, and the rows count only the
    recurrence's and the estimator suite's.

    Without stop_when, due rows are evaluated in blocks of up to
    ROW_BLOCK consecutive rows (fewer when block * m would exceed n^2, so
    each m-vector stack of a block stays within one n x n factor).  A
    block is one estimator pass, stage by stage: the coordinates V'A'r
    and the direction solves are two gemms over the block, and so is each
    refinement step; the rest is vector arithmetic over the block, each
    row bitwise what it gets alone with the direction it carries.  A gemm
    sums in another order than one row's gemv, so every estimator column
    may move against evaluating each row on its own, as estimate_bounds
    does.  nu_sketched and the lower bounds move by up to about 2.2 eps
    ||r_theta|| (up to 6.6e-9 relative where a'r cancels) and
    ub_deflation by up to about 1.2e-14 relative.
    ub_generous moves by up to 5.8 eps ||r_theta|| on a graded 240 x 90
    problem and by up to 19 eps ||r_theta|| (3.8e-8 relative) on late
    rows of solve-converge, where mu/||r_theta|| is near 1e-8.
    The counts and every other column are bit for bit the same.
    Blocks are counted from the first row, so rows do not depend on when
    futures land.  Returns (x, trace, stop_reason) with stop_reason one
    of "converged" (the ||A'r|| test fired, or the bidiagonalization
    produced a zero vector), "estimator" (stop_when fired), "breakdown" (a
    zero rotation pivot, rho or rhobar), or "max_iters".
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
    config, (setup_mv, setup_rmv) = _resolved_norm(A, config, norm_A_fro)
    max_iters = config.max_iters or 5 * min(m, n)

    trace = SolverTrace(norm_A_fro=norm_A_fro or 0.0,
                        norm_A_fro_source=fro_source,
                        norm_A_2=config.norm_A_2 or 0.0,
                        setup_matvecs=setup_mv, setup_rmatvecs=setup_rmv)
    rows = _Rows(MatrixOperator(A), b, config, kwf, exact, stop_when, trace)
    x = np.zeros(n)

    beta = float(np.linalg.norm(b))
    u, v = b, np.zeros(n)  # b = 0 gives A'b = 0 without a product
    if beta > 0.0:
        u = b / beta
        v = ops.rmatvec(u)
    alpha = float(np.linalg.norm(v))
    if alpha > 0.0:
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
    # b = 0 or A'b = 0: the zero vector already satisfies the normal
    # equations, and the run ends before its first iteration.
    stop_reason = "" if alpha > 0.0 else "converged"

    itn = 0
    while not stop_reason and itn < max_iters:
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
            zerovec = alpha == 0.0
            if not zerovec:
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
        # A zero vector ends the bidiagonalization with ||A'r|| = 0.
        converged = (zerovec
                     or normar_est <= config.atol * normA_stop * normr_est)
        last = converged or itn == max_iters

        if ((itn % config.estimate_every == 0 or last)
                and rows.due(itn, x, (ops.matvecs, ops.rmatvecs))):
            stop_reason = "estimator"
            break
        if converged:
            stop_reason = "converged"
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
    trace criterion.  Their streamed QRs (geqrf, then dtpqrt folds) and
    their SVDs release the interpreter lock, so on two free cores the QRs
    overlap.  The SVDs take turns on a lock of this call's own, so the
    pool never holds two SVD workspaces at once.  Leaving the block waits
    for both, even on an error or an interrupt."""
    with ThreadPoolExecutor(max_workers=2, thread_name_prefix="lsbe-factor",
                            initializer=take_svd_turns,
                            initargs=(threading.Lock(),)) as pool:
        # The order does not matter: with a sparse-sign 6n sketch the pair
        # on the stand-in took 1.77 s with A first and 1.81 s with the
        # sketch first (medians of 8, one BLAS thread).
        exact = pool.submit(kw_factorization, A) if exact else None
        yield pool.submit(kw_factorization, A, sketch=sketch), exact


def _traced_run(A, config: SolverConfig, sketch, b=None, seed: int = 0):
    """One traced run as lsbe solve and the trace criteria make it: b
    (checked, or seeded_rhs(A, ||A||_2, default_rng(seed)) when None),
    ||A||_2 resolved by _resolved_norm unless config.norm_A_2 is set, then
    lsmr(A, b, config, kwf, exact=exact) on the calling thread beside the
    _factorizations futures: kwf that of S A and, with
    config.compute_true_mu, exact that of A.  The power products are
    added to trace.setup_matvecs/setup_rmatvecs, never to a row.  A
    factorization that fails stops lsmr at its next iteration; an
    interrupt stops it at once, and the call returns once the
    factorizations running finish.
    """
    if b is not None:  # before anything is factored
        b = _checked_rhs(b, A.shape[0])
    config, (matvecs, rmatvecs) = _resolved_norm(A, config)
    if b is None:
        b = seeded_rhs(A, config.norm_A_2 or 0.0,
                       np.random.default_rng(seed))
    with _factorizations(A, sketch, config.compute_true_mu) as (kwf, exact):
        x, trace, stop_reason = lsmr(A, b, config, kwf, exact=exact)
    trace.setup_matvecs += matvecs
    trace.setup_rmatvecs += rmatvecs
    return x, trace, stop_reason


__all__ = [
    "SolverConfig", "SolverTrace", "TraceRow", "TRACE_COLUMNS",
    "lsmr", "estimate_bounds",
]
