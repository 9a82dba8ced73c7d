"""The four benchmark workloads and their correctness gates.

Each workload prepares its inputs from the seed once, then runs one
operation at a time.  An operation is the program call being measured,
wrapped in an "op" span, followed by the checks on what it returned.
Checks that break the benchmark's own assumptions raise GateError and
abort the run; bound violations are counted as failed operations.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import lsbe.acceptance as acceptance
import lsbe.cli as cli
import lsbe.core as core
import lsbe.decomposition as decomposition
import lsbe.estimates as estimates
import lsbe.exact as exact
import lsbe.fileio as fileio
from lsbe.errors import ShiftNotPD
from lsbe.solver import TRACE_COLUMNS

import standin
from spans import Target

EPS = float(np.finfo(float).eps)
# Relative slack on top of the attainable-accuracy floor below.  It sits
# far above the 1e-12 step tolerance of the secular-equation route.
RTOL = 1e-9
SQRT2 = math.sqrt(2.0)


class GateError(Exception):
    """A hard correctness check failed; the run's numbers are not valid."""


def accuracy_floor(m: int, scale: float) -> float:
    """Absolute accuracy a dot product over m terms of size `scale` can
    attain in double precision, with a safety factor of 16."""
    return 16.0 * math.sqrt(m) * EPS * scale


@dataclass
class OpRecord:
    """One operation.  setup_s is None where the workload has no set-up
    phase inside the operation; digest identifies the outputs, which must
    not change between operations on the same inputs; peak_rss_mb is the
    process peak when the operation ended."""

    wall_s: float
    setup_s: float | None
    solve_s: float
    instances: int
    attempted: int
    failed: int
    products: int
    digest: str
    peak_rss_mb: float = 0.0


# ---------------------------------------------------------------------------
# Solve workloads: `lsbe solve` on the GL7d12-shaped stand-in.

def rows_equal(a, b) -> bool:
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        for col in TRACE_COLUMNS:
            x, y = getattr(ra, col), getattr(rb, col)
            if not (x == y or (math.isnan(x) and math.isnan(y))):
                return False
    return True


def check_accounting(rows) -> None:
    """Products per trace row with refine_steps=1: one matvec/rmatvec pair
    per iteration since the previous row, plus 4 matvecs (residual refresh,
    fresh direction, refinement, refined evaluation) and 5 rmatvecs (A'r,
    refinement, deflation vector, two-column compression).  lsmr spends
    one rmatvec before its first iteration."""
    prev_iter, prev_mv, prev_rmv = 0, 0, 1
    for row in rows:
        gap = row.iter - prev_iter
        got = (row.matvec_count - prev_mv, row.rmatvec_count - prev_rmv)
        if got != (gap + 4, gap + 5):
            raise GateError(f"product accounting at iter {row.iter}: "
                            f"deltas {got}, expected {(gap + 4, gap + 5)}")
        prev_iter, prev_mv, prev_rmv = (row.iter, row.matvec_count,
                                        row.rmatvec_count)


def _finite(values):
    return [v for v in values if math.isfinite(v)]


def certified_bounds_hold(row, m: int) -> bool:
    """lb <= mu_true <= ub for every computed bound, relative to mu_true
    with an eps-scaled floor in units of ||r_theta||."""
    mu = row.mu_true
    if not math.isfinite(mu):
        return False
    tol = RTOL * mu + accuracy_floor(m, row.norm_r_theta)
    lbs = _finite([row.lb_fresh, row.lb_refined, row.lb_recycled])
    ubs = _finite([row.ub_deflation, row.ub_generous])
    return (all(lb - mu <= tol for lb in lbs)
            and all(mu - ub <= tol for ub in ubs))


def bounds_ordered(row, m: int) -> bool:
    """Every lower bound stays below every upper bound."""
    lbs = _finite([row.lb_fresh, row.lb_refined, row.lb_recycled])
    ubs = _finite([row.ub_deflation, row.ub_generous])
    if not lbs or not ubs:
        return False
    lb, ub = max(lbs), min(ubs)
    return lb - ub <= RTOL * ub + accuracy_floor(m, row.norm_r_theta)


class SolveWorkload:
    def __init__(self, name, seed, workdir: Path, shape, nnz, flags,
                 expected_stop, row_check):
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.shape = shape
        self.nnz = nnz
        self.flags = flags
        self.expected_stop = expected_stop
        self.row_check = row_check
        self._captured = {}

    def prepare(self) -> dict:
        A = standin.gl7d12_standin(self.seed, self.shape, self.nnz)
        self.matrix_path = self.workdir / "standin.mtx"
        self.csv_path = self.workdir / "trace.csv"
        info = standin.write_matrix(A, self.matrix_path)
        self.argv = (["solve", str(self.matrix_path), "--out",
                      str(self.csv_path), "--seed", str(self.seed)]
                     + self.flags)
        return {"matrix": info, "argv": ["lsbe"] + self.argv[:1]
                + ["<stand-in>"] + self.argv[2:3] + ["<trace.csv>"]
                + self.argv[4:]}

    def phase_targets(self) -> list[Target]:
        captured = self._captured

        def keep_trace(args, kwargs, result, exc):
            if exc is None:
                captured["trace"] = result[1]

        def keep_power_products(args, kwargs, result, exc):
            ops = args[0]
            captured["power_products"] = ops.matvecs + ops.rmatvecs

        return [
            Target("lsbe.solver", "lsmr", "solver.lsmr", keep_trace),
            Target("lsbe.solver", "_power_spectral_norm", "solver.power_norm",
                   keep_power_products),
            Target(("lsbe.solver", "_TrueMu"), "__init__",
                   "solver.true_mu_setup"),
        ]

    def operation(self, tracer) -> OpRecord:
        self._captured.clear()
        start = len(tracer.spans)
        with contextlib.redirect_stdout(io.StringIO()):
            with tracer.span("op"):
                code = cli.main(list(self.argv))
        if code != 0:
            raise GateError(f"lsbe solve exited with {code}")
        spans = tracer.spans[start:]
        op = spans[0]
        lsmr_span = next(s for s in spans if s[0] == "solver.lsmr")
        true_mu_setup = sum(s[2] - s[1] for s in spans
                            if s[0] == "solver.true_mu_setup")
        setup = lsmr_span[1] - op[1] + true_mu_setup
        solve = lsmr_span[2] - lsmr_span[1] - true_mu_setup

        trace = self._captured["trace"]
        rows = trace.rows
        if trace.stop_reason != self.expected_stop:
            raise GateError(f"stop reason {trace.stop_reason!r}, expected "
                            f"{self.expected_stop!r}")
        if not rows:
            raise GateError("empty trace")
        check_accounting(rows)
        if not rows_equal(fileio.read_trace_csv(str(self.csv_path)), rows):
            raise GateError("trace CSV read back differs from the trace")
        m = self.shape[0]
        failed = sum(1 for row in rows if not self.row_check(row, m))
        products = (self._captured["power_products"]
                    + rows[-1].matvec_count + rows[-1].rmatvec_count)
        return OpRecord(
            wall_s=op[2] - op[1], setup_s=setup, solve_s=solve, instances=1,
            attempted=len(rows), failed=failed, products=products,
            digest=standin.sha256_file(self.csv_path))


# ---------------------------------------------------------------------------
# exact-desk: dense instances through every exact route.

def check_desk(inst, R, values) -> bool:
    """Route agreement within each route's attainable accuracy, relative to
    the secular-equation route (d = 1) or the eigenvalue formula (d > 1)."""
    m = inst.A.shape[0]
    nr = float(np.linalg.norm(R))
    na = inst.norm_A_2
    lin = accuracy_floor(m, na + nr)
    sq = accuracy_floor(m, na * na + nr * nr)

    def close_sq(x, ref):
        # Routes through a Gram matrix or the eigenvalue formula are
        # accurate in mu^2, to eps times the squared data scale.
        return abs(x * x - ref * ref) <= RTOL * ref * ref + sq

    def close_lin(x, ref):
        return abs(x - ref) <= RTOL * ref + lin

    if inst.d == 1:
        ref = values["fixed_point"]
        nu = values["kw"]
        return (close_sq(values["eig"], ref) and close_sq(values["gevp"], ref)
                and close_lin(values["sigma_min"], ref)
                and nu - ref <= RTOL * ref + lin
                and ref - SQRT2 * nu <= RTOL * ref + lin)
    ref = values["eig"]
    return (close_sq(values["optimal_pq"], ref)
            and values["optimal_pq"] <= ref + RTOL * ref + math.sqrt(sq)
            and math.isfinite(values["kw_multi"]) and values["kw_multi"] > 0)


def desk_values(inst):
    """The program calls of one desk instance; returns (R_theta, values)."""
    wr = core.weighted_residual(
        core.LSProblem(inst.A, inst.B, theta=inst.theta), inst.X)
    A, R = inst.A, wr.Rtheta
    if inst.d == 1:
        r = R[:, 0]
        return R, {
            "eig": exact.mu_exact(A, R).mu,
            "sigma_min": exact.mu_sigma_min(A, r).mu,
            "fixed_point": exact.mu_fixed_point(A, r).mu,
            "gevp": exact.mu_gevp(A, r).mu,
            "kw": estimates.kw(A, r),
        }
    return R, {
        "eig": exact.mu_exact(A, R).mu,
        "kw_multi": estimates.kw_multi(A, R),
        "optimal_pq": decomposition.optimal_pq(A, R).total,
    }


class ExactDeskWorkload:
    name = "exact-desk"
    import_modules = ("lsbe",)

    def __init__(self, seed, workdir: Path, plan):
        self.seed = seed
        self.plan = plan

    def prepare(self) -> dict:
        self.batch = standin.desk_batch(self.seed, self.plan)
        return {"instances": len(self.batch),
                "plan_mn_d": [list(p[:3]) for p in self.plan],
                "sha256": standin.desk_digest(self.batch)}

    def phase_targets(self) -> list[Target]:
        return []

    def operation(self, tracer) -> OpRecord:
        start = len(tracer.spans)
        with tracer.span("op"):
            outputs = [desk_values(inst) for inst in self.batch]
        op = tracer.spans[start]
        failed = sum(1 for inst, (R, values) in zip(self.batch, outputs)
                     if not check_desk(inst, R, values))
        digest = hashlib.sha256(repr(
            [sorted(values.items()) for _, values in outputs]).encode())
        wall = op[2] - op[1]
        return OpRecord(
            wall_s=wall, setup_s=None, solve_s=wall,
            instances=len(self.batch), attempted=len(self.batch),
            failed=failed, products=0, digest=digest.hexdigest())


# ---------------------------------------------------------------------------
# verify-full: the acceptance suites, as `lsbe verify --scale 1.0` runs them.

class VerifyWorkload:
    """The suites run with the seed `lsbe verify` uses, whatever the
    benchmark seed: the brute-force search behind the decomposition
    criterion stops early by instance, and its line searches varied by
    16% (quartile spread over ten suite seeds), more than any regression
    bound could absorb."""

    name = "verify-full"
    import_modules = ("lsbe.cli", "lsbe.acceptance")
    suite_seed = 0

    def __init__(self, seed, workdir: Path, trials):
        self.trials = trials
        self._captured = {"products": 0}

    def prepare(self) -> dict:
        return {"run_all": {"scale": 1.0, "trials": self.trials,
                            "seed": self.suite_seed}}

    def phase_targets(self) -> list[Target]:
        captured = self._captured

        def count_products(args, kwargs, result, exc):
            if exc is None:
                # Row counters are cumulative and include lsmr's own
                # power iteration.
                trace = result[1]
                captured["products"] += (
                    trace.rows[-1].matvec_count + trace.rows[-1].rmatvec_count
                    if trace.rows else
                    trace.setup_matvecs + trace.setup_rmatvecs)

        return [Target("lsbe.solver", "lsmr", "solver.lsmr",
                       count_products)]

    def operation(self, tracer) -> OpRecord:
        self._captured["products"] = 0
        start = len(tracer.spans)
        with tracer.span("op"):
            results = acceptance.run_all(trials=self.trials, scale=1.0,
                                         seed=self.suite_seed)
        op = tracer.spans[start]
        ran = [r for r in results if not r.skipped]
        failed = sum(1 for r in ran if not r.passed)
        digest = hashlib.sha256(repr(
            [(r.name, bool(r.passed), r.skipped) for r in results]).encode())
        wall = op[2] - op[1]
        return OpRecord(
            wall_s=wall, setup_s=None, solve_s=wall, instances=1,
            attempted=len(ran), failed=failed,
            products=self._captured["products"], digest=digest.hexdigest())


# ---------------------------------------------------------------------------

WORKLOADS = ("solve-trace", "solve-converge", "exact-desk", "verify-full")

# Full-size parameters and the tiny ones the benchmark's own tests use.
SIZES = {
    "full": {"shape": standin.GL7D12_SHAPE, "nnz": standin.GL7D12_NNZ,
             "trace_iters": 500, "converge_every": 100,
             "desk_plan": standin.DESK_PLAN, "trials": None},
    "tiny": {"shape": (600, 60), "nnz": 2500, "trace_iters": 30,
             "converge_every": 10, "desk_plan": standin.TINY_DESK_PLAN,
             "trials": 1},
}


def make(name: str, seed: int, workdir: Path, size: str = "full"):
    p = SIZES[size]
    if name == "solve-trace":
        flags = ["--sketch", "gaussian", "--sketch-rows-factor", "6",
                 "--estimate-every", "1", "--refine-steps", "1",
                 "--true-mu", "off", "--max-iters", str(p["trace_iters"])]
        return SolveWorkload(name, seed, workdir, p["shape"], p["nnz"],
                             flags, "max_iters", bounds_ordered)
    if name == "solve-converge":
        # The cap sits far above the 10.5k-12.5k iterations convergence takes,
        # so it only guards against a run that never converges.
        flags = ["--sketch", "sparse-sign", "--sketch-rows-factor", "6",
                 "--estimate-every", str(p["converge_every"]),
                 "--refine-steps", "1", "--true-mu", "on",
                 "--atol", "1e-12", "--max-iters", "40000"]
        return SolveWorkload(name, seed, workdir, p["shape"], p["nnz"],
                             flags, "converged", certified_bounds_hold)
    if name == "exact-desk":
        return ExactDeskWorkload(seed, workdir, p["desk_plan"])
    if name == "verify-full":
        return VerifyWorkload(seed, workdir, p["trials"])
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# Per-layer spans for the traced run.

CRITERIA = ("four_way", "rank_one", "attainment", "decomposition",
            "kw_chain", "sketched_lb", "hyperbolic_cs", "trace_soundness",
            "gl7d12")

# (owner, attribute, span name) for every layer boundary; the owner is a
# module for functions and (module, class) for methods.
LAYERS = tuple(
    [("lsbe.core", "compress_pair", "core.compress_pair"),
     ("lsbe.core", "weighted_residual", "core.weighted_residual"),
     ("lsbe.sketch", "apply_sketch", "sketch.apply"),
     ("lsbe.sketch", "measure_distortion", "sketch.measure_distortion")]
    + [("lsbe.estimates", fn, f"estimates.{fn}") for fn in (
        "kw_factorization", "sketched_kw", "lb_direction", "lb_refine",
        "ub_deflation", "ub_generous", "pair_basis", "kw", "kw_multi",
        "mu_rank_one")]
    + [("lsbe.exact", fn, f"exact.{fn}") for fn in (
        "mu_exact", "mu_sigma_min", "mu_fixed_point", "mu_gevp")]
    + [("lsbe.pencil", fn, f"pencil.{fn}") for fn in (
        "j_pencil_eig", "hyperbolic_cs", "tr_minus")]
    + [("lsbe.decomposition", fn, f"decomposition.{fn}") for fn in (
        "optimal_pq", "brute_force_max", "decomposition_sum")]
    + [("lsbe.solver", "lsmr", "solver.lsmr"),
       ("lsbe.solver", "_estimate_row", "solver.estimate_row"),
       ("lsbe.solver", "_power_spectral_norm", "solver.power_norm"),
       ("lsbe.fileio", "load_matrix", "fileio.load_matrix"),
       ("lsbe.fileio", "write_trace_csv", "fileio.write_trace_csv")]
    + [("lsbe.acceptance", f"criterion_{c}", f"acceptance.{c}")
       for c in CRITERIA]
    + [(("lsbe.core", "MatrixOperator"), "matvec", "core.matvec"),
       (("lsbe.core", "MatrixOperator"), "rmatvec", "core.rmatvec"),
       (("lsbe.solver", "_TrueMu"), "__init__", "solver.true_mu_setup"),
       (("lsbe.solver", "_TrueMu"), "__call__", "solver.true_mu")])

SPAN_NAMES = tuple(name for _, _, name in LAYERS)


def layer_targets(stats) -> list[Target]:
    """Targets for every layer boundary; observers append to `stats`."""

    def resets(args, kwargs, result, exc):
        if isinstance(exc, ShiftNotPD):
            stats["estimates.lb_direction_resets"].append(1)

    def fixed_point_iters(args, kwargs, result, exc):
        if exc is None:
            stats["exact.fixed_point_iters"].append(result.iterations)

    def trace_bytes(args, kwargs, result, exc):
        if exc is None:
            path = args[1] if len(args) > 1 else kwargs["path"]
            stats["fileio.trace_bytes"].append(os.path.getsize(path))

    def solver_counts(args, kwargs, result, exc):
        if exc is None:
            stats["solver.iterations"].append(result[1].iterations)
            stats["solver.rows"].append(len(result[1].rows))

    observers = {"estimates.lb_direction": resets,
                 "exact.mu_fixed_point": fixed_point_iters,
                 "fileio.write_trace_csv": trace_bytes,
                 "solver.lsmr": solver_counts}
    return [Target(owner, attr, name, observers.get(name))
            for owner, attr, name in LAYERS]


def merge_targets(*groups) -> list[Target]:
    """One Target per wrapped name, chaining the observers of duplicates."""
    merged: dict = {}
    for group in groups:
        for t in group:
            key = (t.owner, t.attr)
            if key not in merged:
                merged[key] = t
                continue
            first = merged[key]
            observers = [o for o in (first.observe, t.observe) if o]

            def chained(*a, _obs=tuple(observers)):
                for o in _obs:
                    o(*a)

            merged[key] = Target(t.owner, t.attr, first.name,
                                 chained if observers else None)
    return list(merged.values())
