"""Command-line interface: estimate, solve, and verify subcommands.

File formats: MatrixMarket in, CSV traces out.  Exit codes: 0 on success,
1 on a verification failure, 2 on usage or IO problems.  Every run is
fully determined by its flags (and seed); no environment variables are
consulted, and a JSON manifest describing the run is written next to each
trace.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .acceptance import GL7D12_SHAPE, run_all
from .core import LSProblem, MatrixOperator, weighted_residual
from .errors import (DimensionMismatch, RankDeficient, ShapeMismatch,
                     UnsupportedFormat)
from .estimates import kw_multi, sketched_kw
from .exact import mu_exact, mu_fixed_point, mu_gevp, mu_sigma_min
from .fileio import fmt_float, load_dense, load_matrix, write_trace_csv
from .sketch import SketchOperator, sketch_rows
from .solver import SolverConfig, _factorizations, _traced_run, estimate_bounds


def _checked(name: str, convert, ok, rule: str):
    """An argparse type named name: convert the text, then require
    ok(value).  argparse reports text that convert rejects as "invalid
    <name> value" and a value that breaks the rule as "<name> must be
    <rule>"; either exits with status 2 before any work is done."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{name} must be {rule}")
        return value
    parse.__name__ = name
    return parse


def _finite_positive(value: float) -> bool:
    return math.isfinite(value) and value > 0


_theta = _checked("theta", float, lambda v: v > 0, "positive or 'inf'")
_seed = _checked("seed", int, lambda v: v >= 0, "a non-negative integer")
_rows_factor = _checked("sketch rows factor", float, _finite_positive,
                        "finite and positive")
_mu_est = _checked("mu_est", float, lambda v: math.isfinite(v) and v >= 0,
                   "finite and >= 0")
_trials = _checked("trials", int, lambda v: v >= 1, "at least 1")
_scale = _checked("scale", float, _finite_positive, "finite and positive")


def _add_sketch_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sketch", choices=["gaussian", "sparse-sign",
                                        "identity"], default="gaussian")
    p.add_argument("--sketch-rows-factor", type=_rows_factor, default=6.0,
                   help="sketch rows as a multiple of n (default 6)")
    p.add_argument("--seed", type=_seed, default=0)


def _build_sketch(kind: str, factor: float, m: int, n: int,
                  seed: int) -> SketchOperator:
    kind = kind.replace("-", "_")
    if kind == "identity":
        return SketchOperator(kind="identity", rows=m, cols=m, seed=seed)
    return SketchOperator(kind=kind, rows=sketch_rows(factor, n), cols=m,
                          seed=seed)


def cmd_estimate(args) -> int:
    A = load_matrix(args.matrix)
    X = load_dense(args.x)
    B = load_dense(args.b)
    problem = LSProblem(A, B, theta=args.theta)
    wr = weighted_residual(problem, X)
    m, n, d = problem.m, problem.n, problem.d
    kwf_A = None
    if d == 1:
        # Before the report, so that a bad sketch prints none of it.
        r = wr.Rtheta[:, 0]
        norm_r = float(np.linalg.norm(r))
        At_r = A.T @ r
        S = _build_sketch(args.sketch, args.sketch_rows_factor, m, n,
                          args.seed)
        with _factorizations(A, S, exact=True) as futures:
            kwf, kwf_A = (f.result() for f in futures)

    print(f"m = {m}")
    print(f"n = {n}")
    print(f"d = {d}")
    print(f"theta = {fmt_float(args.theta)}")
    print(f"norm_r = {fmt_float(float(np.linalg.norm(wr.R)))}")
    print(f"norm_r_theta = {fmt_float(wr.norm_Rtheta)}")

    routes = {"eig": mu_exact, "sigma-min": mu_sigma_min,
              "fixed-point": lambda M, R: mu_fixed_point(M, R, kwf=kwf_A),
              "gevp": mu_gevp}
    methods = [args.method] if args.method != "all" else list(routes)
    mu_values = {}
    for name in methods:
        if name != "eig" and d != 1:
            print(f"mu[{name}] skipped (needs a single right-hand side)")
        else:
            mu_values[name] = routes[name](A, wr.Rtheta).mu
    for name, value in mu_values.items():
        print(f"mu[{name}] = {fmt_float(value)}")

    nu = kw_multi(A, wr.Rtheta) if d > 1 else sketched_kw(kwf_A, At_r, norm_r)
    print(f"nu = {fmt_float(nu)}")
    if mu_values:
        mu_ref = next(iter(mu_values.values()))
        if nu > 0:
            print(f"mu_over_nu = {fmt_float(mu_ref / nu)}")

    if d != 1:
        print("sketched estimates skipped (needs a single right-hand side)")
    else:
        values, fresh = estimate_bounds(MatrixOperator(A), kwf, r, norm_r,
                                        At_r, args.mu_est)
        if fresh is not None and fresh.mu_est_used != args.mu_est:
            print("note: mu_est reset to 0 (mu_est^2 is not below "
                  "||r_theta||^2 + sigma_min^2 of the sketch)")
        print(f"nu_sketched = {fmt_float(values['nu_sketched'])}")
        print(f"lb_sketched = {fmt_float(values['lb_fresh'])}")
        for name in ("ub_deflation", "ub_generous"):
            if not math.isnan(values[name]):
                print(f"{name} = {fmt_float(values[name])}")
    return 0


def cmd_solve(args) -> int:
    # Built first so invalid solver flags fail before any work is done.
    config = SolverConfig(
        atol=args.atol,
        max_iters=args.max_iters,
        estimate_every=args.estimate_every,
        refine_steps=args.refine_steps,
        compute_true_mu=(args.true_mu == "on"),
        theta=args.theta,
        norm_A_2=args.norm_a2,
    )
    A = load_matrix(args.matrix)
    m, n = A.shape
    S = _build_sketch(args.sketch, args.sketch_rows_factor, m, n, args.seed)
    if (m, n) == GL7D12_SHAPE:
        print(f"note: matrix dimensions {m} x {n} match the SuiteSparse "
              "matrix GL7d12")

    b = None if args.rhs is None else load_dense(args.rhs)
    x, trace, stop_reason = _traced_run(A, config, S, b, args.seed)
    # The manifest reports the norm the run resolved, None for A = 0.
    config = dataclasses.replace(config, norm_A_2=trace.norm_A_2 or None)

    write_trace_csv(trace.rows, args.out)
    manifest = {
        "command": "solve",
        "matrix": args.matrix,
        "rhs": args.rhs,
        "seed": args.seed,
        "sketch": {
            "kind": args.sketch,
            "rows_factor": args.sketch_rows_factor,
            "rows": S.rows,
        },
        "solver": {k: (str(v) if isinstance(v, float)
                       and not math.isfinite(v) else v)
                   for k, v in dataclasses.asdict(config).items()},
        "run": {name: getattr(trace, name) for name in (
            "stop_reason", "iterations", "setup_matvecs", "setup_rmatvecs",
            "factored_at_iter", "row_block_size", "row_blocks", "row_s")},
        "out": args.out,
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    with open(args.out + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, default=str, allow_nan=False)
        fh.write("\n")

    print(f"iterations = {trace.iterations}")
    print(f"stop_reason = {stop_reason}")
    print(f"norm_A_fro = {fmt_float(trace.norm_A_fro)} "
          f"({trace.norm_A_fro_source})")
    print(f"norm_A_2 = {fmt_float(trace.norm_A_2)}")
    print(f"norm_x = {fmt_float(float(np.linalg.norm(x)))}")
    if trace.rows:
        final = trace.rows[-1]
        print(f"final norm_r = {fmt_float(final.norm_r)}")
        print(f"final norm_Atr = {fmt_float(final.norm_Atr)}")
    print(f"trace = {args.out}")
    return 0


def cmd_verify(args) -> int:
    results = run_all(trials=args.trials, scale=args.scale, seed=args.seed,
                      inject_failure=args.inject_failure,
                      gl7d12_path=args.gl7d12)
    failed = 0
    for res in results:
        status = "SKIP" if res.skipped else ("PASS" if res.passed else "FAIL")
        print(f"{status} {res.name} {res.detail}")
        if not res.passed and not res.skipped:
            failed += 1
    print(f"summary: {sum(1 for r in results if r.passed and not r.skipped)}"
          f" passed, {failed} failed,"
          f" {sum(1 for r in results if r.skipped)} skipped")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lsbe",
        description="Backward-error estimation for linear least squares")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser(
        "estimate",
        help="compute backward error and estimates for a stored instance")
    est.add_argument("matrix", help="MatrixMarket file for A")
    est.add_argument("x", help="approximate solution (text or MM array)")
    est.add_argument("b", help="right-hand side (text or MM array)")
    est.add_argument("--theta", type=_theta, default=math.inf)
    est.add_argument("--method",
                     choices=["eig", "sigma-min", "fixed-point", "gevp",
                              "all"], default="all")
    est.add_argument("--mu-est", type=_mu_est, default=0.0)
    _add_sketch_flags(est)
    est.set_defaults(func=cmd_estimate)

    sol = sub.add_parser(
        "solve", help="run the LSMR harness and write the estimate trace")
    sol.add_argument("matrix", help="MatrixMarket file for A")
    sol.add_argument("--rhs", default=None,
                     help="optional right-hand side file; generated from "
                          "the seed when absent")
    sol.add_argument("--theta", type=_theta, default=math.inf)
    sol.add_argument("--atol", type=float, default=1e-12)
    sol.add_argument("--max-iters", type=int, default=None)
    sol.add_argument("--estimate-every", type=int, default=1)
    sol.add_argument("--refine-steps", type=int, default=0)
    sol.add_argument("--true-mu", choices=["on", "off"], default="off")
    sol.add_argument("--norm-a2", type=float, default=None)
    sol.add_argument("--out", default="trace.csv")
    _add_sketch_flags(sol)
    sol.set_defaults(func=cmd_solve)

    ver = sub.add_parser(
        "verify", help="run the acceptance property suites")
    ver.add_argument("--trials", type=_trials, default=None,
                     help="absolute per-suite instance count "
                          "(overrides --scale)")
    ver.add_argument("--scale", type=_scale, default=0.25,
                     help="fraction of the full suite sizes (default 0.25, "
                          "keeps the run under a minute)")
    ver.add_argument("--seed", type=_seed, default=0)
    ver.add_argument("--gl7d12", default=None,
                     help="path to the GL7d12 MatrixMarket file")
    ver.add_argument("--inject-failure", action="store_true",
                     help=argparse.SUPPRESS)
    ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, UnsupportedFormat, DimensionMismatch, ShapeMismatch,
            RankDeficient, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
