#!/usr/bin/env python3
"""Reproduce the iteration-trace experiment for the three sketch sizes.

Runs the LSMR harness on a MatrixMarket matrix (GL7d12 if you have
downloaded it, or any other least-squares matrix) with sketch row counts
of 1.5n, 6n and 16n, writing one trace CSV per setting.  The right-hand
side is the seeded random model b = A x + 1e-4 ||A||_2 w unless --rhs is
given.  Plot the CSV columns with any external tool to recover the
lower/upper bound and estimate curves.

Example:
    python scripts/run_trace_experiment.py data/GL7d12.mtx --outdir traces \
        --estimate-every 10
    python scripts/run_trace_experiment.py --demo --outdir traces --true-mu
"""

import argparse
import os
import sys

import numpy as np
import scipy.sparse as sp

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from lsbe.cli import main as lsbe_main  # noqa: E402
import scipy.io  # noqa: E402


def make_demo_matrix(path: str) -> None:
    rng = np.random.RandomState(11)
    A = sp.random(2000, 150, density=0.02, random_state=rng, format="coo")
    scipy.io.mmwrite(path, A)


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="trace experiment over sketch sizes {1.5n, 6n, 16n}")
    parser.add_argument("matrix", nargs="?", default=None)
    parser.add_argument("--demo", action="store_true",
                        help="generate a random sparse 2000x150 demo matrix")
    parser.add_argument("--outdir", default="traces")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rhs", default=None)
    parser.add_argument("--atol", type=float, default=1e-12)
    parser.add_argument("--estimate-every", type=int, default=1)
    parser.add_argument("--refine-steps", type=int, default=1)
    parser.add_argument("--true-mu", action="store_true",
                        help="add the exact backward error column "
                             "(dense SVD of A; desk scale only)")
    args = parser.parse_args(argv)

    os.makedirs(args.outdir, exist_ok=True)
    matrix = args.matrix
    if matrix is None:
        if not args.demo:
            parser.error("give a MatrixMarket file or use --demo")
        matrix = os.path.join(args.outdir, "demo_2000x150.mtx")
        if not os.path.exists(matrix):
            make_demo_matrix(matrix)
            print(f"wrote {matrix}")

    for factor in ("1.5", "6", "16"):
        out = os.path.join(
            args.outdir,
            os.path.splitext(os.path.basename(matrix))[0]
            + f"_sketch{factor}x.csv")
        cmd = ["solve", matrix, "--out", out,
               "--sketch-rows-factor", factor,
               "--seed", str(args.seed),
               "--atol", str(args.atol),
               "--estimate-every", str(args.estimate_every),
               "--refine-steps", str(args.refine_steps),
               "--true-mu", "on" if args.true_mu else "off"]
        if args.rhs:
            cmd += ["--rhs", args.rhs]
        print(f"--- sketch rows = {factor} n -> {out}")
        code = lsbe_main(cmd)
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(run())
