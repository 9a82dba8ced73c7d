#!/usr/bin/env python3
"""lsbe benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload solve-trace --seed 1 --seconds 22 --trace 0

Run from the root of a checkout.  The workload's inputs are generated from
the seed, then operations run one after another until --seconds have
passed (always at least one).  With --trace 0 the end-to-end metrics are
reported, measured with only a few phase marks in place; solve_s,
instances_per_s, products and failed_frac go in the description line,
without a bound.  With --trace 1
the first half of the time runs untraced and the rest with a span around
every layer boundary; the per-layer metrics come from the traced part,
and both parts must write identical outputs.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The line before it describes the
run (machine, inputs and their hashes, per-operation numbers); the same
record goes to .bench_out/ in the checkout, next to the span file of a
traced run.  A failed hard check exits 1, a checkout without the lsbe
sources exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

# Fresh interpreters that import the library, per run, for the set-up time
# of the workloads that have no set-up phase of their own.
IMPORT_PROBES = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: small inputs, for the benchmark's own tests")
    return p.parse_args(argv)


def run_ops(workload, deadline, tracer):
    """Operations until the perf_counter `deadline` (at least one); the
    outputs must not change from one operation to the next."""
    from workloads import GateError

    records = []
    with tracer:
        while not records or time.perf_counter() < deadline:
            record = workload.operation(tracer)
            record.peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
            records.append(record)
    if len({r.digest for r in records}) != 1:
        raise GateError("operations on the same inputs gave different outputs")
    return records


def import_probe(modules) -> list[float]:
    code = ("import sys, time\n"
            f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
            "t = time.perf_counter()\n"
            f"import {', '.join(modules)}\n"
            "print(repr(time.perf_counter() - t))\n")
    times = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True, timeout=60)
        times.append(float(out.stdout.split()[-1]))
    return times


def _fmt(values: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def end_to_end(records, setup_times) -> tuple[dict, dict]:
    """(gated, reported): the metrics BENCHMARK.json bounds, and the
    whole-run numbers printed alongside them without a bound."""
    med = statistics.median
    gated = {
        "wall_s": (med(r.wall_s for r in records), "s"),
        "setup_s": (med(setup_times), "s"),
        # As one command sees it: repetitions only add allocator
        # fragmentation, which grew the peak by 10% from 2 to 3 solves.
        "peak_rss_mb": (records[0].peak_rss_mb, "MB"),
    }
    reported = {
        "solve_s": (med(r.solve_s for r in records), "s"),
        "instances_per_s": (med(r.instances / r.wall_s for r in records),
                            "1/s"),
        "products": (med(r.products for r in records), "count"),
    }
    return _fmt(gated), _fmt(reported)


def _percentile_ms(durations, q) -> float:
    import numpy as np

    return float(np.percentile(durations, q)) * 1e3 if durations else 0.0


def layer_metrics(spans, stats, traced, untraced, clamps) -> dict:
    """Per-layer numbers per operation, from the traced operations."""
    from spans import summarize
    from workloads import SPAN_NAMES

    ops = len(traced)
    s = summarize(spans)
    values = {}
    for name in SPAN_NAMES:
        values[f"{name}_s"] = (s.total.get(name, 0.0) / ops, "s")
        values[f"{name}_calls"] = (s.calls.get(name, 0) / ops, "count")

    def mean(key):
        v = stats.get(key, [])
        return sum(v) / len(v) if v else 0.0

    op_time = sum(s.durations.get("op", []))
    rows = s.durations.get("solver.estimate_row", [])
    attempted = sum(r.attempted for r in traced + untraced)
    failed = sum(r.failed for r in traced + untraced)
    med = statistics.median
    values.update({
        "solver.bare_s": (s.self_time.get("solver.lsmr", 0.0) / ops, "s"),
        "solver.row_ms_p50": (_percentile_ms(rows, 50), "ms"),
        "solver.row_ms_p99": (_percentile_ms(rows, 99), "ms"),
        "solver.iterations": (mean("solver.iterations"), "count"),
        "solver.rows": (mean("solver.rows"), "count"),
        "estimates.lb_direction_resets": (
            len(stats.get("estimates.lb_direction_resets", [])) / ops,
            "count"),
        "exact.fixed_point_iters": (mean("exact.fixed_point_iters"),
                                    "count"),
        "exact.negative_mu_clamps": (clamps / ops, "count"),
        "fileio.trace_bytes": (mean("fileio.trace_bytes"), "bytes"),
        "products": (sum(r.products for r in traced) / ops, "count"),
        "failed_frac": (failed / attempted, "ratio"),
        "trace_overhead_frac": (
            med(r.wall_s for r in traced) / med(r.wall_s for r in untraced)
            - 1.0, "ratio"),
        "trace_coverage_frac": (
            1.0 - s.self_time.get("op", 0.0) / op_time, "ratio"),
    })
    return _fmt(values)


def measure(args, workdir: Path):
    """Run the workload; returns (records, metrics, description)."""
    import lsbe.exact
    import machine
    import workloads
    from spans import Tracer
    from workloads import GateError

    wl = workloads.make(args.workload, args.seed, workdir, args.size)
    description = {"workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "size": args.size,
                   "machine": machine.machine_block(ROOT),
                   "inputs": wl.prepare()}

    start = time.perf_counter()
    if args.trace == 0:
        records = run_ops(wl, start + args.seconds,
                          Tracer(wl.phase_targets()))
        setup_times = [r.setup_s for r in records if r.setup_s is not None]
        if not setup_times:
            setup_times = import_probe(wl.import_modules)
            description["setup"] = {"import_probe_s": setup_times,
                                    "modules": list(wl.import_modules)}
        metrics, description["reported"] = end_to_end(records, setup_times)
        return records, metrics, description

    untraced = run_ops(wl, start + args.seconds / 2,
                       Tracer(wl.phase_targets()))
    stats = defaultdict(list)
    tracer = Tracer(workloads.merge_targets(
        wl.phase_targets(), workloads.layer_targets(stats)))
    clamps_before = lsbe.exact.negative_mu_clamps
    traced = run_ops(wl, start + args.seconds, tracer)
    clamps = lsbe.exact.negative_mu_clamps - clamps_before
    if traced[0].digest != untraced[0].digest:
        raise GateError("the traced run's outputs differ from the untraced "
                        "run's")
    if args.workload.startswith("solve-"):
        calls = sum(1 for span in tracer.spans
                    if span[0] in ("core.matvec", "core.rmatvec"))
        if calls != sum(r.products for r in traced):
            raise GateError(f"{calls} operator products seen, "
                            f"{sum(r.products for r in traced)} counted")
    spans_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv"
    tracer.write_csv(spans_file)
    description["spans_file"] = str(spans_file.relative_to(ROOT))
    description["traced_ops"] = len(traced)
    metrics = layer_metrics(tracer.spans, stats, traced, untraced, clamps)
    return untraced + traced, metrics, description


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "lsbe" / "__init__.py").is_file():
        print(f"error: no lsbe sources under {ROOT / 'src'}; run the "
              "benchmark from the root of a repository checkout",
              file=sys.stderr)
        return 2

    sys.path.insert(0, str(ROOT / "src"))
    import machine

    # Before numpy is imported, and never more threads than cores.
    threads = str(min(machine.BLAS_THREADS, machine.available_cores()))
    for var in machine.THREAD_VARS:
        os.environ[var] = threads
    from workloads import WORKLOADS, GateError

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    correct, error = True, None
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as work:
        try:
            records, metrics, description = measure(args, Path(work))
        except GateError as exc:
            correct, error = False, str(exc)
            records, metrics, description = [], {}, {
                "workload": args.workload, "seed": args.seed}
    if records:
        attempted = sum(r.attempted for r in records)
        failed = sum(r.failed for r in records)
        description["products"] = sorted({r.products for r in records})
        description.setdefault("reported", {})["failed_frac"] = {
            "value": failed / attempted, "unit": "ratio"}
    else:
        # The operation whose hard check failed is the one failure.
        attempted = failed = 1
    description.update({"ops": [vars(r) for r in records],
                        "gate_error": error})
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(description, indent=1) + "\n")
    print(json.dumps(description))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    if error is not None:
        print(f"error: correctness gate failed: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
