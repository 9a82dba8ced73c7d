"""Tests of the benchmark's own code.  Run with `python -m pytest bench/tests`
from the root of the repository."""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import lsbe.cli
import lsbe.estimates
import lsbe.solver
import standin
import workloads
from spans import Target, Tracer, summarize
from workloads import GateError

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_standin_is_a_function_of_the_seed(tmp_path):
    a = standin.gl7d12_standin(3, (300, 40), 900)
    b = standin.gl7d12_standin(3, (300, 40), 900)
    c = standin.gl7d12_standin(4, (300, 40), 900)
    assert a.shape == (300, 40)
    assert (a != b).nnz == 0 and (a != c).nnz > 0
    first = standin.write_matrix(a, tmp_path / "a.mtx")
    second = standin.write_matrix(b, tmp_path / "b.mtx")
    assert first == second
    assert first["shape"] == [300, 40] and first["nnz"] == a.nnz


def test_desk_batch_is_a_function_of_the_seed():
    plan = standin.TINY_DESK_PLAN
    one = standin.desk_digest(standin.desk_batch(5, plan))
    assert one == standin.desk_digest(standin.desk_batch(5, plan))
    assert one != standin.desk_digest(standin.desk_batch(6, plan))


def test_self_times_on_a_synthetic_span_tree():
    spans = [
        ["op", 0.0, 10.0, -1],
        ["a", 1.0, 5.0, 0],
        ["b", 2.0, 3.0, 1],
        ["a", 6.0, 8.0, 0],
        ["a", 6.5, 7.0, 3],  # nested under a span of the same name
    ]
    s = summarize(spans)
    assert s.self_time == pytest.approx({"op": 4.0, "a": 5.0, "b": 1.0})
    assert s.total == pytest.approx({"op": 10.0, "a": 6.0, "b": 1.0})
    assert s.calls == {"op": 1, "a": 3, "b": 1}
    assert sum(s.self_time.values()) == pytest.approx(10.0)


def test_tracer_wraps_every_binding_and_restores_it():
    original = lsbe.estimates.lb_direction
    assert lsbe.solver.lb_direction is original
    seen = []
    target = Target("lsbe.estimates", "lb_direction", "estimates.lb_direction",
                    lambda a, k, r, e: seen.append(e))
    with Tracer([target]) as tracer:
        assert lsbe.solver.lb_direction is not original
        assert lsbe.estimates.lb_direction is lsbe.solver.lb_direction
        kwf = lsbe.estimates.kw_factorization(np.eye(3))
        lsbe.solver.lb_direction(kwf, np.ones(3), 1.0)
    assert lsbe.solver.lb_direction is original
    assert lsbe.estimates.lb_direction is original
    assert [s[0] for s in tracer.spans] == ["estimates.lb_direction"]
    assert seen == [None]


def _tiny_solve(tmp_path, name="solve-trace"):
    wl = workloads.make(name, 2, tmp_path, "tiny")
    wl.prepare()
    return wl


def test_solve_operation_passes_its_gates(tmp_path):
    wl = _tiny_solve(tmp_path)
    with Tracer(wl.phase_targets()) as tracer:
        record = wl.operation(tracer)
    assert record.failed == 0 and record.attempted == 30
    assert record.setup_s > 0 and record.solve_s > 0


def test_gate_rejects_a_tampered_trace_row(tmp_path, monkeypatch):
    wl = _tiny_solve(tmp_path)
    write = lsbe.cli.write_trace_csv

    def write_then_tamper(rows, path):
        write(rows[:3] + [replace(rows[3], lb_fresh=rows[3].lb_fresh * 2)]
              + rows[4:], path)

    monkeypatch.setattr(lsbe.cli, "write_trace_csv", write_then_tamper)
    with Tracer(wl.phase_targets()) as tracer:
        with pytest.raises(GateError, match="read back"):
            wl.operation(tracer)


def test_gate_rejects_wrong_product_counts(tmp_path):
    wl = _tiny_solve(tmp_path)
    with Tracer(wl.phase_targets()) as tracer:
        wl.operation(tracer)
    rows = wl._captured["trace"].rows
    workloads.check_accounting(rows)
    rows[5] = replace(rows[5], rmatvec_count=rows[5].rmatvec_count + 1)
    with pytest.raises(GateError, match="accounting"):
        workloads.check_accounting(rows)


def test_bound_violations_count_as_failures(tmp_path):
    wl = _tiny_solve(tmp_path, "solve-converge")
    with Tracer(wl.phase_targets()) as tracer:
        wl.operation(tracer)
    row = wl._captured["trace"].rows[-1]
    assert workloads.certified_bounds_hold(row, 600)
    assert not workloads.certified_bounds_hold(
        replace(row, ub_generous=0.5 * row.mu_true), 600)
    assert not workloads.certified_bounds_hold(
        replace(row, mu_true=math.nan), 600)
    assert not workloads.bounds_ordered(
        replace(row, lb_recycled=2.0 * row.ub_deflation), 600)


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py"] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _metric_names(kind):
    return [m["name"] for m in SPEC[kind]]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_prints_the_result_line(workload, trace):
    out = _run(["--workload", workload, "--seed", "7", "--seconds", "0.2",
                "--trace", trace, "--size", "tiny"])
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    kind = "end_to_end" if trace == "0" else "per_layer"
    assert sorted(result["metrics"]) == sorted(_metric_names(kind))
    units = {m["name"]: m["unit"] for m in SPEC[kind]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert math.isfinite(metric["value"])
    description = json.loads(out.stdout.splitlines()[-2])
    assert description["machine"]["nproc"] >= 1


def test_checkout_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(["--workload", "exact-desk", "--seed", "1", "--seconds", "1",
                "--trace", "0"], cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
