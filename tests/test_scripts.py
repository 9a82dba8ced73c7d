"""The documented scripts under scripts/ run as the README describes."""

import importlib.util
import json
import os

from lsbe.fileio import TRACE_SCHEMA, trace_schema_of

SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(SCRIPTS, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_trace_experiment_demo(tmp_path, capsys):
    script = _load("run_trace_experiment")
    assert script.run(["--demo", "--outdir", str(tmp_path),
                       "--estimate-every", "50"]) == 0
    csvs = sorted(p for p in os.listdir(tmp_path) if p.endswith(".csv"))
    assert csvs == [f"demo_2000x150_sketch{f}x.csv"
                    for f in ("1.5", "16", "6")]
    rows = {}
    for name in csvs:
        path = os.path.join(tmp_path, name)
        assert trace_schema_of(path) == TRACE_SCHEMA
        with open(path + ".manifest.json") as fh:
            manifest = json.load(fh)
        rows[manifest["sketch"]["rows_factor"]] = manifest["sketch"]["rows"]
    assert rows == {1.5: 225, 6.0: 900, 16.0: 2400}
