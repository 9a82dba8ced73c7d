import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp

import lsbe.cli
import lsbe.core
import lsbe.exact
from lsbe import (mu_all_methods, mu_exact, weighted_residual, LSProblem,
                  kw_multi)
from lsbe.cli import main
from lsbe.fileio import (TRACE_SCHEMA, load_dense, load_matrix,
                         read_trace_csv, trace_schema_of, write_trace_csv)
from lsbe.solver import TRACE_COLUMNS

DATA = os.path.join(os.path.dirname(__file__), "data")
TINY = os.path.join(DATA, "tiny_20x5.mtx")
TINY_XB = [os.path.join(DATA, "tiny_x.txt"), os.path.join(DATA, "tiny_b.txt")]


def _parse_report(out):
    values = {}
    for line in out.splitlines():
        if " = " in line:
            key, _, val = line.partition(" = ")
            try:
                values[key.strip()] = float(val.split()[0])
            except ValueError:
                values[key.strip()] = val.strip()
    return values


def _write_instance(tmp_path, A, x, b):
    mpath = str(tmp_path / "A.mtx")
    scipy.io.mmwrite(mpath, sp.coo_matrix(A))
    xpath = str(tmp_path / "x.txt")
    np.savetxt(xpath, np.atleast_1d(x))
    bpath = str(tmp_path / "b.txt")
    np.savetxt(bpath, np.atleast_1d(b))
    return mpath, xpath, bpath


def test_estimate_scalar_four_way(tmp_path, capsys):
    paths = _write_instance(tmp_path, np.array([[1.0]]), [1.0], [2.0])
    code = main(["estimate", *paths, "--theta", "1"])
    assert code == 0
    values = _parse_report(capsys.readouterr().out)
    mus = [values[k] for k in
           ("mu[eig]", "mu[sigma-min]", "mu[fixed-point]", "mu[gevp]")]
    ref = mu_exact(np.array([[1.0]]),
                   np.array([[1.0 / np.sqrt(2.0)]])).mu
    for mu in mus:
        assert mu == pytest.approx(ref, rel=1e-10)
    assert max(mus) - min(mus) <= 1e-10 * max(mus)


def test_estimate_exact_solution_reports_zero(tmp_path, capsys, rng):
    A = rng.standard_normal((12, 3))
    b = rng.standard_normal(12)
    x = np.linalg.lstsq(A, b, rcond=None)[0]
    paths = _write_instance(tmp_path, A, x, b)
    assert main(["estimate", *paths]) == 0
    values = _parse_report(capsys.readouterr().out)
    for key in ("mu[eig]", "nu", "lb_sketched"):
        assert values[key] <= 1e-10


def test_estimate_is_thin_wrapper(tmp_path, capsys, rng):
    A = rng.standard_normal((10, 4))
    b = rng.standard_normal(10)
    x = rng.standard_normal(4)
    paths = _write_instance(tmp_path, A, x, b)
    assert main(["estimate", *paths, "--theta", "2.0"]) == 0
    values = _parse_report(capsys.readouterr().out)
    wr = weighted_residual(LSProblem(A, b, theta=2.0), x)
    expected = mu_all_methods(A, wr.Rtheta[:, 0])
    assert values["mu[eig]"] == pytest.approx(expected["eig"].mu, rel=1e-15)
    assert values["mu[gevp]"] == pytest.approx(expected["gevp"].mu, rel=1e-15)


def test_estimate_all_calls_each_route_once(tmp_path, capsys, rng,
                                            monkeypatch):
    A = rng.standard_normal((10, 4))
    b = rng.standard_normal(10)
    x = rng.standard_normal(4)
    paths = _write_instance(tmp_path, A, x, b)
    routes = {"eig": "mu_exact", "sigma-min": "mu_sigma_min",
              "fixed-point": "mu_fixed_point", "gevp": "mu_gevp"}
    calls = dict.fromkeys(routes.values(), 0)
    for fn_name in routes.values():
        def counted(*args, _fn=getattr(lsbe.cli, fn_name), _key=fn_name,
                    **kwargs):
            calls[_key] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(lsbe.cli, fn_name, counted)
    assert main(["estimate", *paths]) == 0
    assert calls == dict.fromkeys(routes.values(), 1)
    values = _parse_report(capsys.readouterr().out)
    A_loaded = load_matrix(paths[0])
    wr = weighted_residual(LSProblem(A_loaded, load_dense(paths[2])),
                           load_dense(paths[1]))
    for name, fn_name in routes.items():
        r = wr.Rtheta if name == "eig" else wr.Rtheta[:, 0]
        direct = getattr(lsbe.exact, fn_name)(A_loaded, r).mu
        assert values[f"mu[{name}]"] == direct, name


@pytest.mark.parametrize("flags, fixture", [
    ([], "estimate_tiny_default.txt"),
    (["--theta", "2"], "estimate_tiny_theta2.txt"),
    (["--mu-est", "0.5"], "estimate_tiny_muest05.txt")])
def test_estimate_matches_recorded_output(capsys, flags, fixture):
    # Recorded before the estimator suite moved into estimate_bounds.
    assert main(["estimate", TINY, *TINY_XB, *flags]) == 0
    with open(os.path.join(DATA, fixture)) as fh:
        assert capsys.readouterr().out == fh.read()


def test_estimate_multiple_rhs(tmp_path, capsys, rng):
    # d = 2: only the eigenvalue route runs, nu comes from kw_multi, and
    # the single-residual sketched suite is not printed.
    A = rng.standard_normal((12, 3))
    X = rng.standard_normal((3, 2))
    B = A @ X + 0.1 * rng.standard_normal((12, 2))
    paths = _write_instance(tmp_path, A, X, B)
    assert main(["estimate", *paths]) == 0
    out = capsys.readouterr().out
    values = _parse_report(out)
    assert values["d"] == 2
    for name in ("sigma-min", "fixed-point", "gevp"):
        assert f"mu[{name}] skipped (needs a single right-hand side)" in out
    A_loaded = load_matrix(paths[0])
    wr = weighted_residual(LSProblem(A_loaded, load_dense(paths[2])),
                           load_dense(paths[1]))
    assert values["mu[eig]"] == mu_exact(A_loaded, wr.Rtheta).mu
    assert values["nu"] == kw_multi(A_loaded, wr.Rtheta)
    assert values["mu_over_nu"] == values["mu[eig]"] / values["nu"]
    assert "nu_sketched" not in values and "lb_sketched" not in values


def test_estimate_identity_sketch_gives_nu(capsys):
    # With S = I the sketched estimate is nu itself.
    assert main(["estimate", TINY, *TINY_XB, "--sketch", "identity"]) == 0
    values = _parse_report(capsys.readouterr().out)
    assert values["nu_sketched"] == pytest.approx(values["nu"], rel=1e-12)


def test_estimate_mu_est_above_sketch_limit_resets(capsys):
    assert main(["estimate", TINY, *TINY_XB, "--mu-est", "1e6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    notes = [ln for ln in lines if ln.startswith("note:")]
    assert len(notes) == 1 and "mu_est reset to 0" in notes[0]
    # After the reset the bounds are those of mu_est = 0.
    with open(os.path.join(DATA, "estimate_tiny_default.txt")) as fh:
        assert [ln for ln in lines if ln not in notes] == \
            fh.read().splitlines()


def test_estimate_factors_A_once(capsys, monkeypatch):
    # One factorization of A (nu and the fixed-point route) and one of the
    # sketch, counted under every name an lsbe module binds it to and told
    # apart by the shape of the factored matrix: A is 20 x 5, the 6n
    # sketch SA (factored as kw_factorization(A, sketch=S)) is 30 x 5.
    original = lsbe.core.kw_factorization
    calls = []

    def counted(M, sketch=None):
        rows = M.shape[0] if sketch is None else sketch.rows
        calls.append((rows, M.shape[1]))
        return original(M, sketch=sketch)

    for name, mod in list(sys.modules.items()):
        if name == "lsbe" or name.startswith("lsbe."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, counted)
    assert main(["estimate", TINY, *TINY_XB]) == 0
    assert sorted(calls) == [(20, 5), (30, 5)]


def test_solve_smoke_and_csv_schema(tmp_path):
    out = str(tmp_path / "trace.csv")
    code = main(["solve", TINY, "--out", out, "--true-mu", "on",
                 "--refine-steps", "1"])
    assert code == 0
    assert trace_schema_of(out) == TRACE_SCHEMA
    with open(out) as fh:
        lines = fh.read().splitlines()
    assert lines[1].split(",") == TRACE_COLUMNS
    rows = read_trace_csv(out)
    assert rows and rows[0].iter == 1
    # Manifest written alongside.
    with open(out + ".manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["solver"]["atol"] == 1e-12
    assert manifest["seed"] == 0


def test_solve_with_rhs_file(tmp_path, capsys):
    # --rhs replaces the seeded right-hand side: the run converges to the
    # least-squares residual of the stored b.
    out = tmp_path / "t.csv"
    assert main(["solve", TINY, "--rhs", TINY_XB[1], "--out", str(out),
                 "--sketch", "identity"]) == 0
    manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
    assert manifest["rhs"] == TINY_XB[1]
    assert manifest["sketch"]["rows"] == 20  # identity: m rows
    A, b = load_matrix(TINY), load_dense(TINY_XB[1])
    x_ls = np.linalg.lstsq(A.toarray(), b, rcond=None)[0]
    assert read_trace_csv(str(out))[-1].norm_r == pytest.approx(
        np.linalg.norm(b - A @ x_ls), rel=1e-8)


def test_solve_manifest_is_strict_json(tmp_path):
    # The default theta is infinite; the manifest spells it "inf", so a
    # parser that rejects NaN and Infinity reads the file.
    out = tmp_path / "t.csv"
    assert main(["solve", TINY, "--out", str(out),
                 "--recycle-threshold", "inf"]) == 0

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    text = Path(str(out) + ".manifest.json").read_text()
    manifest = json.loads(text, parse_constant=reject)
    assert manifest["solver"]["theta"] == "inf"
    assert manifest["solver"]["recycle_threshold"] == "inf"
    assert manifest["solver"]["atol"] == 1e-12


def test_solve_byte_identical_reruns(tmp_path):
    out1 = str(tmp_path / "a.csv")
    out2 = str(tmp_path / "b.csv")
    args = ["solve", TINY, "--seed", "3", "--sketch-rows-factor", "6",
            "--true-mu", "on"]
    assert main(args + ["--out", out1]) == 0
    assert main(args + ["--out", out2]) == 0
    assert Path(out1).read_bytes() == Path(out2).read_bytes()


@pytest.mark.parametrize("factor", ["1.5", "6", "16"])
def test_solve_accepts_sketch_factors(tmp_path, factor):
    out = str(tmp_path / "t.csv")
    assert main(["solve", TINY, "--out", out,
                 "--sketch-rows-factor", factor]) == 0


def test_solve_sparse_sign_sketch(tmp_path):
    out = str(tmp_path / "t.csv")
    assert main(["solve", TINY, "--out", out, "--sketch",
                 "sparse-sign"]) == 0


def test_trace_roundtrip_lossless(tmp_path, rng):
    out = str(tmp_path / "trace.csv")
    assert main(["solve", TINY, "--out", out, "--true-mu", "on"]) == 0
    rows = read_trace_csv(out)
    write_trace_csv(rows, out + ".again")
    assert Path(out).read_bytes() == Path(out + ".again").read_bytes()


def test_rejects_complex_matrix(tmp_path):
    path = str(tmp_path / "c.mtx")
    scipy.io.mmwrite(path, np.array([[1 + 2j]]))
    assert main(["estimate", path, path, path]) == 2


def test_rejects_pattern_matrix(tmp_path):
    path = str(tmp_path / "p.mtx")
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate pattern general\n"
                 "2 2 1\n1 1\n")
    assert main(["solve", path, "--out", str(tmp_path / "t.csv")]) == 2


def test_missing_file_exit_code(tmp_path):
    assert main(["solve", str(tmp_path / "nope.mtx"),
                 "--out", str(tmp_path / "t.csv")]) == 2


@pytest.mark.parametrize("flag, value, field", [
    ("--max-iters", "0", "max_iters"),
    ("--refine-steps", "-1", "refine_steps"),
    ("--norm-a2", "0", "norm_A_2"),
    ("--norm-a2", "-1", "norm_A_2"),
    ("--norm-a2", "nan", "norm_A_2"),
    ("--norm-a2", "inf", "norm_A_2"),
    ("--recycle-threshold", "nan", "recycle_threshold"),
    ("--recycle-threshold", "-1", "recycle_threshold"),
    ("--atol", "inf", "atol")])
def test_solve_rejects_invalid_counts(tmp_path, capsys, flag, value, field):
    out = tmp_path / "t.csv"
    assert main(["solve", TINY, flag, value, "--out", str(out)]) == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "estimate"])
@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_sketch_rows_factor_rejected_at_parse_time(tmp_path, capsys,
                                                   monkeypatch, command,
                                                   value):
    def no_load(path):
        raise AssertionError("matrix loaded before the flags were checked")

    monkeypatch.setattr(lsbe.cli, "load_matrix", no_load)
    out = tmp_path / "t.csv"
    argv = ([command, TINY, "--out", str(out)] if command == "solve"
            else [command, TINY, *TINY_XB])
    with pytest.raises(SystemExit) as exc:
        main(argv + [f"--sketch-rows-factor={value}"])
    assert exc.value.code == 2
    assert "sketch rows factor" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-0.5"])
def test_mu_est_rejected_at_parse_time(capsys, monkeypatch, value):
    def no_load(path):
        raise AssertionError("matrix loaded before the flags were checked")

    monkeypatch.setattr(lsbe.cli, "load_matrix", no_load)
    with pytest.raises(SystemExit) as exc:
        main(["estimate", TINY, *TINY_XB, f"--mu-est={value}"])
    assert exc.value.code == 2
    assert "mu_est must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "estimate"])
def test_negative_seed_rejected_at_parse_time(tmp_path, capsys, monkeypatch,
                                              command):
    def no_load(path):
        raise AssertionError("matrix loaded before the flags were checked")

    monkeypatch.setattr(lsbe.cli, "load_matrix", no_load)
    out = tmp_path / "t.csv"
    argv = ([command, TINY, "--out", str(out)] if command == "solve"
            else [command, TINY, *TINY_XB])
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed=-1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "seed must be a non-negative integer" in captured.err
    assert captured.out == ""  # no exact route ran first
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--scale", "inf"], "scale must be finite and positive"),
    (["--scale", "nan"], "scale must be finite and positive"),
    (["--scale", "-1"], "scale must be finite and positive"),
    (["--scale", "0"], "scale must be finite and positive"),
    (["--trials", "-5"], "trials must be at least 1"),
    (["--trials", "0"], "trials must be at least 1"),
    (["--seed", "-3"], "seed must be a non-negative integer"),
    (["--seed", "x"], "invalid seed value: 'x'"),
    (["--trials", "1.5"], "invalid trials value: '1.5'")])
def test_verify_flags_rejected_at_parse_time(capsys, monkeypatch, flags,
                                             message):
    def no_run(**kwargs):
        raise AssertionError("suites ran before the flags were checked")

    monkeypatch.setattr(lsbe.cli, "run_all", no_run)
    with pytest.raises(SystemExit) as exc:
        main(["verify", *flags])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--theta", "x"), ("--sketch-rows-factor", "x"), ("--mu-est", "x")])
def test_parse_errors_name_the_value(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["estimate", TINY, *TINY_XB, flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: invalid" in err and "_parse" not in err


@pytest.mark.parametrize("value", ["inf", "Infinity", "INF"])
def test_theta_accepts_infinity(value):
    args = lsbe.cli.build_parser().parse_args(
        ["solve", TINY, "--theta", value])
    assert args.theta == float("inf")


def test_load_matrix_dense_array_format(tmp_path, rng):
    A = rng.standard_normal((4, 3))
    path = str(tmp_path / "dense.mtx")
    scipy.io.mmwrite(path, A)
    M = load_matrix(path)
    assert isinstance(M, np.ndarray)
    assert np.allclose(M, A, rtol=0, atol=1e-12)


def test_load_dense_matrixmarket_vector(tmp_path):
    path = str(tmp_path / "v.mtx")
    scipy.io.mmwrite(path, np.array([[1.0], [2.5]]))
    v = load_dense(path)
    assert v.shape == (2, 1)


def test_verify_single_trial_passes(capsys):
    code = main(["verify", "--trials", "1"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "PASS" in out
    assert "gl7d12" in out  # skipped line still reported


def test_verify_detects_injected_failure(capsys):
    code = main(["verify", "--trials", "1", "--inject-failure"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out
