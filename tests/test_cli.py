"""CLI contract: deterministic stdout, JSON shape, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mpmath import mp, mpf

from zetaodd import cli, engine, series
from zetaodd.coefficients import CoefficientTable
from zetaodd.core import truncate_digits


# the child imports the package this process imports, with or without PYTHONPATH
SRC = str(Path(cli.__file__).resolve().parents[1])
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "zetaodd.cli", *argv],
        capture_output=True, text=True, timeout=120, env=CHILD_ENV,
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_inproc(*argv, capsys=None):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


# ------------------------------------------------------------------ compute


def test_compute_zeta_text(capsys):
    code, out, err = run_inproc(
        "compute", "zeta", "--s", "3", "--digits", "30", capsys=capsys)
    assert code == 0
    lines = out.splitlines()
    assert "constant = zeta(3)" in lines
    assert "value = 1.20205690315959428539973816151" in lines
    assert any(line.startswith("error_bound < 1e-") for line in lines)
    assert any(line.startswith("terms_used[") for line in lines)
    assert "wall_time" in err  # timing goes to stderr, not stdout


def test_compute_zeta_json(capsys):
    code, out, _ = run_inproc(
        "compute", "zeta", "--s", "5", "--method", "p5", "--digits", "50",
        "--format", "json", capsys=capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["constant"] == "zeta(5)"
    assert payload["method"] == "p5"
    assert payload["digits"] == 50
    assert payload["error_bound"].startswith("<1e-")
    assert int(payload["error_bound"].split("-")[1]) >= 50
    assert payload["value"].startswith("1.036927755143369926331365486457")
    assert all(n <= 20 for n in payload["terms_used"].values())


def test_compute_pi_and_log(capsys):
    code, out, _ = run_inproc(
        "compute", "pi", "--power", "3", "--digits", "40",
        "--format", "json", capsys=capsys)
    assert code == 0
    assert json.loads(out)["value"].startswith("31.00627668029982017547631506710139520222")
    code, out, _ = run_inproc(
        "compute", "log", "--p", "2", "--digits", "40", "--format", "json",
        capsys=capsys)
    assert code == 0
    assert json.loads(out)["value"].startswith("0.693147180559945309417232121458176568075")


@pytest.mark.parametrize("what, n, method, digits", [
    # tables whose debug values pass Python's 4300-digit int-to-str limit
    ("zeta", 1555, "corollary", 600),
    ("pi", 1559, "example63", 10),
    # pi powers whose weights pass a float in the pass's error bookkeeping
    ("pi", 613, "auto", 10),
    ("pi", 1601, "auto", 10),
])
def test_compute_at_large_orders(what, n, method, digits, capsys):
    flag = "--s" if what == "zeta" else "--power"
    code, out, _ = run_inproc("compute", what, flag, str(n), "--method", method,
                              "--digits", str(digits), "--format", "json", capsys=capsys)
    assert code == 0
    with mp.workdps(digits + 30):
        expected = truncate_digits(mp.zeta(n) if what == "zeta" else mp.pi ** n, digits)
    assert json.loads(out)["value"] == expected


def test_compute_zeta3_first_order(capsys):
    code, out, _ = run_inproc("compute", "zeta3-first-order", capsys=capsys)
    assert code == 0
    err_line = next(l for l in out.splitlines()
                    if l.startswith("error_vs_oracle"))
    measured = float(err_line.split("=")[1])
    assert 0 < measured < 5e-10  # approximation sits above zeta(3)


# ------------------------------------------------------------------- coeffs


def test_coeffs_json_roundtrip(capsys):
    code, out, _ = run_inproc(
        "coeffs", "--constant", "zeta", "--method", "p5", "--k", "1",
        capsys=capsys)
    assert code == 0
    table = CoefficientTable.from_dict(json.loads(out))
    assert table.method == "p5"
    # byte-identical re-serialization
    assert table.to_json() == out.rstrip("\n")


def test_coeffs_rewrite_flag(capsys):
    code, out, _ = run_inproc(
        "coeffs", "--constant", "log", "--p", "3", "--rewrite-positive-q",
        capsys=capsys)
    assert code == 0
    assert "-exp" not in out  # no negative nomes survive the rewrite


def test_coeffs_pi(capsys):
    code, out, _ = run_inproc(
        "coeffs", "--constant", "pi", "--power", "5", "--method", "prop_pi5",
        capsys=capsys)
    assert code == 0
    assert json.loads(out)["constant"] == "pi^5"


@pytest.mark.parametrize("argv", [
    ("--power", "3", "--method", "auto"),
    ("--power", "3"),  # the pi default is auto, as for compute pi
])
def test_coeffs_pi_default_method(argv, capsys):
    code, out, _ = run_inproc("coeffs", "--constant", "pi", *argv,
                              capsys=capsys)
    assert code == 0
    payload = json.loads(out)
    assert (payload["constant"], payload["method"]) == ("pi^3", "example63")


# ------------------------------------------------------------------- verify


@pytest.mark.parametrize("argv", [
    ("verify", "--identity", "t1c1", "--t", "1.3,0.4"),
    ("verify", "--identity", "t1c2", "--k", "2", "--t", "1,0"),
    ("verify", "--identity", "t1c3", "--k", "1", "--t", "0.9,0.1"),
    ("verify", "--identity", "lemma-p4", "--q", "0.25", "--s", "-3"),
    ("verify", "--identity", "lemma-sech", "--q", "0.36", "--s", "-5"),
    ("verify", "--identity", "zeta-free", "--case", "1", "--k", "0",
     "--a", "1/2", "--t", "1,0"),
    ("verify", "--identity", "zeta-free", "--case", "2", "--k", "2",
     "--a", "2/3", "--t", "1.1,0"),
])
def test_verify_identities_pass(argv, capsys):
    code, out, _ = run_inproc(*argv, capsys=capsys)
    assert code == 0
    assert out.splitlines()[-1] == "PASS"
    assert "rel_residual" in out


def test_verify_multisection(capsys):
    code, out, _ = run_inproc(
        "verify", "--identity", "multisection", "--p", "7", "--s", "-9",
        "--order", "50", capsys=capsys)
    assert code == 0
    assert "exact_mismatch = 0" in out
    assert out.splitlines()[-1] == "PASS"


def test_verify_fail_exit_code(capsys, monkeypatch):
    # exit 2 is reserved for a residual above threshold; force one by
    # stubbing the checker (the real identities never fail, that's the point)
    from mpmath import mpf

    from zetaodd import identities
    from zetaodd.identities import Residual

    def bogus(t, ctx):
        return Residual(mpf(1), mpf(1), mpf(1), 1, 30)

    monkeypatch.setattr(identities, "check_t1_case1", bogus)
    code, out, _ = run_inproc("verify", "--identity", "t1c1", capsys=capsys)
    assert code == 2
    assert out.splitlines()[-1] == "FAIL"


# ------------------------------------------------------------------- bench


def test_bench_output(capsys):
    code, out, _ = run_inproc(
        "bench", "--s", "3", "--method", "root15", "--max-terms", "6",
        "--digits", "60", capsys=capsys)
    assert code == 0
    lines = out.splitlines()
    assert sum(1 for l in lines if l.startswith("n=")) == 6
    slope_line = lines[-1]
    assert slope_line.startswith("slope = ")
    slope = float(slope_line.split()[2])
    assert abs(slope - 5.2841) < 0.3


def test_bench_pi_default_method(capsys):
    # bench defaults to --method auto, which pi resolves as compute pi does
    code, out, _ = run_inproc("bench", "--constant", "pi^3", "--max-terms",
                              "6", "--digits", "60", capsys=capsys)
    assert code == 0
    assert "method = example63" in out.splitlines()


# -------------------------------------------------------------- exit codes


def test_exit_usage_on_bad_flags():
    code, out, err = run_cli("compute", "zeta", "--format", "yaml", "--s", "3")
    assert code == 64
    assert "usage:" in err
    code, _, err = run_cli("compute", "zeta")  # missing required --s
    assert code == 64
    assert "usage:" in err
    code, _, err = run_cli("frobnicate")
    assert code == 64


def test_exit_domain_error():
    code, _, err = run_cli("compute", "zeta", "--s", "4")
    assert code == 65
    assert "error:" in err
    code, _, err = run_cli("compute", "zeta", "--s", "13",
                           "--method", "root3_p")
    assert code == 65
    code, _, err = run_cli("compute", "pi", "--power", "2")
    assert code == 65


def test_exit_convergence_error(monkeypatch, capsys):
    monkeypatch.setattr(series, "TERM_CAP", 3)
    code, _, err = run_inproc("compute", "zeta", "--s", "3", "--digits", "80",
                              capsys=capsys)
    assert code == 69
    assert "error:" in err
    # a real input reaches the cap too: a nome this close to 1 would need
    # more than TERM_CAP terms
    code, out, err = run_cli("verify", "--identity", "lemma-p4",
                             "--q", "0.99999", "--digits", "30")
    assert code == 69
    assert out == "" and "error: lambert_eval" in err


def test_exit_convergence_when_bench_asks_past_the_term_cap(capsys):
    # refused before the pass builds a single prefix
    code, out, err = run_inproc("bench", "--max-terms", str(series.TERM_CAP + 1),
                                capsys=capsys)
    assert code == 69
    assert out == "" and f"more than {series.TERM_CAP} prefixes" in err


def test_exit_convergence_when_digits_stay_uncertified(monkeypatch, capsys):
    # an interval that never narrows to one string of digits
    monkeypatch.setattr(engine, "assemble_detailed",
                        lambda table, ctx: (mpf(1), mpf("0.5"), {}))
    code, out, err = run_inproc("compute", "zeta", "--s", "3", "--digits", "20",
                                capsys=capsys)
    assert code == 69
    assert out == "" and "error: zeta(3)" in err


def test_exit_without_traceback_when_stdout_closes_early():
    # `coeffs ... | head -3` where head has already left: the read end is
    # closed before the child writes, so every run meets the broken pipe
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "zetaodd.cli", "coeffs", "--constant", "zeta", "--k", "1"],
            stdout=write_end, stderr=subprocess.PIPE, timeout=120, env=CHILD_ENV)
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == cli.EX_IOERR


def test_stdout_deterministic():
    argv = ("compute", "zeta", "--s", "5", "--method", "root15_p",
            "--digits", "60", "--format", "json")
    code1, out1, _ = run_cli(*argv)
    code2, out2, _ = run_cli(*argv)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical for identical argv


def test_console_script_installed():
    import shutil

    exe = shutil.which("zetaodd")
    if exe is None:
        pytest.skip("console script not on PATH in this environment")
    proc = subprocess.run([exe, "compute", "log", "--p", "5", "--digits", "20"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "value = 1.6094379124341003746" in proc.stdout


@pytest.mark.parametrize("argv", [
    ("compute", "zeta", "--s", "3", "--digits", "0"),
    ("compute", "zeta", "--s", "5", "--digits", "-7"),
    ("compute", "pi", "--power", "3", "--digits", "0"),
    ("compute", "log", "--p", "2", "--digits", "-1"),
    ("verify", "--identity", "t1c1", "--digits", "0"),
    ("bench", "--digits", "0"),
    # below 6 digits the threshold 10^-(digits-5) is 1 or more
    ("verify", "--identity", "lemma-sech", "--q", "0.4", "--s", "-3", "--digits", "5"),
])
def test_exit_usage_on_nonpositive_digits(argv, capsys):
    with pytest.raises(SystemExit) as stop:
        cli.main(list(argv))
    assert stop.value.code == 64
    err = capsys.readouterr().err
    assert "usage:" in err and "--digits" in err


@pytest.mark.parametrize("argv, code", [
    (("verify", "--identity", "multisection", "--order", "0"), 64),
    (("verify", "--identity", "multisection", "--order", "-3"), 64),
    (("verify", "--identity", "lemma-p4", "--q", "abc"), 64),
    (("verify", "--identity", "zeta-free", "--a", "abc"), 64),
    (("verify", "--identity", "zeta-free", "--a", "1/0"), 64),
    (("bench", "--constant", "zeta(x)"), 65),
    (("bench", "--constant", "pi^x"), 65),
    (("verify", "--identity", "t1c3", "--t", "nan,0"), 65),
    # a nan nome is no nome inside the unit disc
    (("verify", "--identity", "t1c1", "--t", "inf,0"), 65),
    (("verify", "--identity", "t1c1", "--t", "1,inf"), 65),
    (("verify", "--identity", "t1c3", "--t", "1,nan"), 65),
    (("verify", "--identity", "zeta-free", "--t", "inf,0"), 65),
    # sieves past the memory budget are refused before they start
    (("verify", "--identity", "multisection", "--p", "7", "--order", "1000",
      "--s", "-1000"), 65),
    (("verify", "--identity", "multisection", "--p", "7", "--order", "1000",
      "--s", "2000"), 65),
])
def test_malformed_values_exit_without_traceback(argv, code, capsys):
    try:
        got = cli.main(list(argv))
    except SystemExit as stop:
        got = stop.code
    assert got == code
    err = capsys.readouterr().err
    assert ("usage:" if code == 64 else "error:") in err


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("argv, constant, method", [
    (("--method", "root3", "--k", "2"), "zeta(7)", "root3"),
    (("--method", "corollary2", "--k", "1"), "zeta(3)", "corollary"),
    (("--method", "auto", "--k", "1"), "zeta(5)", "root3_p"),
    (("--method", "root7_p", "--k", "2"), "zeta(9)", "root7_p"),
])
def test_coeffs_zeta_method_fixes_parity(argv, constant, method, capsys):
    code, out, _ = run_inproc("coeffs", "--constant", "zeta", *argv,
                              capsys=capsys)
    assert code == 0
    payload = json.loads(out)
    assert (payload["constant"], payload["method"]) == (constant, method)


@pytest.mark.parametrize("argv", [
    ("--constant", "pi", "--power", "3", "--method", "example62"),
    ("--constant", "pi", "--power", "1", "--method", "prop_pi5"),
    ("--constant", "pi", "--power", "3", "--method", "root15"),  # a zeta method
    ("--constant", "pi", "--power", "2"),  # auto has no table for even powers
    ("--constant", "zeta", "--k", "0", "--method", "corollary"),
    ("--constant", "zeta", "--k", "1", "--method", "p2_p"),
])
def test_coeffs_domain_errors(argv, capsys):
    code, _, err = run_inproc("coeffs", *argv, capsys=capsys)
    assert code == 65
    assert "error:" in err
