"""Byte-for-byte pins of CLI stdout for computed constants.

golden/cli_stdout.json maps each argv below to the stdout the CLI printed
for it: values, `error_bound` exponents, `terms_used` lines, convergence
profile points and slopes.  Any change to the series evaluation that moves
one of them shows up here.  ``python tests/test_cli_golden.py`` adds the
stdout of the argvs not pinned yet and never rewrites an existing entry;
``python tests/test_cli_golden.py --diff`` prints, for each pinned argv
whose stdout moved, its old and new lines, writes nothing, and exits 1 if
any moved, 0 otherwise.
"""

import contextlib
import difflib
import io
import json
import re
import sys
from decimal import ROUND_DOWN, Decimal, localcontext
from pathlib import Path

import pytest
from mpmath import mp

from zetaodd import cli
from zetaodd.coefficients import resolve_method

GOLDEN = Path(__file__).parent / "golden" / "cli_stdout.json"

ZETA_METHODS = {
    3: ("auto", "corollary", "corollary2", "root3", "root7", "root15"),
    1: ("auto", "corollary3", "p2", "p3", "p5", "root3_p", "root7_p",
        "root15_p"),
}
ARGVS = (
    [f"compute zeta --s {s} --method {m} --digits {d}"
     for s in (3, 5, 7, 201) for m in ZETA_METHODS[s % 4] for d in (50, 500)]
    # zeta(201) sits 3e-61 above 1: its digits need more than the default guard
    + [f"compute zeta --s 201 --method {m} --digits 10" for m in ZETA_METHODS[1][1:]]
    # 2^-601 and 2^-1601 above 1: past what doubling 20 guard digits reaches in 5 attempts
    + ["compute zeta --s 601 --digits 10", "compute zeta --s 1601 --method corollary3 --digits 20"]
    + [f"compute pi --power {n} --digits 300" for n in (1, 3, 5)]
    + ["compute pi --power 3 --method prop_pi3_fast --digits 300"]
    + [f"compute log --p {p} --digits 300" for p in (2, 3, 5)]
    + [f"bench --method {m} --max-terms 12 --digits 120"
       for m in ("root15", "root7")]
    + [f"bench --s 5 --method {m} --max-terms 12 --digits 120"
       for m in ("p5", "corollary3")]
    + [f"verify --identity {rest}" for rest in (
        "t1c1 --t 1.5,0.5",
        "t1c2 --k 1 --t 1.2,0.3",
        "t1c2 --k 2 --t 1.2,0.3",
        "t1c2 --k 3 --t 0.9,-0.25",
        "t1c3 --k 1 --t 0.8,-0.4",
        "t1c3 --k 2 --t 0.8,-0.4",
        "t1c3 --k 3 --t 1.3,0.2",
        "zeta-free --case 1 --k 1 --a 1/2 --t 1.1,0.2",
        "zeta-free --case 1 --k 2 --a 3/2 --t 0.9,-0.3",
        "zeta-free --case 2 --k 1 --a 1/2 --t 1.2,0.35",
        "zeta-free --case 2 --k 2 --a 3/2 --t 0.85,0.15",
        "lemma-p4 --q 0.3 --s -3",
        "lemma-sech --q 0.4 --s -1",
        "lemma-sech --q 0.4 --s -3",
        "multisection --p 2 --s -3",
        "multisection --p 3 --s -5",
        "multisection --p 5 --s -3",
        "multisection --p 7 --s -1")]
)


def cli_stdout(argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv.split()) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_argv(golden):
    assert sorted(golden) == sorted(ARGVS)


@pytest.mark.parametrize("argv", ARGVS)
def test_cli_stdout_is_pinned(argv, golden):
    assert cli_stdout(argv) == golden[argv]


def test_auto_is_its_resolved_method_byte_for_byte(golden):
    autos = [a for a in golden if "--method auto" in a]
    assert len(autos) == 8
    for argv in autos:
        name, _ = resolve_method("zeta", "auto", int(re.search(r"--s (\d+)", argv)[1]))
        assert golden[argv] == golden[argv.replace("auto", name)], argv


def test_pinned_values_are_mpmaths(golden):
    # each pinned value, the re-pinned ones too, against an oracle that
    # shares nothing with the evaluation path
    computes = [a for a in golden if a.startswith("compute")]
    assert len(computes) == 72
    oracle = {"zeta": mp.zeta, "pi": lambda n: mp.pi ** n, "log": mp.log}
    for argv in computes:
        what, n, digits = re.fullmatch(
            r"compute (\w+) --(?:s|power|p) (\d+)(?: --method \w+)? --digits (\d+)", argv).groups()
        digits = int(digits)
        with mp.workdps(digits + 30):
            text = mp.nstr(oracle[what](int(n)), digits + 25, strip_zeros=False)
        with localcontext() as c:
            c.prec, c.rounding = digits, ROUND_DOWN
            want = +Decimal(text)
        assert f"value = {want}\n" in golden[argv], argv


def test_pinned_residuals_are_below_the_series_target(golden):
    # the series of a check are summed to 10^-(digits + 5): a residual pinned
    # by hand must sit below that, not merely below the printed threshold
    pinned = {a: out for a, out in golden.items()
              if a.startswith("verify") and "multisection" not in a}
    assert len(pinned) == 14
    for argv, out in pinned.items():
        digits = int(re.search(r"--digits (\d+)", argv)[1]) if "--digits" in argv else 30
        residual = re.search(r"^rel_residual = (\S+)$", out, re.M)[1]
        assert Decimal(residual) < Decimal(10) ** -(digits + 5), argv


if __name__ == "__main__":
    pinned = json.loads(GOLDEN.read_text())
    if sys.argv[1:] == ["--diff"]:
        moved = False
        for argv in ARGVS:
            if argv in pinned and (now := cli_stdout(argv)) != pinned[argv]:
                moved = True
                print(argv)
                for line in difflib.unified_diff(pinned[argv].splitlines(),
                                                 now.splitlines(), lineterm="", n=0):
                    if not line.startswith(("---", "+++", "@@")):
                        print(f"  {line}")
        sys.exit(1 if moved else 0)
    else:
        pinned.update({a: cli_stdout(a) for a in ARGVS if a not in pinned})
        GOLDEN.write_text(json.dumps(pinned, indent=1) + "\n")
