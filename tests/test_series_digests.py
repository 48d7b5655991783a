"""Pins of the series kernel's bits, below what any printed digit shows.

golden/series_digests.json maps each case below to the sha256 of the repr
of what it returns, every bit of it:
  - one-term passes (``base_sums``) of each kind at real nomes +-q and,
    Lambert and derivative, at i sqrt(q): the value's ``_mpf_``/``_mpc_``,
    the rounding error's ``_mpf_`` and N, at 30, 200 and 1000 digits;
  - the prefix passes of a profile (``Term.prefixes``) of each kind at real
    nomes: the value and rounding error of every prefix N = 1..P;
  - every field of each identity check's ``Residual``;
  - ``lambert_q_expansion`` and ``check_multisection`` on a small grid.
The CLI pins print a few digits of each residual, so they cannot show a
change in the low bits; these can.  A kernel rewritten for speed must give
the same bits: the test names each case that moved.
``python tests/test_series_digests.py`` adds the cases not pinned yet and
never rewrites an existing entry; ``python tests/test_series_digests.py
--diff`` prints each case that moved, writes nothing, and exits 1 if any
moved, 0 otherwise.
"""

import hashlib
import json
import math
import sys
from pathlib import Path

import pytest
from mpmath import mp, mpf
from mpmath.libmp import from_man_exp

from zetaodd import identities
from zetaodd.core import PrecisionContext
from zetaodd.series import Term, base_sums, lambert_q_expansion

GOLDEN = Path(__file__).parent / "golden" / "series_digests.json"


def _context(digits: int) -> PrecisionContext:
    """The context the pins were taken at: they pin the kernel's bits at a
    named working precision, not the guard make_context chooses."""
    return PrecisionContext(digits, max(20, math.ceil(digits / 10)))


def _bits(v):
    return v._mpc_ if isinstance(v, mp.mpc) else v._mpf_


def _fixed_bits(ints, prec: int):
    """The bits of the mpf (mpc for two ints) that is the fixed-point
    value ints 2^-prec, as the kernel returned it before it returned ints."""
    parts = tuple(from_man_exp(c, -prec) for c in ints)
    return parts if len(parts) == 2 else parts[0]


def _pass(kind: str, q: str, nome: str, s: int, digits: int):
    """One term of `kind` at the nome q, -q or i sqrt(q), to 10^-(digits+5)."""
    ctx = _context(digits)
    with ctx.workdps():
        x = mpf(q)
        if nome == "isqrt":
            x = mp.mpc(0, mp.sqrt(x))
        term = Term(kind, 1, -1 if nome == "neg" else 1, s, mpf(10) ** -(digits + 5))
        [(n, _, _)], sums, prec = base_sums(x, [term], ctx)
    value, rounding = sums[None]
    return _fixed_bits(value, prec), from_man_exp(rounding, -prec), n


def _prefixes(kind: str, q: str, nome: str, s: int, p: int, digits: int):
    """The P prefixes of one term of `kind` at the nome q or -q; a prefix past
    the last one the pass keeps is that last one."""
    ctx = _context(digits)
    with ctx.workdps():
        term = Term(kind, 1, -1 if nome == "neg" else 1, s, None, prefixes=p)
        _, sums, prec = base_sums(mpf(q), [term], ctx)
    out, last = [], None
    for n in range(1, p + 1):
        last = sums.get((None, n), last)
        out.append((_fixed_bits(last[0], prec), from_man_exp(last[1], -prec)))
    return out


def _residual(check: str, args: tuple, digits: int):
    r = getattr(identities, check)(*args, _context(digits))
    return (r.abs_residual._mpf_, r.scale._mpf_, r.rel_residual._mpf_, r.terms_used,
            r.precision_used)


NOMES = {"lambert": ("pos", "neg", "isqrt"), "lambert_derivative": ("pos", "neg", "isqrt"),
         "sech_series": ("pos",)}
CASES = {
    **{f"pass {kind} {nome} q={q} s={s} digits={d}": (_pass, kind, q, nome, s, d)
       for kind, nomes in NOMES.items() for nome in nomes for q in ("0.05", "0.3", "0.5")
       for s in (-1, -3, -9, -25) for d in (30, 200, 1000)},
    **{f"prefixes {kind} {nome} q={q} s={s} P={p} digits={d}": (_prefixes, kind, q, nome, s, p, d)
       for kind, nomes in NOMES.items() for nome in nomes if nome != "isqrt"
       for q in ("0.05", "0.3", "0.6") for s in (-1, -9) for p in (12, 60, 300)
       for d in (30, 200, 1000)},
    **{f"{check} {args} digits={d}": (_residual, check, args, d)
       for check, argses in {
           "check_t1_case1": [(mpf("1.5"),), (mp.mpc("0.8", "0.6"),)],
           "check_t1_case2": [(1, mpf("1.5")), (2, mp.mpc("1.1", "0.3"))],
           "check_t1_case3": [(1, mpf("0.7")), (3, mpf("1.3"))],
           "check_zeta_free": [(1, 1, "2/3", mpf("1.2")), (2, 2, 3, mp.mpc("0.9", "0.2"))],
           "check_lemma_p4": [(mpf("0.3"), -3), (mpf("0.5"), 0)],
           "check_lemma_sech": [(mpf("0.3"), -3), (mpf("0.5"), -1)],
       }.items() for args in argses for d in (30, 200)},
    **{f"lambert_q_expansion s={s} order={order}": (lambert_q_expansion, s, order)
       for s in (-9, -3, -1, 0, 1, 2, 5) for order in (1, 12, 100)},
    **{f"check_multisection p={p} s={s} order={order}":
       (identities.check_multisection, p, s, order)
       for p in (2, 3, 5, 7) for s in (-9, -1, 0, 2) for order in (1, 30, 200)},
}


def digest(case: str) -> str:
    run, *args = CASES[case]
    return hashlib.sha256(repr(run(*args)).encode()).hexdigest()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_kernel_bits_are_pinned(case, golden):
    assert digest(case) == golden[case]


if __name__ == "__main__":
    pinned = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    if sys.argv[1:] == ["--diff"]:
        changed = [case for case in CASES if case in pinned and digest(case) != pinned[case]]
        for case in changed:
            print(case)
        sys.exit(1 if changed else 0)
    else:
        for case in CASES:
            pinned.setdefault(case, digest(case))
        GOLDEN.write_text(json.dumps(pinned, indent=1) + "\n")
