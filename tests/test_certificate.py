"""The assembly's certificate, checked against mpmath alone.

An assembly returns T, E and P: the constant lies in (T -+ E) 2^-P, with E
a count of units (floors, the passes' roundings, the tails, the nomes).
Each interval below must hold mpmath's value, taken at the digits plus 30
by mp.zeta, mp.pi ** n or mp.log (nothing the evaluation path shares), and
be narrower than 10^-digits.  The roundings' share of E is checked alone
against the formula cut at the same N, summed term by term.
"""

import pytest
from mpmath import mp

from fixed_point import exact_value, fixed_mpf
from series_reference import series_sum
from zetaodd import coefficients
from zetaodd.coefficients import METHODS, assemble_detailed, coeffs_log, method_table
from zetaodd.core import DomainError, make_context
from zetaodd.engine import pi_table


def _tables() -> list:
    """(id, table, mpmath's value as a function): every registry method of
    zeta(3), zeta(5), zeta(7) and zeta(9), every pi method defined at pi^1,
    pi^3 and pi^5, and log 2, 3 and 5."""
    out = []
    for s in (3, 5, 7, 9):
        for method, (residue, _, _) in METHODS["zeta"].items():
            if residue == s % 4:
                out.append((f"zeta({s}) {method}", method_table("zeta", method, s),
                            lambda s=s: mp.zeta(s)))
    for n in (1, 3, 5):
        for method in METHODS["pi"]:
            try:
                table = pi_table(n, method)
            except DomainError:  # defined at other powers only
                continue
            out.append((f"pi^{n} {method}", table, lambda n=n: mp.pi ** n))
    for p in (2, 3, 5):
        out.append((f"log({p})", coeffs_log(p), lambda p=p: mp.log(p)))
    return out


TABLES = _tables()


def test_the_cases_cover_every_method():
    zeta = {i.split()[1] for i, _, _ in TABLES if i.startswith("zeta")}
    assert zeta == set(METHODS["zeta"])
    assert {i.split()[1] for i, _, _ in TABLES if i.startswith("pi")} == set(METHODS["pi"])
    assert len(TABLES) == 2 * 5 + 2 * 7 + 7 + 3


@pytest.mark.parametrize("digits", [30, 1000])
@pytest.mark.parametrize("case, table, value", TABLES, ids=[c for c, _, _ in TABLES])
def test_the_interval_holds_the_constant(case, table, value, digits):
    total, err, scale, _ = assemble_detailed(table, make_context(digits))
    assert 0 < err
    with mp.workdps(digits + 30):
        true = value()
        assert fixed_mpf(total - err, scale) <= true <= fixed_mpf(total + err, scale), case
        assert fixed_mpf(err, scale) < mp.mpf(10) ** -digits, case


@pytest.mark.parametrize("digits", [30, 300])
def test_the_roundings_alone_cover_the_cut_formula(digits, monkeypatch):
    # with every tail and nome size bound taken as 0, E counts only the
    # roundings (each pass's, each floor and product), which must still
    # cover T against the formula cut at the same N at the same rounded
    # nomes, summed term by term at twice the working precision
    nomes, real = [], coefficients.base_sums

    def spy(x, terms, ctx):
        info, sums, prec = real(x, terms, ctx)
        nomes.append(x)
        return [(n, 0, 0) for n, _, _ in info], sums, prec

    monkeypatch.setattr(coefficients, "base_sums", spy)
    ctx = make_context(digits)
    for case, table, _ in TABLES:
        nomes.clear()
        total, err, scale, terms = assemble_detailed(table, ctx)
        with mp.workdps(2 * ctx.working_digits):
            want = sum(exact_value(c) * mp.pi ** b.power
                       for b, c in table.entries if b.kind == "pi_power")
            for x, (base, group) in zip(nomes, coefficients._by_base(table.entries).items()):
                for b, c in group:
                    q = b.q.sign * x ** (b.q.mult // base.mult)
                    v = series_sum(b.kind, q, b.s, terms[str(b)])
                    want += exact_value(c) * (v * q * mp.pi if b.kind == "lambert_derivative" else v)
            assert abs(fixed_mpf(total, scale) - want) <= fixed_mpf(err, scale), case
