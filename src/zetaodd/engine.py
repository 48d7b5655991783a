"""Evaluation engine: certified values of zeta(odd), pi^odd, and log p.

Ties the exact coefficient tables to the series evaluators, truncates the
result to the requested number of digits, and reports a rigorous error
bound plus the number of series terms each basis element consumed.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, replace
from fractions import Fraction

from mpmath import mp, mpf
from mpmath.libmp import mpf_pos, round_up

from . import oracles
from .coefficients import (
    CoefficientTable,
    assemble_detailed,
    coeffs_log,
    coeffs_pi,
    method_table,
    resolve_method,
)
from .core import (
    ConvergenceError,
    DomainError,
    PrecisionContext,
    eval_exact,
    make_context,
    truncate_digits,
)
from .series import Term, _ln, base_sums


@dataclass(frozen=True, slots=True)
class ConstantResult:
    constant_id: str
    method_id: str
    decimal_value: str  # truncated, not rounded
    error_bound: object  # mpf, 53 bits, rounded up
    terms_used: dict
    wall_time: float


@dataclass(frozen=True)
class ConvergenceProfile:
    constant_id: str
    method_id: str
    points: tuple  # of (n_terms, correct_digits)
    slope: float  # fitted decimal digits gained per term


def _require_odd_s(s: int) -> None:
    if s < 3 or s % 2 == 0:
        raise DomainError(f"s must be an odd integer >= 3, got {s}")


def zeta_table(s: int, method: str = "auto") -> CoefficientTable:
    """Coefficient table for zeta(s) from the named method or auto."""
    _require_odd_s(s)
    return method_table("zeta", method, s)


def pi_table(n: int, method: str) -> CoefficientTable:
    """Coefficient table for pi^n from the named method or auto."""
    name, k = resolve_method("pi", method, n)
    return coeffs_pi(name, k)


@functools.lru_cache(maxsize=256)
def _shared(text: str) -> str:
    """The first string seen equal to text, so that stored results share
    their key strings (bounded, unlike the interpreter's intern table)."""
    return text


ZIV_ATTEMPTS = 5  # assemblies of one table, each retry with more guard digits


def _result(table: CoefficientTable, digits: int, t0: float) -> ConstantResult:
    """Emit the digits shared by both ends of the certified interval
    value -+ err, which are those of the constant (Ziv's test).  While they
    differ, reassemble with enough guard digits for err, a digit smaller per
    two guard digits (assemble_detailed's budget), to fall below |value - b|,
    b the digit boundary between the ends.  A distance within 1000 units of
    value's last digit is its rounding: b is then taken to match value for
    as many digits again, 10^-(2 working) |b|, and, as when err >= 10^-digits
    |b| has missed its budget, the guard at least doubles."""
    ctx, ln10 = make_context(digits), math.log(10)
    for _ in range(ZIV_ATTEMPTS):
        value, err, terms = assemble_detailed(table, ctx)
        decimal = truncate_digits(mp.fsub(value, err, exact=True), digits)
        upper = truncate_digits(mp.fadd(value, err, exact=True), digits)
        if decimal == upper:
            break
        g, w = ctx.guard_digits, ctx.working_digits
        with mp.workdps(w + 10):  # b lies in the interval: every constant is positive
            b = mpf(upper)
            dist = abs(value - b)
        measured = dist and _ln(dist) > _ln(b) - (w - 3) * ln10
        d = _ln(dist) if measured else _ln(b) - 2 * w * ln10
        floor = g if measured and _ln(err) < _ln(b) - digits * ln10 else 2 * g
        ctx = replace(ctx, guard_digits=max(floor, g + 2 * math.ceil((_ln(err) - d) / ln10) + 2))
    else:
        raise ConvergenceError(f"{table.constant}: the first {digits} digits were "
                               f"not certified within {ZIV_ATTEMPTS} attempts")
    # a result keeps no working-precision mantissa and no fresh key strings
    err = mp.make_mpf(mpf_pos(err._mpf_, 53, round_up))
    terms = {_shared(basis): n for basis, n in terms.items()}
    return ConstantResult(_shared(table.constant), table.method, decimal,
                          err, terms, time.perf_counter() - t0)


def zeta_odd(s: int, method: str = "auto", target_digits: int = 50) -> ConstantResult:
    """zeta(s) for odd s >= 3 to target_digits, with a certified bound."""
    t0 = time.perf_counter()
    return _result(zeta_table(s, method), target_digits, t0)


def pi_power(n: int, method: str = "auto", target_digits: int = 50) -> ConstantResult:
    """pi^n for odd n >= 1 straight from a Lambert-series table (see pi_table)."""
    t0 = time.perf_counter()
    if n < 1 or n % 2 == 0:
        raise DomainError(f"n must be an odd integer >= 1, got {n}")
    return _result(pi_table(n, method), target_digits, t0)


def log_prime(p: int, target_digits: int = 50) -> ConstantResult:
    """log p for p in (2, 3, 5) from the s = -1 tables."""
    t0 = time.perf_counter()
    return _result(coeffs_log(p), target_digits, t0)


def zeta3_first_order(ctx: PrecisionContext | None = None):
    """The closed-form first-order approximation to zeta(3):

        pi^3 sqrt(15)/100 + e^(-sqrt(15) pi) (9/4 + 4/sqrt(15) sinh(sqrt(15) pi/2))

    i.e. the sqrt15-family formula with every series cut at its first term.
    Overshoots zeta(3) by ~2.9e-10 (the omitted sech and Lambert tails do
    not cancel); the truncation guarantees only the magnitude, not the sign.
    """
    ctx = ctx or make_context(50)
    with ctx.workdps():
        r15 = mp.sqrt(15)
        x = r15 * mp.pi
        return (mp.pi ** 3 * r15 / 100
                + mp.exp(-x) * (mpf(9) / 4 + 4 / r15 * mp.sinh(x / 2)))


# ---------------------------------------------------------------------------
# convergence profiling
# ---------------------------------------------------------------------------


def _constant_table(constant_id: str, method: str) -> tuple:
    """The table of "zeta(s)", "pi^n" or "log(p)" by `method`, and the
    constant's oracle (a function of the context, independent of the table)."""
    cid = constant_id.strip()
    if cid.startswith("zeta(") and cid.endswith(")"):
        s = _int_argument(cid, cid[5:-1])
        return zeta_table(s, method), lambda ctx: oracles.oracle_zeta(s, ctx)
    if cid.startswith("pi^"):
        n = _int_argument(cid, cid[3:])
        return pi_table(n, method), lambda ctx: oracles.oracle_pi(ctx) ** n
    if cid.startswith("log(") and cid.endswith(")"):
        p = _int_argument(cid, cid[4:-1])
        return coeffs_log(p), lambda ctx: oracles.oracle_log(p, ctx)
    raise DomainError(f"unknown constant id {constant_id!r}")


def _int_argument(cid: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise DomainError(f"{cid}: {text!r} is not an integer") from None


def convergence_profile(constant_id: str, method: str, max_terms: int,
                        ctx: PrecisionContext | None = None) -> ConvergenceProfile:
    """Truncate the slowest-decaying series of a formula at N = 1..max_terms
    and count correct digits against the oracle; the fitted slope is the
    number of decimal digits gained per extra term.

    The truncation error behaves like C * N^deg * |q|^N, so a straight-line
    fit of digits against N overstates the asymptotic rate -log10|q| by
    roughly |deg| * log10(e) / N at small N (5-8% for the zeta formulas).
    The fit therefore removes the known N^deg factor first; the reported
    slope estimates the digits-per-term of the exponential factor alone.
    """
    ctx = ctx or make_context(50)
    if max_terms < 3:
        raise DomainError("max_terms must be at least 3 to fit a slope")
    table, oracle = _constant_table(constant_id, method)
    series = [(b, c) for b, c in table.entries if b.kind != "pi_power"]
    if not series:
        raise DomainError(f"{constant_id} table has no series to profile")
    slow_key = min(b.q.decay_key() for b, _ in series)
    slow_entries = [(b, c) for b, c in series if b.q.decay_key() == slow_key]
    # the other terms are assembled once, as for a result; the slowest ones
    # are their prefixes N = 1..max_terms, in one pass over their nome, the
    # derivative (summed as q dL/dq) scaled by pi as in the formula
    fast = replace(table, entries=tuple([e for e in table.entries
                                         if e not in slow_entries]))
    fixed = assemble_detailed(fast, ctx)[0]
    run = [Term(b.kind, 1, b.q.sign, b.s, None, ((i, Fraction(1)),), prefixes=max_terms)
           for i, (b, _) in enumerate(slow_entries)]
    _, sums = base_sums(slow_entries[0][0].q.magnitude().value(ctx), run, ctx)
    with ctx.workdps():
        oracle_val = oracle(ctx)
        cvals = [eval_exact(c, ctx) * (mp.pi if b.kind == "lambert_derivative" else 1)
                 for b, c in slow_entries]
        points = []
        for n in range(1, max(m for _, m in sums) + 1):  # later prefixes equal the last
            approx = fixed
            for i, cval in enumerate(cvals):
                approx += cval * sums[i, n][0]
            delta = abs(approx - oracle_val)
            if delta == 0:
                digits = ctx.working_digits
            else:  # in floats: mpmath's log10 keeps cache entries for every precision
                digits = math.floor(-math.log10(delta.man) - delta.exp * math.log10(2))
            points.append((n, max(0, digits)))
        points += [(n, points[-1][1]) for n in range(len(points) + 1, max_terms + 1)]
    # discard saturated points (oracle/assembly precision floor)
    usable = [(n, d) for n, d in points if d < ctx.target_digits - 1]
    while len(usable) > 3 and usable[-1][1] <= usable[-2][1]:
        usable.pop()
    if len(usable) < 3:
        raise DomainError(
            "not enough unsaturated points to fit a slope; "
            "raise target_digits or lower max_terms"
        )
    # polynomial degree of the first omitted term: n^s for a plain Lambert
    # or sech term, n^(s+1) for the derivative series
    deg = max(b.s + (1 if b.kind == "lambert_derivative" else 0)
              for b, _ in slow_entries)
    from statistics import linear_regression  # here: only bench pays its import
    slope = linear_regression([float(n) for n, _ in usable],
                              [float(d) + deg * math.log10(n + 1) for n, d in usable]).slope
    return ConvergenceProfile(table.constant, table.method, tuple(points), slope)
