"""Numerical verification of the transformation identities.

Each check evaluates both sides of an identity at working precision with
certified series tails and reports a :class:`Residual`.  Each side is a
weighted sum of series over a few base nomes x, entries (exact weight,
kind, j, sign, s) at the nomes sign x^j, every series to 10^-(digits + 5);
each base takes one pass of the series kernel with the weights inside it
(``series._weighted_sum``, whose one-term case is ``lambert_eval`` and
``sech_series``), as a table's bases do.  lemma-p4 and lemma-sech take two
passes, over i sqrt(q) (signs +-1) and over q; t1c1..t1c3 and zeta-free
take one per nome, at weight 1, with t^-+m and a^+-m applied outside.
zeta-free's nomes at a = n/d stay apart: over one base their exponents
d^2, nd, n^2 would make the pass's step their lcm (74 528 689 at a =
97/89).  The multisection check is different in kind: it compares exact
q-expansion coefficients, read from the series kernel's divisor sieve, and
returns a Fraction (expected: zero).

The reflection checks (``check_t1_case2``/``check_t1_case3`` and both
cases of ``check_zeta_free``) share one right-hand side, the Bernoulli
block sum_j (-1)^j c_j W_j hyp((T/2 - 2j) log t) of ``_bernoulli_block``;
they differ only in the exact c_j and in the zeta term.

The zeta-free two-parameter family (``check_zeta_free``) is implemented
with the Bernoulli-sum sign (-1)^j in *both* cases; the alternative sign
in case 1 fails numerically for every (k, a, t) tried, while (-1)^j
reproduces zero residual and the published specializations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf

from .core import DomainError, PrecisionContext, bernoulli_weights
from .oracles import oracle_zeta
from .series import SeriesResult, _lambert_sieve, _weighted_sum

_MULTISECTION_PRIMES = (2, 3, 5, 7)
SIEVE_BUDGET_BITS = 2**25  # the most a multisection check's sieve may hold (4 MiB)


@dataclass(frozen=True)
class Residual:
    abs_residual: mpf
    scale: mpf
    rel_residual: mpf
    terms_used: int
    precision_used: int


def _target(ctx: PrecisionContext):
    """The target of every series of a check: 10^-(digits + 5)."""
    with ctx.workdps():
        return mpf(10) ** (-(ctx.target_digits + 5))


def _lambert(x, s, target, ctx: PrecisionContext) -> SeriesResult:
    """L_x(s) alone in its own pass (a lone series keeps weight 1)."""
    return _weighted_sum(x, [(1, "lambert", 1, 1, s)], target, ctx)


def _residual(lhs, rhs, sums, ctx: PrecisionContext) -> Residual:
    """|lhs - rhs| and its scale; terms_used is the largest N of the passes."""
    with ctx.workdps():
        ab = abs(lhs - rhs)
        scale = max(abs(lhs), abs(rhs), mpf(1))
        return Residual(ab, scale, ab / scale, max(r.terms_used for r in sums),
                        ctx.working_digits)


def _to_t(t):
    tv = mp.mpmathify(t)
    if not mp.re(tv) > 0:  # NaN fails too
        raise DomainError(f"need Re(t) > 0, got t = {tv}")
    return tv


def check_t1_case1(t, ctx: PrecisionContext) -> Residual:
    """L_{e^(-2 pi t)}(-1) - L_{e^(-2 pi/t)}(-1) = log(t)/2 - (pi/6) sinh(log t).

    This is the eta-function transformation in Lambert-series clothing.
    """
    target = _target(ctx)
    with ctx.workdps():
        tv = _to_t(t)
        sums = [_lambert(mp.exp(-2 * mp.pi * tv), -1, target, ctx),
                _lambert(mp.exp(-2 * mp.pi / tv), -1, target, ctx)]
        lhs = sums[0].value - sums[1].value
        lt = mp.log(tv)
        rhs = lt / 2 - mp.pi / 6 * mp.sinh(lt)
    return _residual(lhs, rhs, sums, ctx)


def _bernoulli_block(c: list, total: int, lt):
    """(2 pi)^(total-1) sum_j (-1)^j c_j W_j hyp((total/2 - 2j) log t), with
    W_j = B_2j B_(total-2j) / ((2j)! (total-2j)!) (core.bernoulli_weights)
    and rational c_j; hyp is cosh when total = 0 mod 4, whose middle term
    (argument 0) is halved, else sinh.  Each exact c_j W_j is reduced and
    rounded once and then multiplied by hyp."""
    half = total // 2
    hyp = mp.cosh if half % 2 == 0 else mp.sinh
    weights, den = bernoulli_weights(total, len(c))
    acc = mp.mpmathify(0)
    for j, (cj, w) in enumerate(zip(c, weights)):
        w = Fraction(w * cj.numerator, den * cj.denominator * (2 if 2 * j == half else 1))
        sign = 1 if (j % 2 == 0) else -1  # (-1)^j
        acc += sign * mpf(w.numerator) / w.denominator * hyp((half - 2 * j) * lt)
    return (2 * mp.pi) ** (total - 1) * acc


def _check_t1(k: int, t, ctx: PrecisionContext, plus: int) -> Residual:
    """The reflection of L at s = -(4k - plus), plus = 1 or -1, with
    m = 2k - 1 or 2k and hyp = cosh or sinh:
    t^-m L_{e^(-2 pi t)} + plus t^m L_{e^(-2 pi/t)} against the Bernoulli
    block with every c_j = -1, minus plus zeta(4k - plus) hyp(m log t)."""
    if k < 1:
        raise DomainError(f"need k >= 1, got {k}")
    target = _target(ctx)
    total = 4 * k + 1 - plus  # 4k for s = -(4k-1), 4k+2 for s = -(4k+1)
    m = (total - 2) // 2
    with ctx.workdps():
        tv = _to_t(t)
        lt = mp.log(tv)
        sums = [_lambert(mp.exp(-2 * mp.pi * tv), 1 - total, target, ctx),
                _lambert(mp.exp(-2 * mp.pi / tv), 1 - total, target, ctx)]
        lhs = tv ** (-m) * sums[0].value
        lhs += plus * (tv ** m * sums[1].value)
        rhs = _bernoulli_block([-1] * (k + 1), total, lt)
        hyp = mp.cosh if plus == 1 else mp.sinh
        rhs -= plus * (oracle_zeta(total - 1, ctx) * hyp(m * lt))
    return _residual(lhs, rhs, sums, ctx)


def check_t1_case2(k: int, t, ctx: PrecisionContext) -> Residual:
    """The s = -(4k-1) reflection: t^-(2k-1) L_{e^(-2 pi t)} + t^(2k-1) L_{e^(-2 pi/t)}
    against the Bernoulli block minus zeta(4k-1) cosh((2k-1) log t)."""
    return _check_t1(k, t, ctx, 1)


def check_t1_case3(k: int, t, ctx: PrecisionContext) -> Residual:
    """The s = -(4k+1) reflection: t^-2k L_{e^(-2 pi t)} - t^2k L_{e^(-2 pi/t)}
    against the Bernoulli block plus zeta(4k+1) sinh(2k log t)."""
    return _check_t1(k, t, ctx, -1)


def _sieve_bytes(a: int, top: int) -> int:
    """An upper estimate of _lambert_sieve(a, top, top)'s peak bytes: per m,
    32 of list slots and 9/4 ints of <= a log2(top) + 1 bits in 30-bit
    digits after a 24-byte header, + 4 of slack (none for a = 0: d(m) < 257)."""
    ints = 32 + 4 * ((a * top.bit_length() + 1) // 30) if a else 0
    return top * (128 + 9 * ints) // 4


def check_multisection(p: int, s: int, order: int) -> Fraction:
    """Exact q-expansion check of the prime multisection

        sum_{n=0}^{p-1} L_{q^(1/p) w^n}(s) = (p^(s+1)+p) L_q(s) - p^(s+1) L_{q^p}(s)

    Comparing coefficients of q^l reduces to
    p sigma_s(lp) = (p^(s+1)+p) sigma_s(l) - p^(s+1) sigma_s(l/p); returns
    the largest absolute coefficient difference over l = 1..order (zero).
    The sigma_s(m) come from the series kernel's divisor sieve as integers
    e_m: sigma_s(m) = e_m, or e_m / m^|s| for s < 0.  With w = p^(1+|s|)
    the balance is p e_lp = (p + w) e_l - w e_(l/p), for s < 0 the one
    above times (lp)^|s|.  One sieve (series._lambert_sieve) gives e_m for
    every m <= order p; one whose peak (_sieve_bytes: list slots, ints and
    their headers) would pass SIEVE_BUDGET_BITS raises DomainError before
    it starts.
    """
    if p not in _MULTISECTION_PRIMES:
        raise DomainError(f"p must be one of {_MULTISECTION_PRIMES}, got {p}")
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    top, a = order * p, abs(s)
    if 8 * _sieve_bytes(a, top) > SIEVE_BUDGET_BITS:
        raise DomainError(f"order {order} with p = {p} and s = {s} needs a divisor "
                          f"sieve over the {SIEVE_BUDGET_BITS // 2**23} MiB budget")
    e = _lambert_sieve(a, top, top)
    low, high = e[:order], e[p - 1::p]  # e_l and e_lp, l = 1..order
    w = p ** (1 + a)
    worst = Fraction(0)
    for el in range(1, order + 1):
        diff = p * high[el - 1] - (p + w) * low[el - 1]
        if el % p == 0:
            diff += w * low[el // p - 1]
        if diff:
            worst = max(worst, Fraction(abs(diff), (el * p) ** a if s < 0 else 1))
    return worst


def _real_q(q, check: str):
    qv = mp.mpmathify(q)
    if not 0 < qv < 1:
        raise DomainError(f"{check} requires real q in (0, 1)")
    return qv


def check_lemma_p4(q, s, ctx: PrecisionContext) -> Residual:
    """L_{i sqrt(q)} + L_{-i sqrt(q)} against -(p2 + 2) L_q + (p2^2 + 3 p2 + 4)
    L_{q^2} - (p2^2 + 2 p2) L_{q^4}, p2 = 2^(s+1): one pass per side."""
    target = _target(ctx)
    with ctx.workdps():
        qv = _real_q(q, "check_lemma_p4")
        lhs = _weighted_sum(mp.mpc(0, mp.sqrt(qv)),
                            [(1, "lambert", 1, 1, s), (1, "lambert", 1, -1, s)], target, ctx)
        p2 = Fraction(2) ** (s + 1)  # s <= 0 is an integer: the pass above checked it
        rhs = _weighted_sum(qv, [(-(p2 + 2), "lambert", 1, 1, s),
                                 (p2 * p2 + 3 * p2 + 4, "lambert", 2, 1, s),
                                 (-(p2 * p2 + 2 * p2), "lambert", 4, 1, s)], target, ctx)
    return _residual(lhs.value, rhs.value, (lhs, rhs), ctx)


def check_lemma_sech(q, s, ctx: PrecisionContext) -> Residual:
    """i [L_{i sqrt(q)} - L_{-i sqrt(q)}] against the sech series S_q(s):
    one pass per side."""
    target = _target(ctx)
    with ctx.workdps():
        qv = _real_q(q, "check_lemma_sech")
        odd = _weighted_sum(mp.mpc(0, mp.sqrt(qv)),
                            [(1, "lambert", 1, 1, s), (-1, "lambert", 1, -1, s)], target, ctx)
        sech = _weighted_sum(qv, [(1, "sech_series", 1, 1, s)], target, ctx)
        lhs = mp.mpc(0, 1) * odd.value
    return _residual(lhs, sech.value, (odd, sech), ctx)


def check_zeta_free(case: int, k: int, a, t, ctx: PrecisionContext) -> Residual:
    """Two-parameter zeta-free identity for L at s = -(4k+1) (case 1, k >= 0)
    or s = -(4k-1) (case 2, k >= 1), rational a > 0, Re(t) > 0.

    Case 1:  t^-2k [a^2k L_{e^(-2 pi t/a)} - (a^2k + a^-2k) L_{e^(-2 pi t)}
             + a^-2k L_{e^(-2 pi a t)}]  minus the mirrored t -> 1/t block
             equals (2 pi)^(4k+1) sum_j (-1)^j b_jk(a) W_j sinh((2k+1-2j) log t)
             with b_jk(a) = a^2k + a^-2k - a^(2k+1-2j) - a^-(2k+1-2j).
    Case 2:  same shape with exponents 2k-1, a plus between the blocks,
             cosh weights, and c_jk(a) = (a^(2k-1) + a^(1-2k) - a^(2k-2j)
             - a^(2j-2k))/(1 + delta_jk).
    """
    if case not in (1, 2):
        raise DomainError(f"case must be 1 or 2, got {case}")
    if case == 1 and k < 0:
        raise DomainError(f"case 1 needs k >= 0, got {k}")
    if case == 2 and k < 1:
        raise DomainError(f"case 2 needs k >= 1, got {k}")
    af = Fraction(a)
    if af <= 0:
        raise DomainError(f"need rational a > 0, got {a}")
    target = _target(ctx)
    sums = []
    with ctx.workdps():
        tv = _to_t(t)
        lt = mp.log(tv)
        av = mpf(af.numerator) / af.denominator
        m = 2 * k if case == 1 else 2 * k - 1
        am = av**m
        am_inv = 1 / am
        s = -(4 * k + 1) if case == 1 else -(4 * k - 1)

        def block(u):
            # a^m L at e^(-2 pi u / a) - (a^m + a^-m) L at e^(-2 pi u)
            #   + a^-m L at e^(-2 pi a u), each nome its own base
            nomes = (mp.exp(-2 * mp.pi * u / av), mp.exp(-2 * mp.pi * u),
                     mp.exp(-2 * mp.pi * av * u))
            lo, mid, hi = [_lambert(x, s, target, ctx) for x in nomes]
            sums.extend((lo, mid, hi))
            return am * lo.value - (am + am_inv) * mid.value + am_inv * hi.value

        if case == 1:
            lhs = tv ** (-m) * block(tv) - tv**m * block(1 / tv)
        else:
            lhs = tv ** (-m) * block(tv) + tv**m * block(1 / tv)

        total = 2 * m + 2
        # b_jk(a) or c_jk(a): a^m + a^-m - a^h - a^-h at h = total/2 - 2j
        rhs = _bernoulli_block(
            [af**m + af**-m - af**(m + 1 - 2 * j) - af**(2 * j - m - 1)
             for j in range(k + 1)], total, lt)
    return _residual(lhs, rhs, sums, ctx)
