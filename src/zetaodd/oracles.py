"""Reference values from first principles, independent of Lambert series.

Used to cross-check every fast formula this package implements.  Nothing
here touches L_q(s): zeta comes from Euler-Maclaurin summation, pi from
Machin's arctangent relation, and logs of 2/3/5 from atanh series.
mpmath only rounds each finished sum to an mpf; none of its functions
(mp.pi, mp.zeta, mp.power, ...) computes any part of a value.  Tests
compare these oracles against mpmath as a second, independent route, and
check that this module keeps away from it.

Every series is summed in binary fixed point, as Python ints: a term t is
held as floor(t 2^P), so each floor costs less than one unit 2^-P, and
the sum is rounded once, to working + 15 digits, when it becomes an mpf.
P is B + bit_length(B) + 8, B the bits of working + 15 digits.  Each oracle
makes fewer than 8B floors (weighted by the multipliers applied after
them), so together they cost less than 2^-(B+5).  The error is that, plus
the truncated tail: below 10^-(working + 10) for zeta, and counted as two
units among the floors for the arctangent and atanh series.
"""

from __future__ import annotations

import math
from functools import lru_cache

from mpmath import mp, mpf

from .core import DomainError, PrecisionContext, bernoulli

# one entry per (argument, precision); bounded so a long run at many
# precisions does not keep every value it ever computed
_CACHE_SIZE = 64

def _fixed_point(ctx: PrecisionContext) -> tuple:
    """The digits an oracle rounds to, working + 15, and the scale P of its
    fixed point: their B bits plus bit_length(B) + 8 guard bits."""
    digits = ctx.working_digits + 15
    bits = math.ceil(digits * math.log2(10))
    return digits, bits + bits.bit_length() + 8


def _to_mpf(v: int, bits: int, digits: int) -> mpf:
    """v 2^-bits, rounded once to `digits`."""
    with mp.workdps(digits):
        return mpf((v, -bits))


@lru_cache(maxsize=_CACHE_SIZE, typed=True)  # typed: 3.0 or True must not hit 3 or 1
def oracle_zeta(s: int, ctx: PrecisionContext) -> mpf:
    """zeta(s) for integer s >= 2 by Euler-Maclaurin summation:

        zeta(s) = sum_{n<=N} n^-s + N^(1-s)/(s-1) - N^-s/2
                  + sum_{k>=1} B_2k C(s+2k-2, 2k) / ((s-1) N^(s+2k-1)),

    where C(s+2k-2, 2k)/(s-1) = s(s+1)...(s+2k-2)/(2k)!.  For real s the
    remainder is below the first omitted correction, and the corrections
    stop at the first one below 10^-(working + 10).  Each term is one floor
    of a ratio of exact ints: N + K + 2 floors for K corrections, K <= 4N.
    A non-integer s (a bool or an integral float included) raises
    DomainError.
    """
    if isinstance(s, bool) or not isinstance(s, int):
        raise DomainError(f"oracle_zeta requires an integer s, got {s!r}")
    if s <= 1:
        raise DomainError("oracle_zeta requires s > 1")
    digits, bits = _fixed_point(ctx)
    one = 1 << bits
    # N: a larger N buys fewer corrections (one large division each) with
    # more terms n^-s (one small division each).  N = 0.6 to 1.5 times the
    # digits timed alike at 60 to 1000 digits, 2 times 20-30% slower.
    n = digits
    acc = sum(one // m**s for m in range(1, n + 1))
    acc += one // ((s - 1) * n ** (s - 1)) - one // (2 * n**s)
    eps = one // 10 ** (ctx.working_digits + 10)
    c, den = s * (s - 1) // 2, (s - 1) * n ** (s + 1)  # C(s, 2), (s-1) N^(s+1)
    for k in range(1, 4 * n + 1):
        b = bernoulli(2 * k)
        # floor toward -inf: |t| < eps bounds |exact| < eps at either sign
        t = (b.numerator * c << bits) // (b.denominator * den)
        if abs(t) < eps:
            break
        acc += t
        c = c * (s + 2 * k - 1) * (s + 2 * k) // ((2 * k + 1) * (2 * k + 2))
        den *= n * n
    else:  # the asymptotic series failed to reach eps; never
        raise RuntimeError("Euler-Maclaurin did not converge")  # pragma: no cover
    return _to_mpf(acc, bits, digits)


def _arc(k: int, one: int, sign: int) -> int:
    """arctan(1/k) (sign -1) or atanh(1/k) (sign +1) in fixed point:
    sum_j sign^j floor(one / ((2j+1) k^(2j+1))), the powers floored in
    turn (floor(floor(a/b)/c) = floor(a/(bc))).  It stops where the power
    floors to 0, so the tail is below 1/(1 - k^-2) <= 9/8 units."""
    acc, power, odd, term_sign = 0, one // k, 1, 1
    while power:
        acc += term_sign * (power // odd)
        power //= k * k
        odd += 2
        term_sign *= sign
    return acc


@lru_cache(maxsize=_CACHE_SIZE)
def oracle_pi(ctx: PrecisionContext) -> mpf:
    """pi = 16 arctan(1/5) - 4 arctan(1/239) (Machin)."""
    digits, bits = _fixed_point(ctx)
    one = 1 << bits
    return _to_mpf(16 * _arc(5, one, -1) - 4 * _arc(239, one, -1), bits, digits)


@lru_cache(maxsize=_CACHE_SIZE)
def oracle_log(p: int, ctx: PrecisionContext) -> mpf:
    """log p for p in {2, 3, 5} from atanh series:

    log 2 = 2 atanh(1/3), log 3 = log 2 + 2 atanh(1/5),
    log 5 = 2 log 2 + 2 atanh(1/9).
    """
    if p not in (2, 3, 5):
        raise DomainError(f"oracle_log supports p in {{2, 3, 5}}, got {p}")
    digits, bits = _fixed_point(ctx)
    one = 1 << bits
    value = 2 * _arc(3, one, 1)
    if p == 3:
        value += 2 * _arc(5, one, 1)
    elif p == 5:
        value = 2 * value + 2 * _arc(9, one, 1)
    return _to_mpf(value, bits, digits)
