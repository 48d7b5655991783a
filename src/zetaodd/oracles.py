"""Reference values from first principles, independent of Lambert series.

Used to cross-check every fast formula this package implements.  Nothing
here touches L_q(s): zeta comes from Euler-Maclaurin summation, pi from
Machin's arctangent relation, and logs of 2/3/5 from atanh series.  The
mpmath constants (mp.pi, mp.zeta, ...) are also avoided on purpose; tests
compare these oracles against mpmath as a second, independent route.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from mpmath import mp, mpf

from .core import DomainError, PrecisionContext, bernoulli

# one entry per (argument, precision); bounded so a long run at many
# precisions does not keep every value it ever computed
_CACHE_SIZE = 64


def _frac(x: Fraction) -> mpf:
    return mpf(x.numerator) / x.denominator


@lru_cache(maxsize=_CACHE_SIZE)
def oracle_zeta(s, ctx: PrecisionContext) -> mpf:
    """zeta(s) for real s > 1 via Euler-Maclaurin:

        zeta(s) = sum_{n<=N} n^-s + N^(1-s)/(s-1) - N^-s/2
                  + sum_{k>=1} B_2k/(2k)! * s(s+1)...(s+2k-2) * N^(-s-2k+1)

    with remainder bounded by the first omitted correction term (real s).
    N is sized so the corrections decay well past the guard digits.
    """
    prec = ctx.working_digits + 15
    with mp.workdps(prec):
        sv = mp.mpmathify(s)
        if mp.im(sv) != 0:
            raise DomainError("oracle_zeta requires real s")
        sv = mp.re(sv)
        if sv <= 1:
            raise DomainError("oracle_zeta requires s > 1")
        eps = mpf(10) ** (-(ctx.working_digits + 10))
        N = max(20, int(0.8 * prec))
        acc = mpf(0)
        for n in range(1, N + 1):
            acc += mp.power(n, -sv)
        acc += mp.power(N, 1 - sv) / (sv - 1) - mp.power(N, -sv) / 2
        rising = sv  # s(s+1)...(s+2k-2), updated incrementally
        npow = mp.power(N, -sv - 1)
        n2 = mpf(N) * N
        k = 1
        while True:
            b2k = bernoulli(2 * k)
            fact = _frac(b2k / math.factorial(2 * k))
            term = fact * rising * npow
            if abs(term) < eps:
                break
            acc += term
            k += 1
            if k > 4 * N:  # asymptotic series failed to reach eps; never
                raise RuntimeError("Euler-Maclaurin did not converge")  # pragma: no cover
            rising *= (sv + 2 * k - 3) * (sv + 2 * k - 2)
            npow /= n2
        return +acc


def _arctan_recip(k: int, eps: mpf) -> mpf:
    """arctan(1/k) by its alternating Taylor series; tail < first omitted term."""
    x = mpf(1) / k
    x2 = x * x
    acc = mpf(0)
    power = x
    j = 0
    while True:
        t = power / (2 * j + 1)
        if t < eps:
            break
        acc += t if j % 2 == 0 else -t
        power *= x2
        j += 1
    return acc


@lru_cache(maxsize=_CACHE_SIZE)
def oracle_pi(ctx: PrecisionContext) -> mpf:
    """pi = 16 arctan(1/5) - 4 arctan(1/239) (Machin)."""
    with mp.workdps(ctx.working_digits + 15):
        eps = mpf(10) ** (-(ctx.working_digits + 12))
        return +(16 * _arctan_recip(5, eps) - 4 * _arctan_recip(239, eps))


def _atanh_recip(k: int, eps: mpf) -> mpf:
    """atanh(1/k) = sum x^(2j+1)/(2j+1); tail < next term/(1-x^2)."""
    x = mpf(1) / k
    x2 = x * x
    tail_factor = 1 / (1 - x2)
    acc = mpf(0)
    power = x
    j = 0
    while True:
        t = power / (2 * j + 1)
        if t * tail_factor < eps:
            break
        acc += t
        power *= x2
        j += 1
    return acc


@lru_cache(maxsize=_CACHE_SIZE)
def oracle_log(p: int, ctx: PrecisionContext) -> mpf:
    """log p for p in {2, 3, 5} from atanh series:

    log 2 = 2 atanh(1/3), log 3 = log 2 + 2 atanh(1/5),
    log 5 = 2 log 2 + 2 atanh(1/9).
    """
    if p not in (2, 3, 5):
        raise DomainError(f"oracle_log supports p in {{2, 3, 5}}, got {p}")
    with mp.workdps(ctx.working_digits + 15):
        eps = mpf(10) ** (-(ctx.working_digits + 12))
        log2 = 2 * _atanh_recip(3, eps)
        if p == 2:
            result = +log2
        elif p == 3:
            result = +(log2 + 2 * _atanh_recip(5, eps))
        else:
            result = +(2 * log2 + 2 * _atanh_recip(9, eps))
    return result
