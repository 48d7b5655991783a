"""Trial-division divisor sums, the reference for the series kernel's sieve.

Independent of ``zetaodd``: sigma_s(n) is summed over the divisors found by
trial division, in Fractions, and the multisection balance is compared
coefficient by coefficient in those Fractions.
"""

from fractions import Fraction


def divisor_sigma(s: int, n: int) -> Fraction:
    """Exact sigma_s(n) = sum of s-th powers of the divisors of n."""
    total = Fraction(0)
    for d in range(1, int(n**0.5) + 1):
        if n % d == 0:
            total += Fraction(d) ** s
            e = n // d
            if e != d:
                total += Fraction(e) ** s
    return total


def multisection_mismatch(p: int, s: int, order: int, sigma=divisor_sigma,
                          weight=None) -> Fraction:
    """max over l = 1..order of |p sigma(lp) - (w + p) sigma(l) + w sigma(l/p)|,
    w = p^(s+1) unless another weight is given."""
    w = Fraction(p) ** (s + 1) if weight is None else weight
    worst = Fraction(0)
    for el in range(1, order + 1):
        lhs = p * sigma(s, el * p)
        rhs = (w + p) * sigma(s, el)
        if el % p == 0:
            rhs -= w * sigma(s, el // p)
        worst = max(worst, abs(lhs - rhs))
    return worst
