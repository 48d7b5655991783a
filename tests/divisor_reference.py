"""Trial-division divisor sums, the reference for the series kernel's sieve.

Independent of ``zetaodd``: sigma_s(n) is summed over the divisors found by
trial division, in Fractions, and the multisection balance is compared
coefficient by coefficient in those Fractions.  ``_sieve`` and
``_sech_terms`` are the kernel's former per-term sieve and its own sech
expansion, kept as the reference for the one divisor sieve that replaced
them: the sech series read as the odd half of a Lambert series.
"""

from fractions import Fraction
from operator import add


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


def _sieve(terms, length: int) -> list:
    """The sum of an expansion's terms, (start, step, numerators) each, at 0..length-1."""
    e = [0] * length
    for start, step, nums in terms:
        e[start::step] = map(add, e[start::step], nums)
    return e


def _sech_terms(a: int, n_terms: int, order: int):
    """q^m coefficients 2 a_m of the sech sum over q^(1/2), m = 0..order, term
    by term: a_m sums (-1)^(n+j) (2n-1)^-a over (2n-1)(2j+1) = 2m+1 with n <=
    n_terms, as a numerator over (2m+1)^a; term n fills m = n-1 + (2n-1) j."""
    powers = [(2 * j + 1) ** a for j in range(order + 1)]
    even = [-2 * p if j & 1 else 2 * p for j, p in enumerate(powers)]
    odd = [-v for v in even]
    return ((n - 1, 2 * n - 1,
             (odd if n & 1 else even)[:len(range(n - 1, order + 1, 2 * n - 1))])
            for n in range(1, min(n_terms, order + 1) + 1))
