"""Bernoulli blocks term by term, the reference for the integer kernel.

Each weight B_2j B_(total-2j) / ((2j)! (total-2j)!) is a reduced Fraction
product, multiplied by c_j (an int, Fraction or Surd) and added in exact
arithmetic one term at a time, whereas ``core.bernoulli_weights`` gives
every weight of a block as an int over one denominator and
``coefficients._bernoulli_sum`` sums numerators.
"""

import math
from fractions import Fraction

from zetaodd.core import bernoulli


def bernoulli_weight(j: int, total: int) -> Fraction:
    """B_2j B_(total-2j) / ((2j)! (total-2j)!)."""
    return (bernoulli(2 * j) * bernoulli(total - 2 * j)
            / (math.factorial(2 * j) * math.factorial(total - 2 * j)))


def bernoulli_sum(c: list, total: int):
    """sum_j (-1)^j c_j bernoulli_weight(j, total)."""
    acc = Fraction(0)
    for j, cj in enumerate(c):
        term = cj * bernoulli_weight(j, total)
        acc = acc + (term if j % 2 == 0 else -term)
    return acc
