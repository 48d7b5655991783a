"""The tests' readings of the program's numbers: an int (or a tuple of
ints, one per component) v at 2^-prec is the mpf v 2^-prec, an assembly's
(T, E) is a pair of them, an mpf is emitted as the engine emits a certified
interval of width 0, and an exact coefficient is summed part by part."""

from mpmath import mp
from mpmath.libmp import from_man_exp

from zetaodd.coefficients import assemble_detailed
from zetaodd.core import Surd, format_digits, interval_digits


def fixed_mpf(v, prec: int):
    """The exact mpf of v 2^-prec, an mpc for a pair of ints, as the kernel
    returns its sums and their rounding errors and the assembly T and E."""
    parts = [from_man_exp(c, -prec) for c in (v if isinstance(v, (tuple, list)) else [v])]
    return mp.make_mpc(tuple(parts)) if len(parts) == 2 else mp.make_mpf(parts[0])


def assembled(table, ctx) -> tuple:
    """The value and error bound of one assembly, exact mpfs of its fixed
    point (T, E) 2^-P."""
    total, err, scale, _ = assemble_detailed(table, ctx)
    return fixed_mpf(total, scale), fixed_mpf(err, scale)


def truncate_digits(x, digits: int) -> str:
    """The first `digits` digits of an mpf x, truncated toward zero, as the
    engine prints them: x read as the interval [x, x] in fixed point."""
    sign, man, exp, _ = x._mpf_
    t, prec = (man << exp, 0) if exp >= 0 else (man, -exp)
    lo, hi, k, _, _ = interval_digits(t, 0, prec, digits)
    assert lo == hi
    return "-" * sign + format_digits(hi, k, digits)


def exact_value(x):
    """An int, Fraction or Surd at the current precision, each part's
    quotient times sqrt(|r|), summed: an mpc when it has an i part."""
    total = mp.mpf(0)
    for r, c in (x if isinstance(x, Surd) else Surd(x)).items():
        v = mp.mpf(c.numerator) / c.denominator * mp.sqrt(abs(r))
        total += v if r > 0 else mp.mpc(0, v)
    return total
