"""Multisection sums and exact trig values as `Surd` powers, the reference
for the int-pair kernel.

``_gauss_sum``, ``_one_plus_i_power``, ``_h_diff`` and ``_gauss_diff`` are
the generators' former Surd arithmetic, kept verbatim: each (1 + i n)^m is
a ``Surd`` power (negative m through ``Surd.inverse``), whereas
``coefficients._gauss_sum`` and ``coefficients._h_diff`` raise Gaussian
integers as (re, im) int pairs and build one rational per part.
``surd_trig`` is ``core.surd_trig``'s former ``Surd`` power, kept verbatim
but for its cache; the package's raises (m-1) + 2 i sqrt(m) as an int pair.
"""

from fractions import Fraction

from zetaodd.core import I, Surd


def _f2(e: int) -> Fraction:
    return Fraction(2) ** e


def _gauss_sum(width: int, m: int) -> Surd:
    """sum_{n=-width..width} (1+i n)^m, exact (negative m via inversion)."""
    return sum(((1 + n * I) ** m for n in range(-width, width + 1)), Surd())


def _one_plus_i_power(m: int) -> Surd:
    """(1+i)^m = (2i)^floor(m/2) (1+i)^(m mod 2), in closed form."""
    n, odd = divmod(m, 2)
    re, im = ((1, 0), (0, 1), (-1, 0), (0, -1))[n % 4]  # i^n
    if odd:
        re, im = re - im, re + im  # times 1+i
    return Surd({1: re, -1: im}) * _f2(n)


def _h_diff(k: int, j: int):
    """h(4k+1-2j) - h(2j-1), h(m) = (1 + (1+i)^m) / 2^m: the 2-section part
    of the multisection c_jk."""
    def h(m):
        return (1 + _one_plus_i_power(m)) / _f2(m)
    return h(4 * k + 1 - 2 * j) - h(2 * j - 1)


def _gauss_diff(p: int, k: int, j: int):
    """p^lo G(hi) - p^hi G(lo) at hi = 4k+1-2j, lo = 2j-1, G =
    _gauss_sum((p-1)/2, .): the p-section part of the multisection c_jk."""
    hi, lo, g = 4 * k + 1 - 2 * j, 2 * j - 1, (p - 1) // 2
    return Fraction(p) ** lo * _gauss_sum(g, hi) - Fraction(p) ** hi * _gauss_sum(g, lo)


def surd_trig(m: int, multiple: int, kind: str) -> Surd:
    """Exact cos or sin of multiple*theta where theta = acot(sqrt(m)): the
    real or imaginary part of ((sqrt(m) + i) / sqrt(m+1))**multiple.

    acot(sqrt(3)) = pi/6.  For m = 7, |sqrt(7) + i| = sqrt(8), so odd
    multiples carry a sqrt(2).
    """
    if kind not in ("cos", "sin"):
        raise ValueError(f"kind must be 'cos' or 'sin', got {kind!r}")
    # 1/(sqrt(m) + i) = (sqrt(m) - i)/(m+1); the power has integer parts, and
    # 1/sqrt(m+1)^n is rational, times sqrt(m+1)/(m+1) for odd n
    n, i = abs(multiple), (I if multiple >= 0 else -I)
    z = (Surd.sqrt(m) + i) ** n * Fraction(1, (m + 1) ** (n // 2))
    if n % 2:
        z = z * Surd.sqrt(m + 1) / (m + 1)
    return z.re if kind == "cos" else z.im
