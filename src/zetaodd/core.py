"""Exact arithmetic primitives and arbitrary-precision plumbing.

Everything downstream (series evaluation, identity checks, coefficient
generation) builds on three layers kept deliberately separate:

* an immutable :class:`PrecisionContext` that fixes target/guard decimal
  digits and scopes all mpmath work via ``workdps``;
* one exact number field, Q(i, sqrt2, sqrt3, sqrt5, sqrt7), as the sparse
  :class:`Surd`: it holds the Gaussian rationals of the multisection
  methods, the sqrt(3), sqrt(7) and sqrt(15) families and the sqrt(105)
  of their combinations;
* exact Bernoulli numbers and exact values of cos/sin at integer
  multiples of acot(sqrt(m)).

Floating point never enters a coefficient computation; ``eval_exact``
is the single bridge from the exact world into mpmath.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

from mpmath import mp, mpf


class DomainError(ValueError):
    """Arguments lie outside a formula's domain of validity."""


class ConvergenceError(RuntimeError):
    """A series could not reach the requested accuracy under the term cap."""


# ---------------------------------------------------------------------------
# precision context
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrecisionContext:
    """Target precision plus guard digits; all mpmath work happens inside
    ``with ctx.workdps():`` so the global mp state is never mutated."""

    target_digits: int
    guard_digits: int

    @property
    def working_digits(self) -> int:
        return self.target_digits + self.guard_digits

    def workdps(self):
        return mp.workdps(self.working_digits)


def make_context(target_digits: int) -> PrecisionContext:
    """Create a context with 20 guard digits at every precision: the
    rounding they cover does not grow with the digits (README, Notes)."""
    if target_digits < 1:
        raise ValueError(f"target_digits must be >= 1, got {target_digits}")
    return PrecisionContext(target_digits=target_digits, guard_digits=20)


# ---------------------------------------------------------------------------
# Bernoulli numbers
# ---------------------------------------------------------------------------

_EVEN_BERNOULLI: list[Fraction] = [Fraction(1)]  # B_0, B_2, B_4, ...


def _tangent_numbers(m: int) -> list[int]:
    """T_1..T_m (index 0 unused), tan x = sum T_k x^(2k-1) / (2k-1)!, by
    the integer recurrences of Brent and Harvey, "Fast computation of
    Bernoulli, tangent and secant numbers" (2011): O(m^2) products of a
    big int by a small one."""
    t = [0, 1] + [0] * (m - 1)
    for k in range(2, m + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, m + 1):
        for j in range(k, m + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t


def bernoulli(n: int) -> Fraction:
    """Exact Bernoulli number B_n (convention B_1 = -1/2; B_n = 0 for odd
    n >= 3).

    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)) from the tangent numbers.
    The cache of even numbers grows on demand, to at least twice its size,
    so asking for B_2, B_4, ... in turn costs a constant factor over one
    fill.
    """
    if n < 0:
        raise ValueError("Bernoulli index must be >= 0")
    if n % 2:
        return Fraction(-1, 2) if n == 1 else Fraction(0)
    k = n // 2
    have = len(_EVEN_BERNOULLI)
    if k >= have:
        t = _tangent_numbers(max(k, 2 * (have - 1)))
        _EVEN_BERNOULLI.extend(Fraction((-1) ** (j - 1) * 2 * j * t[j], 4**j * (4**j - 1))
                               for j in range(have, len(t)))
    return _EVEN_BERNOULLI[k]


def bernoulli_weights(total: int, count: int) -> tuple:
    """(nums, den), ints with B_2j B_(total-2j) / ((2j)! (total-2j)!) =
    nums[j] / den for j < count: the weights of every Bernoulli block in
    the reflection formulas over one denominator.  nums[j] is C(total, 2j)
    B_2j B_(total-2j) D, with D the lcm of the denominators of the
    products, and den = D total!."""
    pairs = [(bernoulli(2 * j), bernoulli(total - 2 * j)) for j in range(count)]
    d = math.lcm(*[a.denominator * b.denominator for a, b in pairs])
    nums = [math.comb(total, 2 * j) * a.numerator * b.numerator
            * (d // (a.denominator * b.denominator)) for j, (a, b) in enumerate(pairs)]
    return nums, d * math.factorial(total)


# ---------------------------------------------------------------------------
# the exact number field Q(i, sqrt2, sqrt3, sqrt5, sqrt7)
# ---------------------------------------------------------------------------

_PRIMES = (2, 3, 5, 7)


def _in_field(r: int) -> bool:
    """True for a squarefree radicand made of the primes 2, 3, 5, 7 and a
    sign (r = 1 is the rational part)."""
    a = abs(r)
    for p in _PRIMES:
        if a % p == 0:
            a //= p
            if a % p == 0:
                return False
    return a == 1


def _squarefree(n: int) -> tuple:
    """(r, f) with n = f^2 r, r free of the squares of 2, 3, 5 and 7."""
    r, f = n, 1
    for p in _PRIMES:
        while r % (p * p) == 0:
            r //= p * p
            f *= p
    return r, f


def _flips(r: int, g: int) -> bool:
    """Whether the automorphism negating i (g = -1) or sqrt(g) negates
    sqrt(r)."""
    return r < 0 if g < 0 else r % g == 0


@functools.lru_cache(maxsize=None)  # 32 radicands, so at most 1024 entries
def _basis_product(a: int, b: int) -> tuple:
    """sqrt(a) * sqrt(b) = f * sqrt(r), returned as (r, f)."""
    g = math.gcd(a, b)
    return a * b // (g * g), (-g if a < 0 and b < 0 else g)


class Surd:
    """An exact element of Q(i, sqrt2, sqrt3, sqrt5, sqrt7).

    Stored sparsely as {squarefree radicand r: nonzero rational c}, the
    element being the sum of c * sqrt(r); a negative r stands for
    i * sqrt(-r), so r = -1 is i.  c is a Fraction, or an int while it
    is integral: integer powers such as (sqrt(7) + i)**n then stay in
    fast int arithmetic.  Every coefficient of the package lives
    here: Q(i) for the multisection methods, Q(sqrt m) for the sqrt(m)
    families (a sqrt(2) enters through |sqrt(7) + i| = sqrt(8) and always
    cancels again inside a published coefficient), and sqrt(105) where a
    sqrt(7) table is combined with a sqrt(15) one.  Immutable; a rational
    element compares and hashes like its Fraction.
    """

    __slots__ = ("_c",)

    def __init__(self, value=0):
        parts = value if isinstance(value, dict) else {1: value}
        c = {}
        for r, v in parts.items():
            if not _in_field(r):
                raise ValueError(f"sqrt({r}) is not in Q(i, sqrt2, sqrt3, sqrt5, sqrt7)")
            if v:
                c[r] = v if isinstance(v, (int, Fraction)) else Fraction(v)
        object.__setattr__(self, "_c", c)

    @classmethod
    def _of(cls, c: dict) -> "Surd":
        """Wrap a map already free of zeros and invalid radicands."""
        x = object.__new__(cls)
        object.__setattr__(x, "_c", c)
        return x

    @staticmethod
    def sqrt(n: int) -> "Surd":
        """Exact sqrt(n) for an integer n whose squarefree part lies in the
        field; negative n gives i * sqrt(-n)."""
        if n == 0:
            return Surd()
        r, f = _squarefree(n)
        return Surd({r: f})

    def __setattr__(self, name, value):
        raise AttributeError("Surd is immutable")

    # -- ring structure -----------------------------------------------------

    def __add__(self, other):
        other = _as_surd(other)
        if other is NotImplemented:
            return NotImplemented
        c = dict(self._c)
        for r, v in other._c.items():
            s = c.get(r, 0) + v
            if s:
                c[r] = s
            else:
                del c[r]
        return Surd._of(c)

    __radd__ = __add__

    def __neg__(self):
        return Surd._of({r: -v for r, v in self._c.items()})

    def __sub__(self, other):
        other = _as_surd(other)
        if other is NotImplemented:
            return NotImplemented
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, Surd) and other._c.keys() <= {1}:
            other = other._c.get(1, 0)  # a rational factor scales each part
        if isinstance(other, (int, Fraction)):
            return Surd._of({r: v * other for r, v in self._c.items()} if other else {})
        if not isinstance(other, Surd):
            return NotImplemented
        c = {}
        for a, x in self._c.items():
            for b, y in other._c.items():
                r, f = _basis_product(a, b)
                v = x * y if f == 1 else f * x * y
                c[r] = c[r] + v if r in c else v
        return Surd._of({r: v for r, v in c.items() if v})

    __rmul__ = __mul__

    def inverse(self) -> "Surd":
        """1/self.  Multiplying by the conjugate that flips i, then each
        prime in turn, leaves a product fixed by every flip so far; after
        the last one it is the rational norm."""
        num, norm = Surd(1), self
        for g in (-1,) + _PRIMES:
            if any(_flips(r, g) for r in norm._c):
                conj = Surd._of({r: -v if _flips(r, g) else v
                                 for r, v in norm._c.items()})
                num, norm = num * conj, norm * conj
        if not norm._c:
            raise ZeroDivisionError("inverse of zero")
        return num * (1 / Fraction(norm._c[1]))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        other = _as_surd(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _as_surd(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int) -> "Surd":
        """self**n for integer n (negative powers via the inverse)."""
        if n < 0:
            return self.inverse() ** -n
        result, base = Surd(1), self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- parts, predicates, hashing, display --------------------------------

    @property
    def re(self) -> "Surd":
        return Surd._of({r: v for r, v in self._c.items() if r > 0})

    @property
    def im(self) -> "Surd":
        return Surd._of({-r: v for r, v in self._c.items() if r < 0})

    def __getitem__(self, r: int) -> Fraction:
        """The coefficient of sqrt(r)."""
        return Fraction(self._c.get(r, 0))

    def items(self) -> list:
        """(radicand, coefficient) pairs: real radicands ascending, then
        the i parts."""
        return sorted(self._c.items(), key=lambda rc: (rc[0] < 0, abs(rc[0])))

    def is_rational(self) -> bool:
        return self._c.keys() <= {1}

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self[1]

    def __eq__(self, other):
        other = _as_surd(other)
        if other is NotImplemented:
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        if self.is_rational():
            return hash(self[1])
        return hash(frozenset(self._c.items()))

    def __repr__(self):
        return f"Surd({dict(self.items())!r})"

    def __str__(self):
        """A rational prints as its Fraction; otherwise each part prints in
        parentheses, as "(c)", "(c)*sqrt(r)", "(c)*i" or "(c)*sqrt(r)*i".
        The integers go through Decimal, which writes the same digits as
        str(int) but is not bound by sys.int_max_str_digits."""
        if self.is_rational():
            return _rational_str(self[1])
        return "+".join(
            f"({_rational_str(c)})" + (f"*sqrt({abs(r)})" if abs(r) != 1 else "")
            + ("*i" if r < 0 else "")
            for r, c in self.items())


def _rational_str(c) -> str:
    """str(Fraction(c)), for integers of any size."""
    if c.denominator == 1:
        return str(Decimal(c.numerator))
    return f"{Decimal(c.numerator)}/{Decimal(c.denominator)}"


def _as_surd(x):
    if isinstance(x, Surd):
        return x
    if isinstance(x, (int, Fraction)):
        return Surd._of({1: x} if x else {})
    return NotImplemented


I = Surd({-1: 1})


def _gauss_power(re: int, im: int, n: int, d: int = 1) -> tuple:
    """(re + im sqrt(-d))^n for n >= 0, as an (re, im) int pair, by binary
    powering; d = 1 gives the Gaussian integer (re + i im)^n."""
    a, b = 1, 0
    while n:
        if n & 1:
            a, b = a * re - d * b * im, a * im + b * re
        n >>= 1
        if n:
            re, im = re * re - d * im * im, 2 * re * im
    return a, b


def surd_trig(m: int, multiple: int, kind: str) -> Surd:
    """Exact cos or sin of multiple*theta where theta = acot(sqrt(m)): the
    real or imaginary part of ((sqrt(m) + i) / sqrt(m+1))**multiple.

    acot(sqrt(3)) = pi/6.  For m = 7, |sqrt(7) + i| = sqrt(8), so odd
    multiples carry a sqrt(2).  (sqrt(m) + i)^2 = (m-1) + 2 i sqrt(m), so
    for |multiple| = 2h + odd the power is (a + i b sqrt(m)) (sqrt(m) + i)^odd,
    with (a, b) the h-th power of (m-1, 2) in Z[sqrt(-m)] raised as ints:
    cos and sin are a and b sqrt(m) over (m+1)^h when odd is 0, else
    (a - b) sqrt(m(m+1)) and (a + b m) sqrt(m+1) over (m+1)^(h+1).  sin is
    odd in the multiple, cos even.
    """
    if kind not in ("cos", "sin"):
        raise ValueError(f"kind must be 'cos' or 'sin', got {kind!r}")
    h, odd = divmod(abs(multiple), 2)
    a, b = _gauss_power(m - 1, 2, h, m)
    if kind == "cos":
        num, root = (a - b, m * (m + 1)) if odd else (a, 1)
    else:
        num, root = (a + b * m, m + 1) if odd else (b, m)
        if multiple < 0:
            num = -num
    r, f = _squarefree(root)
    return Surd({r: Fraction(f * num, (m + 1) ** (h + odd))})


# ---------------------------------------------------------------------------
# bridge to mpmath
# ---------------------------------------------------------------------------


def eval_exact(x, ctx: PrecisionContext, roots: dict | None = None):
    """Evaluate an int, Fraction or Surd as mpf (mpc when it has an i part)
    at the context's working precision, sqrt(r) from and into roots when it
    is given: the caller's {r: sqrt(r)} at that precision, a root per r."""
    s = _as_surd(x)
    if s is NotImplemented:
        raise TypeError(f"cannot evaluate {type(x).__name__} exactly")
    roots = {} if roots is None else roots
    with ctx.workdps():
        total = mpf(0)
        for r, c in s.items():
            v = mpf(c.numerator) / c.denominator
            if abs(r) != 1:
                v *= roots[abs(r)] if abs(r) in roots else roots.setdefault(abs(r), mp.sqrt(abs(r)))
            total += v if r > 0 else mp.mpc(0, v)
        return total


def truncate_digits(value, digits: int) -> str:
    """Decimal string with `digits` significant digits, truncated toward zero.

    The caller is responsible for having computed `value` with enough guard
    digits that truncation of the approximation equals truncation of the
    true value.  The truncation itself is exact: the mpf is man * 2^exp,
    and its leading digits are an integer floor.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    v = mpf(value) if not isinstance(value, mpf) else value
    if v == 0:
        return "0." + "0" * (digits - 1) if digits > 1 else "0"
    if not mp.isfinite(v):
        raise ValueError(f"cannot truncate {v}")
    negative, man, exp, bc = v._mpf_
    sign = "-" if negative else ""
    # 2^(bc+exp-1) <= |v| < 2^(bc+exp) puts the decimal exponent e within
    # one of this estimate; step it until mant has exactly `digits` digits
    e = math.floor((bc + exp - 1) * math.log10(2))
    while True:
        num, den = man, 1
        if digits - 1 - e >= 0:
            num *= 10 ** (digits - 1 - e)
        else:
            den = 10 ** (e - digits + 1)
        if exp >= 0:
            num <<= exp
        else:
            den <<= -exp
        mant = num // den  # floor(|v| * 10^(digits-1-e))
        if mant >= 10**digits:
            e += 1
        elif mant < 10 ** (digits - 1):
            e -= 1
        else:
            break
    s = str(mant)
    if 0 <= e < digits:
        ipart, fpart = s[: e + 1], s[e + 1 :]
        return sign + ipart + ("." + fpart if fpart else "")
    if -5 < e < 0:
        return sign + "0." + "0" * (-e - 1) + s
    exp = f"e{'+' if e >= 0 else '-'}{abs(e)}"
    return sign + s[0] + ("." + s[1:] if digits > 1 else "") + exp
