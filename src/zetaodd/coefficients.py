"""Exact coefficient tables for the fast zeta/pi/log formulas.

Every formula this package evaluates has the shape

    constant = c_pi * pi^n  +  sum_i  c_i * basis_i

where each basis_i is a Lambert series L_q(s), the sech series S_q(s), or
the scaled q-derivative pi*q*dL_q(s)/dq at a symbolic nome q.  Every
coefficient is a Fraction or a :class:`~zetaodd.core.Surd`, an exact
element of Q(i, sqrt2, sqrt3, sqrt5, sqrt7): the multisection methods
work in Q(i), the sqrt(m) families in Q(sqrt m), and combining a sqrt(7)
table with a sqrt(15) one brings in sqrt(105).  The generators below
produce those coefficients *exactly* - no floating point - so tables can
be compared against the published values with `==`.  ``METHODS`` is the
one registry from a method name to its generator.

Two corrections relative to the printed source are deliberate and covered
by regression tests: the sign of the L_{e^(-sqrt3 pi)} term in the
sqrt3-family 4k-1 formula (plus, not minus), and the last log-3
coefficient (4/3, not 16/3).  The sqrt3-family 4k+1 formula is refused
for k divisible by 3, where its derivation degenerates and the printed
coefficients fail numerically.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from functools import partial

from mpmath import mp, mpf

from .core import (
    I,
    DomainError,
    PrecisionContext,
    Surd,
    bernoulli_weights,
    _gauss_power,
    surd_trig,
)
from .series import QSymbolic, Term, _fixed, _times, base_sums

_KIND_RANK = {"sech_series": 0, "lambert_derivative": 1, "lambert": 2}


# ---------------------------------------------------------------------------
# table model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BasisTerm:
    kind: str  # pi_power | lambert | sech_series | lambert_derivative
    q: QSymbolic | None = None
    s: int | None = None
    power: int | None = None

    def __post_init__(self):
        if self.kind == "pi_power":
            if self.power is None or self.power < 0 or self.q is not None or self.s is not None:
                raise ValueError("pi_power takes only a power >= 0")
        elif self.kind in ("lambert", "sech_series", "lambert_derivative"):
            if self.q is None or self.s is None or self.power is not None:
                raise ValueError(f"{self.kind} needs q and s")
        else:
            raise ValueError(f"unknown basis kind {self.kind!r}")

    def sort_key(self):
        if self.kind == "pi_power":
            return (0, 0, 0)
        return (1, self.q.decay_key(), _KIND_RANK[self.kind])

    def to_dict(self) -> dict:
        if self.kind == "pi_power":
            return {"kind": "pi_power", "power": self.power}
        return {"kind": self.kind, "q": str(self.q), "s": self.s}

    @classmethod
    def from_dict(cls, d: dict) -> "BasisTerm":
        if d["kind"] == "pi_power":
            return cls("pi_power", power=int(d["power"]))
        return cls(d["kind"], q=QSymbolic.parse(d["q"]), s=int(d["s"]))

    def __str__(self):
        if self.kind == "pi_power":
            return f"pi^{self.power}"
        return f"{self.kind}({self.q}, s={self.s})"


def _pi_term(n: int) -> BasisTerm:
    return BasisTerm("pi_power", power=n)


def _lam(q: QSymbolic, s: int) -> BasisTerm:
    return BasisTerm("lambert", q=q, s=s)


def _sech(q: QSymbolic, s: int) -> BasisTerm:
    return BasisTerm("sech_series", q=q, s=s)


def _dlam(q: QSymbolic, s: int) -> BasisTerm:
    return BasisTerm("lambert_derivative", q=q, s=s)


@dataclass(frozen=True)
class CoefficientTable:
    constant: str
    method: str
    entries: tuple  # of (BasisTerm, coefficient)
    # exact intermediates (values, lists of them, or from_dict's text); to_dict writes them
    debug: dict = field(default_factory=dict, compare=False)

    def pi_coefficient(self):
        for b, c in self.entries:
            if b.kind == "pi_power":
                return c
        return Fraction(0)

    def to_dict(self) -> dict:
        return {
            "constant": self.constant,
            "method": self.method,
            "entries": [
                {"basis": b.to_dict(), "coeff": format_coefficient(c)}
                for b, c in self.entries
            ],
            "debug": {name: _debug_text(v) for name, v in self.debug.items()},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, d: dict) -> "CoefficientTable":
        entries = tuple(
            (BasisTerm.from_dict(e["basis"]), parse_coefficient(e["coeff"]))
            for e in d["entries"]
        )
        return cls(d["constant"], d["method"], entries, dict(d.get("debug", {})))


def _make_table(constant, method, terms, debug=None) -> CoefficientTable:
    """Sum the coefficients of repeated bases in the (basis, coefficient)
    pairs `terms`, drop zero coefficients, order canonically, freeze."""
    acc: dict[BasisTerm, object] = {}
    for basis, c in terms:
        acc[basis] = acc[basis] + c if basis in acc else c
    items = [(b, c) for b, c in acc.items() if c != 0]
    items.sort(key=lambda bc: bc[0].sort_key())
    return CoefficientTable(constant, method, tuple(items), debug or {})


# ---------------------------------------------------------------------------
# coefficient string grammar
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(
    r"(?:\((?P<par>-?\d+(?:/\d+)?)\)|(?P<bare>-?\d+(?:/\d+)?))"
    r"(?:\*sqrt\((?P<m>\d+)\))?"
)


def _debug_text(value) -> str:
    """A debug value as text: text as it is, a list joined by "; ", a number as its Surd."""
    if isinstance(value, str):
        return value
    if isinstance(value, list):
        return "; ".join(map(_debug_text, value))
    return str(value if isinstance(value, Surd) else Surd(value))


def format_coefficient(c) -> str:
    """Exact string form of a real coefficient: "-296/355",
    "(29/1980)*sqrt(7)", "(a)+(b)*sqrt(m)", or a longer sum such as
    "(a)+(d)*sqrt(105)"; parts in ascending radicand."""
    c = Surd(c) if isinstance(c, (int, Fraction)) else c
    if not isinstance(c, Surd):
        raise TypeError(f"cannot serialize coefficient of type {type(c).__name__}")
    if c.im != 0:
        raise ValueError(f"cannot serialize the imaginary part of {c}")
    return str(c)


def parse_coefficient(text: str) -> Surd:
    """Inverse of format_coefficient."""
    s = text.strip()
    pos = 0
    parts: dict[int, Fraction] = {}
    first = True
    while pos < len(s):
        if not first:
            if s[pos] != "+":
                raise ValueError(f"bad coefficient string {text!r}")
            pos += 1
        m = _TERM_RE.match(s, pos)
        if not m or m.start() != pos:
            raise ValueError(f"bad coefficient string {text!r}")
        # through Decimal, as Surd.__str__ writes: not bound by sys.int_max_str_digits
        val = Fraction(*(int(Decimal(v)) for v in (m.group("par") or m.group("bare")).split("/")))
        root = int(m.group("m")) if m.group("m") else 1
        parts[root] = parts.get(root, Fraction(0)) + val
        pos = m.end()
        first = False
    if not parts:
        raise ValueError(f"empty coefficient string {text!r}")
    return Surd(parts)


# ---------------------------------------------------------------------------
# exact helpers
# ---------------------------------------------------------------------------

_SQRT2 = Surd.sqrt(2)


def _bernoulli_sum(c: list, total: int):
    """sum_j (-1)^j c_j B_2j B_(total-2j) / ((2j)! (total-2j)!), exact: a
    Surd when some c_j is one, else a Fraction.  Each radicand's numerators
    are summed as ints over the lcm of its c_j denominators and the weights'
    one denominator, then reduced once."""
    weights, den = bernoulli_weights(total, len(c))
    parts: dict[int, list] = {}  # radicand -> [(signed weight, c_j part)]
    for j, (cj, w) in enumerate(zip(c, weights)):
        for r, v in cj.items() if isinstance(cj, Surd) else [(1, cj)]:
            parts.setdefault(r, []).append((-w if j % 2 else w, v))
    sums = {}
    for r, terms in parts.items():
        lcm = math.lcm(*[v.denominator for _, v in terms])
        num = sum(w * v.numerator * (lcm // v.denominator) for w, v in terms)
        if num:
            sums[r] = Fraction(num, lcm * den)
    if any(isinstance(cj, Surd) for cj in c):
        return Surd(sums)
    return sums.get(1, Fraction(0))


def _f2(e: int) -> Fraction:
    return Fraction(2) ** e


def _gauss_sum(width: int, m: int):
    """sum_{n=-width..width} (1+i n)^m, exact: an int for m >= 0, else a Fraction.

    The sum is real, since the terms at n and -n are conjugates: it is
    1 + 2 sum_{n=1..width} Re (1+i n)^m, each power raised as an int pair.
    For m < 0, (1+i n)^m = (1-i n)^|m| / (1+n^2)^|m|, whose real part is
    Re (1+i n)^|m| / (1+n^2)^|m|."""
    if m >= 0:
        return 1 + 2 * sum(_gauss_power(1, n, m)[0] for n in range(1, width + 1))
    return 1 + 2 * sum(Fraction(_gauss_power(1, n, -m)[0], (1 + n * n) ** -m)
                       for n in range(1, width + 1))


# ---------------------------------------------------------------------------
# zeta(4k-1) generators
# ---------------------------------------------------------------------------


def _zc(k: int, parity: int) -> str:
    return f"zeta({4 * k + parity})"


def _corollary_4km1(k: int) -> CoefficientTable:
    s = -4 * k + 1
    w = -_bernoulli_sum([1] * k + [Fraction(1, 2)], 4 * k)  # (-1)^(j+1)
    coeffs = {
        _pi_term(4 * k - 1): w * _f2(4 * k - 1),
        _lam(QSymbolic(1, 2), s): Fraction(-2),
    }
    return _make_table(_zc(k, -1), "corollary", coeffs.items(), {"bernoulli_sum": w})


def _root3_4km1(k: int) -> CoefficientTable:
    # acot(sqrt 3) = pi/6, so surd_trig(3, n, ...) is cos/sin(n pi/6)
    s = -4 * k + 1
    a_k = _f2(4 * k) + 4 * surd_trig(3, 4 * k + 1, "sin").as_fraction()
    if a_k == 0:
        raise DomainError(f"degenerate a_k = 0 at k = {k}")
    b = [
        (surd_trig(3, 2 * j - 1, "cos") * _f2(4 * k + 1 - 2 * j)
         + surd_trig(3, 4 * k - 1 - 2 * j, "cos") * _f2(2 * j + 1))
        / (a_k * (2 if j == k else 1))
        for j in range(k + 1)
    ]
    w = -_bernoulli_sum(b, 4 * k)  # (-1)^(j+1)
    cos23 = surd_trig(3, 2 * (2 * k - 1), "cos").as_fraction()  # cos((2k-1) pi/3)
    coeffs = {
        _pi_term(4 * k - 1): w * _f2(4 * k - 1),
        # sign corrected relative to the printed formula: + not -
        _lam(QSymbolic(1, 1, 3), s): (_f2(4 * k + 1) + 4) / a_k,
        _lam(QSymbolic(1, 2, 3), s): -(_f2(4 * k + 2) + _f2(-4 * k + 4) + 12
                                       + 8 * cos23) / a_k,
        _lam(QSymbolic(1, 4, 3), s): (_f2(-4 * k + 4) + 8) / a_k,
    }
    debug = {"a_k": a_k, "b_jk": b}
    return _make_table(_zc(k, -1), "root3", coeffs.items(), debug)


def _root7_4km1(k: int) -> CoefficientTable:
    s = -4 * k + 1
    a_k = (_f2(2 * k) + 2 * surd_trig(7, 4 * k - 2, "cos")).as_fraction()
    if a_k == 0:
        raise DomainError(f"degenerate a_k = 0 at k = {k}")
    b_k = (
        _f2(2 * k + 1) + _f2(-2 * k + 2)
        + _SQRT2 ** 3 * surd_trig(7, 4 * k + 1, "sin")
        + 2 * surd_trig(7, 4 * k, "cos")
    ).as_fraction()
    c = [
        (_SQRT2 ** (4 * k - 2 * j + 1) * surd_trig(7, 2 * j - 1, "cos")
         + _SQRT2 ** (2 * j + 1) * surd_trig(7, 4 * k - 1 - 2 * j, "cos"))
        / (a_k * (2 if j == k else 1))
        for j in range(k + 1)
    ]
    w = -_bernoulli_sum(c, 4 * k)  # (-1)^(j+1)
    coeffs = {
        _pi_term(4 * k - 1): w * _f2(4 * k - 1),
        _lam(QSymbolic(1, 1, 7), s): b_k / a_k,
        _lam(QSymbolic(1, 2, 7), s): -((_f2(-4 * k + 2) + 2) * b_k
                                       - _f2(-2 * k + 2)) / a_k,
        _lam(QSymbolic(1, 4, 7), s): _f2(-4 * k + 2) * b_k / a_k,
    }
    debug = {"a_k": a_k, "b_k": b_k, "c_jk": c}
    return _make_table(_zc(k, -1), "root7", coeffs.items(), debug)


def _root15_4km1(k: int) -> CoefficientTable:
    s = -4 * k + 1
    cos_odd = surd_trig(15, 2 * k - 1, "cos")
    den = (4 * cos_odd * cos_odd).as_fraction()  # 4 cos^2((2k-1) theta)
    a_k = (surd_trig(15, 4 * k - 1, "cos") - 2 * surd_trig(15, 4 * k, "sin")) / den
    b_k = ((2 + 2 * surd_trig(15, 4 * k, "cos")
            + surd_trig(15, 4 * k - 1, "sin")) / den).as_fraction()
    inv = 1 / cos_odd
    c = [surd_trig(15, 2 * k - 2 * j, "cos") * inv / (2 if j == k else 1)
         for j in range(k + 1)]
    w = -_bernoulli_sum(c, 4 * k)  # (-1)^(j+1)
    q15 = QSymbolic(1, 1, 15)
    coeffs = {
        _pi_term(4 * k - 1): w * _f2(4 * k - 1),
        _sech(q15, s): a_k,
        _lam(q15, s): (_f2(-4 * k + 2) + 2) * b_k,
        _lam(QSymbolic(1, 2, 15), s): -(_f2(-8 * k + 4) + 3 * _f2(-4 * k + 2) + 4) * b_k,
        _lam(QSymbolic(1, 4, 15), s): (_f2(-8 * k + 4) + _f2(-4 * k + 3)) * b_k,
    }
    debug = {"a_k": a_k, "b_k": b_k, "c_jk": c}
    return _make_table(_zc(k, -1), "root15", coeffs.items(), debug)


# ---------------------------------------------------------------------------
# zeta(4k+1) generators
# ---------------------------------------------------------------------------


def _h_diff(k: int, j: int) -> Surd:
    """h(4k+1-2j) - h(2j-1), h(m) = (1 + (1+i)^m) / 2^m: the 2-section part
    of the multisection c_jk.  (1+i)^m = 2^n (a + i b), n = floor(m/2), with
    a + i b = i^n (1+i)^(m mod 2), so for m <= hi = 4k+1-2j, 2^hi h(m) has
    the integer parts 2^(hi-m) + a 2^(hi-m+n) and b 2^(hi-m+n); m = 2j-1 is
    -1 at j = 0."""
    hi = 4 * k + 1 - 2 * j
    re = im = 0
    for m, sign in ((hi, 1), (2 * j - 1, -1)):
        n, odd = divmod(m, 2)
        a, b = ((1, 0), (0, 1), (-1, 0), (0, -1))[n % 4]  # i^n
        if odd:
            a, b = a - b, a + b  # times 1+i
        re += sign * ((1 << (hi - m)) + (a << (hi - m + n)))
        im += sign * (b << (hi - m + n))
    return Surd({1: Fraction(re, 1 << hi), -1: Fraction(im, 1 << hi)})


def _gauss_diff(p: int, k: int, j: int) -> Fraction:
    """p^lo G(hi) - p^hi G(lo) at hi = 4k+1-2j, lo = 2j-1, G =
    _gauss_sum((p-1)/2, .): the p-section part of the multisection c_jk."""
    hi, lo, g = 4 * k + 1 - 2 * j, 2 * j - 1, (p - 1) // 2
    return Fraction(p) ** lo * _gauss_sum(g, hi) - p ** hi * _gauss_sum(g, lo)


def _p2_raw(k: int):
    a_k = _f2(4 * k + 1) - (-1) ** k * _f2(2 * k) - 1
    return a_k, [_f2(4 * k) * _h_diff(k, j) / a_k for j in range(k + 1)]


def _p3_raw(k: int):
    sgn = (-1) ** k
    a_k = _f2(4 * k) * (Fraction(3) ** (4 * k + 1) + 1) / (
        _f2(4 * k + 1) - sgn * _f2(2 * k) + 1
    )
    b_k = (
        (Fraction(3) ** (4 * k + 1) - 1) / 2
        - sgn * _f2(2 * k)
        - a_k * (_f2(4 * k + 1) - sgn * _f2(2 * k) - 1) / _f2(4 * k + 1)
    )
    c = [_gauss_diff(3, k, j) - a_k * _h_diff(k, j) for j in range(k + 1)]
    return a_k, b_k, c


def _p5_raw(k: int):
    sgn = (-1) ** k
    cos_part = _gauss_power(1, 2, 4 * k)[0]  # Re (1+2i)^{4k}
    denom = Fraction(5) ** (4 * k + 1) - 2 * cos_part + 1
    a_k = (_f2(4 * k + 1) - sgn * _f2(2 * k) + 1) / (_f2(4 * k) * denom)
    b_k = a_k / 2 * (Fraction(5) ** (4 * k + 1) - _gauss_sum(2, 4 * k)) - (
        _f2(4 * k + 1) - sgn * _f2(2 * k) - 1
    ) / _f2(4 * k + 1)
    c = [a_k * _gauss_diff(5, k, j) - _h_diff(k, j) for j in range(k + 1)]
    return a_k, b_k, c


def _real_bernoulli_sum(method: str, k: int, c: list) -> Surd:
    """The Gaussian-rational Bernoulli-weighted sum over j of the
    multisection coefficients c (p2/p3/p5), checked to be real: its
    imaginary part must cancel to the rational zero for the zeta formula
    to be real."""
    w = -_bernoulli_sum(c, 4 * k + 2)  # (-1)^(j+1)
    if w.im != 0:
        raise AssertionError(f"{method} Bernoulli sum not real at k={k}: {w}")
    return w.re


def _corollary3_4kp1(k: int) -> CoefficientTable:
    s = -4 * k - 1
    w = _bernoulli_sum([Fraction(2 * k + 1 - 2 * j, 2 * k) for j in range(k + 1)],
                       4 * k + 2)  # (-1)^j
    q = QSymbolic(1, 2)
    coeffs = {
        _pi_term(4 * k + 1): w * _f2(4 * k + 1),
        _dlam(q, s): Fraction(-2, k),
        _lam(q, s): Fraction(-2),
    }
    return _make_table(_zc(k, 1), "corollary3", coeffs.items(), {"bernoulli_sum": w})


def _p2_4kp1(k: int) -> CoefficientTable:
    s = -4 * k - 1
    a_k, b = _p2_raw(k)
    w = _real_bernoulli_sum("p2", k, b)
    coeffs = {
        _pi_term(4 * k + 1): w * _f2(4 * k + 1),
        _lam(QSymbolic(1, 2), s): Fraction(-(2 * a_k + 4), a_k),
        _lam(QSymbolic(1, 4), s): Fraction(4, a_k),
    }
    debug = {"a_k": a_k, "b_jk": b}
    return _make_table(_zc(k, 1), "p2", coeffs.items(), debug)


def _pq_4kp1(p: int, raw, k: int) -> CoefficientTable:
    """The p3 or p5 table (raw: _p3_raw or _p5_raw).  They differ only in
    where a_k stands: for p = 3 it weighs the e^(-4 pi) term, for p = 5 the
    -e^(-p pi) and e^(-2p pi) terms."""
    s = -4 * k - 1
    a_k, b_k, c = raw(k)
    if b_k == 0:
        raise DomainError(f"degenerate b_k = 0 at k = {k}")
    w = _real_bernoulli_sum(f"p{p}", k, c)
    sgn = (-1) ** k
    near, far = (a_k, 1) if p == 3 else (1, a_k)
    coeffs = {
        _pi_term(4 * k + 1): w * _f2(4 * k + 1) / (2 * b_k),
        _lam(QSymbolic(1, 4), s): -near / (_f2(4 * k - 1) * b_k),
        _lam(QSymbolic(-1, p), s): sgn * _f2(2 * k + 1) * far / b_k,
        _lam(QSymbolic(1, 2 * p), s): 2 * far / b_k,
    }
    debug = {"a_k": a_k, "b_k": b_k, "c_jk": c}
    return _make_table(_zc(k, 1), f"p{p}", coeffs.items(), debug)


def _degenerates(method: str, k: int) -> bool:
    """True where `method` has no table at k: the sqrt3-family zeta(4k+1)
    substitution degenerates when 3 divides k."""
    return method == "root3_p" and k % 3 == 0


def _root3_4kp1(k: int) -> CoefficientTable:
    if _degenerates("root3_p", k):
        raise DomainError(
            f"the sqrt3-family zeta(4k+1) formula is invalid for k = {k}: "
            "its defining substitution degenerates when k is divisible by 3"
        )
    s = -4 * k - 1
    cos23 = surd_trig(3, 4 * k, "cos").as_fraction()  # cos(2 pi k / 3)
    den = _f2(4 * k) - cos23
    a_k = (_f2(4 * k + 1) + 1) / den
    b = [
        (_f2(2 * j - 1) * surd_trig(3, 2 * (2 * k - 1 - j), "sin")
         + _f2(4 * k + 1 - 2 * j) * surd_trig(3, 2 * (j + 1), "sin")) / den
        for j in range(k + 1)
    ]
    w = _bernoulli_sum(b, 4 * k + 2)  # (-1)^j
    coeffs = {
        _pi_term(4 * k + 1): w * _f2(4 * k + 1),
        _lam(QSymbolic(-1, 1, 3), s): -a_k,
    }
    debug = {"a_k": a_k, "b_jk": b}
    return _make_table(_zc(k, 1), "root3_p", coeffs.items(), debug)


def _root7_4kp1(k: int) -> CoefficientTable:
    s = -4 * k - 1
    cos4k = surd_trig(7, 4 * k, "cos").as_fraction()
    den = 1 - _f2(-2 * k) * cos4k
    if den == 0:
        raise DomainError(f"degenerate denominator at k = {k}")
    a_k = (2 + _f2(-4 * k) - _f2(-2 * k + 1) * cos4k) / den
    b_k = -(
        4 + 3 * _f2(-4 * k) + _f2(-8 * k)
        - _f2(-2 * k + 2) * cos4k - _f2(-6 * k + 1) * cos4k
    ) / den
    big_den = _f2(2 * k) - cos4k
    c = [
        (_SQRT2 ** (4 * k + 1 - 2 * j) * surd_trig(7, 2 * j - 1, "cos")
         - _SQRT2 ** (2 * j - 1) * surd_trig(7, 4 * k + 1 - 2 * j, "cos")) / big_den
        for j in range(k + 1)
    ]
    w = _bernoulli_sum(c, 4 * k + 2)  # (-1)^j
    coeffs = {
        _pi_term(4 * k + 1): w * _f2(4 * k + 1),
        _lam(QSymbolic(1, 1, 7), s): a_k,
        _lam(QSymbolic(1, 2, 7), s): b_k,
        _lam(QSymbolic(1, 4, 7), s): _f2(-4 * k) * a_k,
    }
    debug = {"a_k": a_k, "b_k": b_k, "c_jk": c}
    return _make_table(_zc(k, 1), "root7_p", coeffs.items(), debug)


def _root15_4kp1(k: int) -> CoefficientTable:
    s = -4 * k - 1
    sin2k = surd_trig(15, 2 * k, "sin")
    if sin2k == 0:
        raise DomainError(f"degenerate sin(2k theta) = 0 at k = {k}")
    inv = 1 / sin2k
    cot2k = surd_trig(15, 2 * k, "cos") * inv
    c = [surd_trig(15, 2 * k + 1 - 2 * j, "sin") * inv for j in range(k + 1)]
    w = _bernoulli_sum(c, 4 * k + 2)  # (-1)^j
    q15 = QSymbolic(1, 1, 15)
    coeffs = {
        _pi_term(4 * k + 1): w * _f2(4 * k + 1),
        _sech(q15, s): cot2k,
        _lam(q15, s): _f2(-4 * k) + 2,
        _lam(QSymbolic(1, 2, 15), s): -(_f2(-8 * k) + 3 * _f2(-4 * k) + 4),
        _lam(QSymbolic(1, 4, 15), s): _f2(-8 * k) + _f2(-4 * k + 1),
    }
    debug = {"cot_2k_theta": cot2k, "c_jk": c}
    return _make_table(_zc(k, 1), "root15_p", coeffs.items(), debug)


# ---------------------------------------------------------------------------
# pi-power generators
# ---------------------------------------------------------------------------


def _example62_table(k: int) -> CoefficientTable:
    """pi^(4k-3) from Lambert series at e^-pi, e^-2pi, e^-4pi.

    Derivation, done exactly in Q(i): instantiate the zeta-free functional
    identity (sinh case) at t = (1+i)/2, a = 1/2.  The six nomes collapse
    onto e^-2pi (twice), -e^-pi (twice), -i e^-pi/2, and e^-4pi.  Writing
    L at the imaginary nome as U + (i/2) S with U the even combination
    (eliminated through the quartic nome-splitting lemma at e^-pi) and S
    the alternating sech series, exactly one of the real/imaginary parts
    of the equation is free of S; projecting onto it and removing -e^-pi
    through the 2-section rewrite leaves three real positive nomes.
    """
    m6 = k - 1  # index of the sinh-case identity
    s = -4 * m6 - 1
    n = 4 * m6 + 1
    t = (1 + I) / 2
    am, ai = _f2(-2 * m6), _f2(2 * m6)
    tneg = t ** (-2 * m6)
    tpos = t ** (2 * m6)
    m1 = -tneg * (am + ai) - tpos * ai  # L at -e^-pi
    e2 = tneg * am + tpos * (am + ai)
    e4 = -tpos * am
    w_imag = tneg * ai  # L at -i e^-pi/2
    # pi^n column of the identity: sinh(m log t) weighted by b_j
    sinh_b = []
    for j in range(m6 + 1):
        m = 2 * m6 + 1 - 2 * j
        b_j = am + ai - _f2(-m) - _f2(m)
        sinh_b.append((t ** m - t ** -m) * Fraction(1, 2) * b_j)
    p = _bernoulli_sum(sinh_b, 4 * m6 + 2) * _f2(4 * m6 + 1)
    # L_{-i e^-pi/2} = U + (i/2) S
    s_coeff = w_imag * I / 2
    h = _f2(s + 1)
    e1 = -w_imag * ((h + 2) / 2)
    e2 = e2 + w_imag * ((h * h + 3 * h + 4) / 2)
    e4 = e4 - w_imag * ((h * h + 2 * h) / 2)
    proj = (lambda z: z.re) if m6 % 2 == 0 else (lambda z: z.im)
    if proj(s_coeff) != 0:
        raise AssertionError("sech component failed to cancel in projection")
    ce1, cm1, ce2, ce4, pp = (proj(e1), proj(m1), proj(e2), proj(e4), proj(p))
    if pp == 0:
        raise AssertionError("pi column vanished; projection is degenerate")
    # L_{-e^-pi} = -L_{e^-pi} + (2^(s+1)+2) L_{e^-2pi} - 2^(s+1) L_{e^-4pi}
    ce1 -= cm1
    ce2 += cm1 * (h + 2)
    ce4 -= cm1 * h
    coeffs = {
        _lam(QSymbolic(1, 1), s): ce1 / pp,
        _lam(QSymbolic(1, 2), s): ce2 / pp,
        _lam(QSymbolic(1, 4), s): ce4 / pp,
    }
    return _make_table(f"pi^{n}", "example62", coeffs.items(), {"pi_column": pp})


def _example63_table(k: int) -> CoefficientTable:
    """pi^(4k-1) from the cosh-case zeta-free identity at t = 1, a = 1/2
    (no zeta term survives because cosh factors collapse at t = 1)."""
    s = -4 * k + 1
    c = [(_f2(2 * k - 1) + _f2(1 - 2 * k) - _f2(2 * k - 2 * j)
          - _f2(2 * j - 2 * k)) / (2 if j == k else 1) for j in range(k + 1)]
    w = _bernoulli_sum(c, 4 * k)  # (-1)^j
    den = _f2(4 * k - 1) * w
    if den == 0:
        raise AssertionError("degenerate Bernoulli weight")
    coeffs = {
        _lam(QSymbolic(1, 1), s): _f2(2 * k) / den,
        _lam(QSymbolic(1, 2), s): -2 * (_f2(1 - 2 * k) + _f2(2 * k - 1)) / den,
        _lam(QSymbolic(1, 4), s): _f2(2 - 2 * k) / den,
    }
    return _make_table(f"pi^{4 * k - 1}", "example63", coeffs.items(), {"bernoulli_sum": w})


def _eliminate_zeta(method_a: str, method_b: str, method: str,
                    k: int) -> CoefficientTable:
    """The tables of two zeta methods at the same k give the same zeta
    value; subtract them to cancel zeta and solve for the pi power they
    share (pi^n has the k of zeta(n))."""
    _, offset, gen_a = METHODS["zeta"][method_a]
    t_a, t_b = gen_a(k), METHODS["zeta"][method_b][2](k)
    den = t_a.pi_coefficient() - t_b.pi_coefficient()
    if den == 0:
        raise AssertionError("pi coefficients coincide; cannot eliminate")
    terms = [(b, -c / den) for b, c in t_a.entries if b.kind != "pi_power"]
    terms += [(b, c / den) for b, c in t_b.entries if b.kind != "pi_power"]
    pi_n = 4 * k - offset  # the n of zeta(n) at this k (see METHODS)
    assert {b.s for b, _ in terms} == {-pi_n}, "mismatched series order in elimination"
    debug = {"pi_column": den, "sources": [t_a.method, t_b.method]}
    return _make_table(f"pi^{pi_n}", method, terms, debug)


# ---------------------------------------------------------------------------
# method registry
# ---------------------------------------------------------------------------

# constant -> method -> (n mod 4, offset, generator): the method's table for
# zeta(n) or pi^n is generator(k) with k = (n + offset) // 4
METHODS = {
    "zeta": {
        "corollary": (3, 1, _corollary_4km1),
        "corollary2": (3, 1, _corollary_4km1),  # the same table, by its name in the paper
        "root3": (3, 1, _root3_4km1),
        "root7": (3, 1, _root7_4km1),
        "root15": (3, 1, _root15_4km1),
        "corollary3": (1, -1, _corollary3_4kp1),
        "p2": (1, -1, _p2_4kp1),
        "p3": (1, -1, partial(_pq_4kp1, 3, _p3_raw)),
        "p5": (1, -1, partial(_pq_4kp1, 5, _p5_raw)),
        "root3_p": (1, -1, _root3_4kp1),
        "root7_p": (1, -1, _root7_4kp1),
        "root15_p": (1, -1, _root15_4kp1),
    },
    "pi": {
        "example62": (1, 3, _example62_table),
        "example63": (3, 1, _example63_table),
        "prop_pi5": (1, -1, partial(_eliminate_zeta, "p3", "p5", "prop_pi5")),
        "prop_pi3": (3, 1, partial(_eliminate_zeta, "corollary", "root7", "prop_pi3")),
        "prop_pi5_fast": (1, -1, partial(_eliminate_zeta, "p5", "root15_p",
                                         "prop_pi5_fast")),
        "prop_pi3_fast": (3, 1, partial(_eliminate_zeta, "root7", "root15",
                                        "prop_pi3_fast")),
    },
}
# (constant, n mod 4) -> the methods `auto` may name for zeta(n) or pi^n, in
# order of preference; it takes the first one defined at that k.  For
# zeta(4k+1) these are the cheapest per certified digit (README, Notes), not
# the fastest-converging per term; zeta(4k-1) keeps root15 (ROADMAP item 8).
AUTO = {("zeta", 3): ("root15",), ("zeta", 1): ("root3_p", "root7_p"),
        ("pi", 1): ("example62",), ("pi", 3): ("example63",)}
ZETA_4KM1_METHODS = tuple(m for m, e in METHODS["zeta"].items()
                          if e[0] == 3 and m != "corollary2")
ZETA_4KP1_METHODS = tuple(m for m, e in METHODS["zeta"].items() if e[0] == 1)
PI_METHODS = tuple(METHODS["pi"])


def resolve_method(constant: str, method: str, n: int) -> tuple:
    """(registry name, k) of `method` for zeta(n) or pi^n; `auto` takes the
    first AUTO candidate defined at its k, and a bare root3/root7/root15
    also names its zeta(4k+1) variant."""
    methods = METHODS[constant]
    label = f"zeta({n})" if constant == "zeta" else f"pi^{n}"
    name = method
    if name == "auto":
        name = next((m for m in AUTO.get((constant, n % 4), ())
                     if not _degenerates(m, (n + methods[m][1]) // 4)),
                    None)
        if name is None:
            raise DomainError(f"auto has no {constant} method for {label}")
    if name + "_p" in methods and methods[name][0] != n % 4:
        name += "_p"
    if name not in methods:
        raise DomainError(f"unknown {constant} method {method!r}; "
                          f"choose from {tuple(methods)}")
    residue, offset, _ = methods[name]
    if n % 4 != residue:
        raise DomainError(f"method {method!r} computes {constant} at "
                          f"n = {residue} mod 4, not {label}")
    k = (n + offset) // 4
    if k < 1:
        raise DomainError(f"method {method!r} cannot produce {label}")
    return name, k


def method_table(constant: str, method: str, n: int) -> CoefficientTable:
    """Exact table of `method` for zeta(n) or pi^n."""
    name, k = resolve_method(constant, method, n)
    return METHODS[constant][name][2](k)


def coeffs_pi(which: str, k: int = 1) -> CoefficientTable:
    """Exact table expressing an odd pi power in Lambert/sech series.

    example62: pi^(4k-3);  example63, prop_pi3, prop_pi3_fast: pi^(4k-1);
    prop_pi5, prop_pi5_fast: pi^(4k+1).
    """
    if which not in METHODS["pi"]:
        raise DomainError(f"unknown pi method {which!r}")
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    return METHODS["pi"][which][2](k)


# ---------------------------------------------------------------------------
# logs of small primes  (s = -1 tables)
# ---------------------------------------------------------------------------


def coeffs_log(p: int) -> CoefficientTable:
    """log 2, log 3, or log 5 as pi/6-weighted Lambert combinations."""
    s = -1
    if p == 2:
        coeffs = {
            _pi_term(1): Fraction(2, 9),
            _lam(QSymbolic(1, 2), s): Fraction(-8, 3),
            _lam(QSymbolic(1, 4), s): Fraction(8, 3),
        }
    elif p == 3:
        coeffs = {
            _pi_term(1): Fraction(19, 54),
            _lam(QSymbolic(1, 2), s): Fraction(-32, 9),
            # the e^-6pi weight is 4/3; tied to the -e^-3pi weight by the
            # 2-section rewrite, which pins it (a printed 16/3 fails by ~1e-5)
            _lam(QSymbolic(-1, 3), s): Fraction(4, 3),
            _lam(QSymbolic(1, 4), s): Fraction(8, 9),
            _lam(QSymbolic(1, 6), s): Fraction(4, 3),
        }
    elif p == 5:
        coeffs = {
            _pi_term(1): Fraction(37, 72),
            _lam(QSymbolic(1, 2), s): Fraction(-8, 3),
            _lam(QSymbolic(1, 4), s): Fraction(2, 3),
            _lam(QSymbolic(-1, 5), s): Fraction(1),
            _lam(QSymbolic(1, 10), s): Fraction(1),
        }
    else:
        raise DomainError(f"log tables exist only for p in (2, 3, 5), got {p}")
    return _make_table(f"log({p})", f"log{p}", coeffs.items())


# ---------------------------------------------------------------------------
# negative-nome rewrite and numerical assembly
# ---------------------------------------------------------------------------


def negative_q_rewrite(table: CoefficientTable) -> CoefficientTable:
    """Rewrite every Lambert term at a negative nome -q0 as a combination
    at q0, q0^2, q0^4 (the 2-section identity); value-preserving, and the
    identity map when the table has no negative nomes."""
    if not any(b.kind == "lambert" and b.q.sign < 0 for b, _ in table.entries):
        return table
    terms = []
    for basis, c in table.entries:
        if basis.kind == "lambert" and basis.q.sign < 0:
            q0 = basis.q.magnitude()
            h = _f2(basis.s + 1)
            terms += [(_lam(q0, basis.s), c * Fraction(-1)),
                      (_lam(q0.squared(), basis.s), c * (h + 2)),
                      (_lam(QSymbolic(1, 4 * q0.mult, q0.root), basis.s), c * (-h))]
        else:
            terms.append((basis, c))
    debug = dict(table.debug)
    debug["rewritten"] = "negative nomes removed via 2-section"
    return _make_table(table.constant, table.method, terms, debug)


def _by_base(entries) -> dict:
    """The series entries grouped by base nome: for each radicand r of the
    nomes, x = e^(-g sqrt(r) pi) with g the gcd of their mults, so that each
    nome is +-x^j."""
    groups: dict[int, list] = {}
    for basis, coeff in entries:
        if basis.q is not None:
            groups.setdefault(basis.q.root, []).append((basis, coeff))
    return {QSymbolic(1, math.gcd(*[b.q.mult for b, _ in group]), root): group
            for root, group in groups.items()}


def _series_term(basis: BasisTerm, coeff, base: QSymbolic, target) -> Term:
    """The Term of one series entry over its base: the rational part of its
    coefficient at each radicand r is a weight under the key (derivative, r);
    the derivative's series is q dL/dq, which pi then scales."""
    derivative = basis.kind == "lambert_derivative"
    return Term(basis.kind, basis.q.mult // base.mult, basis.q.sign, basis.s, target,
                # from a list: tuple(generator) resizes a tuple, which then stays in
                # CPython's tuple free lists, as do *generator arguments
                tuple([((derivative, r), Fraction(w)) for r, w in _parts(coeff)]))


def _parts(coeff) -> list:
    """The (radicand, rational) parts of a coefficient, real in every table."""
    return coeff.items() if isinstance(coeff, Surd) else [(1, Fraction(coeff))]


def _magnitude(coeff, roots: dict):
    """|coeff| at working precision, each part's quotient times sqrt(r) from
    roots, summed: rounded as the series targets always were, so no N moves."""
    return abs(sum((mpf(c.numerator) / c.denominator * roots.get(r, 1)
                    for r, c in _parts(coeff)), mpf(0)))


def _fixed_coefficient(coeff, prec: int, pi: tuple | None = None) -> tuple:
    """coeff 2^prec, times pi (pi 2^prec) when given, and its error in units
    (series._times): each part c sqrt(r), c = a/b, floored once, (a 2^prec) // b,
    or truncated, isqrt(a^2 r 4^prec // b^2).  pi is given for the factor on
    a derivative's sums, q dL/dq, which the formula scales by pi."""
    total, parts = 0, _parts(coeff)
    for r, c in parts:
        a, b = c.numerator, c.denominator
        v = (a << prec) // b if r == 1 else math.isqrt((a * a * r << 2 * prec) // (b * b))
        total += v if a > 0 or r == 1 else -v
    return _times((total, len(parts)), pi, prec) if pi else (total, len(parts))


def _pi_power(n: int, prec: int) -> tuple:
    """pi^n 2^prec, n >= 0, and its error in units: mpmath's pi at q + 10 bits
    floored to 2^-q (2 units), raised to n with counted floors (series._times)
    at q = prec plus the bits of pi^n and of the count, then floored to prec."""
    q = prec + math.ceil(n * math.log2(math.pi)) + (3 * n).bit_length() + 2
    with mp.workprec(q + 10):
        (pi,), _ = _fixed(mp.pi, q)
    base, power = (pi, 2), (1 << q, 0)  # an exact 1 until its first factor
    while True:
        if n & 1:
            power = _times(power, base, q) if power[1] else base
        if not (n := n >> 1):
            return power[0] >> q - prec, (power[1] >> q - prec) + 2
        base = _times(base, base, q)


def assemble_detailed(table: CoefficientTable, ctx: PrecisionContext):
    """Evaluate a table in fixed point: (T, E, P, terms_used), the constant
    within E 2^-P of T 2^-P, and each basis term's series length.

    Each series is pushed to an absolute error budget of 10^-(target +
    guard/2), 10^-(target + 10) at first, over 1 + |c|, c its coefficient.
    The series of each base nome (_by_base) take one exponential,
    QSymbolic.value, and one base_sums pass.  P is the working bits prec
    plus those of the largest factor of any product (pi^n, the pi
    coefficient, each pass's sums), so a floor of the other factor costs at
    most a unit of u = 2^-prec, and at least each pass's prec.  At 2^-P each coefficient part, sqrt(r) and
    pi^n (_pi_power) are floored once.  E counts, in units of 2^-P, each
    floor and product (series._times), each pass's rounding, each tail
    bound times |c| rounded up, and the nomes' rounding: e^(-A), A = g
    sqrt(r) pi, rounded from one good to (4A + 2) 2^-p at p >= prec + 20
    bits, is good to (1 + (4A + 2) 2^-20) u <= (4A + 2) u, so x^j to (4a +
    2j) u, a <= 20 pi its decay rate, which moves a series in q, |q| < 0.05,
    by under 400 u times its size bound."""
    with ctx.workdps():
        prec = mp.prec
        budget = mpf(10) ** (-(ctx.target_digits + ctx.guard_digits // 2))
        terms = {str(basis): 0 for basis, _ in table.entries}
        roots = {r: mp.sqrt(r) for r in {r for b, c in table.entries if b.q
                                         for r, _ in _parts(c)} - {1}}
        passes = []
        for base, group in _by_base(table.entries).items():
            cmags = [_magnitude(coeff, roots) for _, coeff in group]
            run = [_series_term(basis, coeff, base, budget / (1 + cmag))
                   for (basis, coeff), cmag in zip(group, cmags)]
            passes.append((group, cmags, *base_sums(base.value(ctx), run, ctx)))
        pis = [(b.power, c) for b, c in table.entries if b.kind == "pi_power"]
        bits = [max(math.ceil(n * math.log2(math.pi)),
                    abs(_fixed_coefficient(c, 0)[0]).bit_length() + 3) for n, c in pis]
        bits += [abs(ints[0]).bit_length() - p
                 for *_, sums, p in passes for ints, _ in sums.values()]
        scale = max([prec + max(0, *bits)] + [p for *_, p in passes])
        total, err, pi = 0, 0, _pi_power(1, scale)
        for n, coeff in pis:
            t, e = _times(_fixed_coefficient(coeff, scale), _pi_power(n, scale), scale)
            total, err = total + t, err + e
        for group, cmags, info, sums, p in passes:
            for (basis, _), cmag, (n, tail, size) in zip(group, cmags, info):
                terms[str(basis)] = n
                # |c| (pi |c| for the derivative) times the tail and the nome's
                # 400 u size, rounded up with 2^-20 to spare for its roundings
                bound = cmag * (tail + mp.ldexp(400 * size, -prec))
                if basis.kind == "lambert_derivative":
                    bound *= mp.pi
                units = int(mp.ldexp(bound, scale))
                err += units + (units >> 20) + 2
            for (derivative, r), (ints, e) in sums.items():
                v = ints[0] << scale - p, e << scale - p
                if r != 1 or derivative:  # times sqrt(r), and pi for q dL/dq
                    f = _fixed_coefficient(Surd.sqrt(r), scale, pi if derivative else None)
                    v = _times(f, v, scale)
                total, err = total + v[0], err + v[1]
        return total, err, scale, terms

