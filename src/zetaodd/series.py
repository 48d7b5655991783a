"""Lambert series and friends: one certified series kernel, symbolic nomes.

Every basis series of the published formulas is a sum over n >= 1 of an
algebraic term in q:

    lambert             L_q(s)    = sum n^s q^n / (1 - q^n)
    lambert_derivative  q dL_q/dq = sum n^(s+1) q^n / (1 - q^n)^2
    sech_series         S_q(s)    = sum (-1)^n (2n-1)^s 2 q^(n-1/2) / (1 + q^(2n-1))

where the sech term is sech((n-1/2)|log q|) written in powers of q, so no
hyperbolic function is evaluated.  Each kind is defined once (``_KINDS``):
its tail bound and where its coefficients stand.  s is an integer
throughout.  The number of terms N is the smallest n whose closed-form
tail bound (``_bound``) is below the target (``_terms_needed``); a series
that would need more than ``TERM_CAP`` terms raises ConvergenceError.

Every N-term sum, at a real or a complex nome, is taken by one kernel, the
fixed-point pass ``base_sums`` over the powers of one base x, |x| < 1: each
series is a power series in q = +-x^j with exact coefficients from one
divisor sieve (``_lambert_sieve``; sech: ``_odd_half``), summed by
rectangular splitting in Python ints, one int per component of x
(``_fixed_pass``), and returned with a certified rounding error.  A table
takes one pass per base nome (``coefficients.assemble_detailed``), and so
does an identity check (``_weighted_sum``, whose one-term case
``lambert_eval`` and ``sech_series`` are); the convergence profile
(``engine.convergence_profile``) takes one for all the prefixes of its
slowest series (``Term.prefixes``, term by term).  ``lambert_q_expansion``
and the multisection check (``identities.check_multisection``) read
sigma_s(m) from the sieve.

q arguments are numbers (a table's nome values, and complex points in the
identity checks) or :class:`QSymbolic` nomes sign * exp(-r*pi) with r from
the closed set the published formulas generate; the symbolic form is what
keeps serialized coefficient tables exact.  Each r takes one exponential
per process (``QSymbolic.value``).
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, repeat
from operator import add, floordiv, mul

from mpmath import mp, mpf
from mpmath.libmp import from_man_exp

from .core import ConvergenceError, DomainError, PrecisionContext

TERM_CAP = 10**6  # the most terms any one series may take

# decay rates r = mult * sqrt(root) that the published tables and their
# negative-q rewrites can produce
_ALLOWED_RATIONAL_MULT = frozenset({1, 2, 3, 4, 5, 6, 10, 12, 20})
_ALLOWED_ROOT_MULT = frozenset({1, 2, 4})
_QSYM_RE = re.compile(
    r"^(?P<neg>-)?exp\(-(?:(?P<mult>\d+)\*)?(?:sqrt\((?P<root>\d+)\)\*)?pi\)$"
)
_EXP: dict = {}  # (mult, root) -> (bits, e^(-mult sqrt(root) pi) to those bits)


@dataclass(frozen=True)
class QSymbolic:
    """Exact nome sign * exp(-mult * sqrt(root) * pi), root in {1, 3, 7, 15}.

    Only decay rates reachable from the published formulas (including
    their square/fourth-power images under the negative-q rewrite) are
    accepted, so a table can never silently acquire a nome the series
    layer has no story for.
    """

    sign: int
    mult: int
    root: int = 1

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +-1, got {self.sign}")
        if self.root == 1:
            allowed = _ALLOWED_RATIONAL_MULT
        elif self.root in (3, 7, 15):
            allowed = _ALLOWED_ROOT_MULT
        else:
            raise ValueError(f"unsupported root {self.root}")
        if self.mult not in allowed:
            raise ValueError(
                f"decay rate {self.mult}*sqrt({self.root}) outside the supported set"
            )

    # -- algebra used by the negative-q rewrite -----------------------------

    def magnitude(self) -> "QSymbolic":
        return QSymbolic(1, self.mult, self.root)

    def squared(self) -> "QSymbolic":
        """|q|^2 as a symbolic nome (always positive)."""
        return QSymbolic(1, 2 * self.mult, self.root)

    def decay_key(self) -> int:
        """mult^2 * root; orders nomes by decay (|q| descending <=> key ascending)."""
        return self.mult * self.mult * self.root

    # -- numerics ------------------------------------------------------------

    def value(self, ctx: PrecisionContext) -> mpf:
        """The nome at working precision, rounded from _EXP.

        _EXP keeps one entry per (mult, root), so at most 18: e^(-A), A =
        mult sqrt(root) pi, at 20 bits above the highest precision asked for
        so far, replaced when a higher one is asked for (as mpmath caches
        pi).  A nome costs an exponential only when the precision rises past
        its entry, and the cache holds at most 18 mantissas of that many bits
        (0.8 MB at 10^5 digits).  The rounded value is good to (1 + (4A +
        2) 2^-20) 2^-prec relative (coefficients.assemble_detailed)."""
        with ctx.workdps():
            bits, v = _EXP.get((self.mult, self.root), (0, None))
            if bits < mp.prec + 20:
                bits = mp.prec + 20
                with mp.workprec(bits):
                    v = mp.exp(-self.mult * mp.sqrt(self.root) * mp.pi)
                _EXP[self.mult, self.root] = bits, v
            return +v if self.sign > 0 else -v

    # -- serialization ---------------------------------------------------

    def __str__(self) -> str:
        factors = []
        if self.mult != 1:
            factors.append(str(self.mult))
        if self.root != 1:
            factors.append(f"sqrt({self.root})")
        factors.append("pi")
        body = "*".join(factors)
        prefix = "-" if self.sign < 0 else ""
        return f"{prefix}exp(-{body})"

    @classmethod
    def parse(cls, text: str) -> "QSymbolic":
        m = _QSYM_RE.match(text.strip())
        if not m:
            raise ValueError(f"cannot parse nome {text!r}")
        return cls(
            sign=-1 if m.group("neg") else 1,
            mult=int(m.group("mult") or 1),
            root=int(m.group("root") or 1),
        )


@dataclass(frozen=True)
class SeriesResult:
    value: object  # mpf or mpc
    terms_used: int
    tail_bound: mpf
    precision_used: int
    rounding_error: object  # certified |value - the terms_used-term sum|


def _num(x):
    if isinstance(x, Fraction):
        return mpf(x.numerator) / x.denominator
    return mp.mpmathify(x)


def _lambert_terms(a: int, n_terms: int, order: int):
    """The n_terms-term Lambert sum over q in q^(m-1) coefficients c_m = e_m /
    m^a, m = 1..order+1, c_m the sum of d^-a over the divisors d <= n_terms
    of m: the (start d - 1, step d, numerators k^a at m = dk) of each term
    d <= min(n_terms, order+1), lazily, for Term.prefixes (a sum: _lambert_sieve)."""
    top = order + 1
    powers = [k ** a for k in range(top + 1)]
    return ((d - 1, d, powers[1:top // d + 1]) for d in range(1, min(n_terms, top) + 1))


def _lambert_sieve(a: int, n_terms: int, length: int) -> list:
    """e[m-1] = the sum of (m/d)^a over the divisors d <= n_terms of m, m =
    1..length, n_terms >= 1, as _sieve(_lambert_terms(...)), in about 2
    sqrt(length) slices: each dk = m has d <= r = isqrt(length) or k <=
    length // (r + 1) (Dirichlet's hyperbola method), so k^a is added over
    r < d <= min(n_terms, length // k) per k, then at m = dk per d <= r.  The
    powers share the ints of e's term d = 1; k = 1 is the peak (_sieve_bytes)."""
    r = math.isqrt(length)
    e = [k ** a for k in range(1, length + 1)]
    powers = e[:length // 2]  # k^a at k - 1, the same int objects
    for k in range(1, length // (r + 1) + 1):
        at = slice((r + 1) * k - 1, min(n_terms, length // k) * k, k)
        e[at] = map(add, e[at], repeat(powers[k - 1]))
    for d in range(2, min(n_terms, r) + 1):
        e[d - 1::d] = map(add, e[d - 1::d], powers[:length // d])
    return e


def _odd_half(a: int, n_terms: int, order: int, per_term) -> Iterator:
    """The sech sum's q^m numerators (_Kind), m <= order, summed or per term n:
    by the sech lemma S_q(s) = i [L_(i sqrt q)(s) - L_(-i sqrt q)(s)], the
    2 n_terms - 1 term Lambert sum's at 2m + 1, doubled and signed (-1)^(m+1),
    term n being the Lambert term d = 2n - 1."""
    run = (_lambert_terms(a, 2 * n_terms - 1, 2 * order) if per_term
           else [(0, 1, _lambert_sieve(a, 2 * n_terms - 1, 2 * order + 1))])
    for start, step, nums in islice(run, 0, None, 2):  # start d - 1 even, step d odd
        nums = [2 * v for v in nums[::2]]
        neg = start // 2 & 1  # the index of the first even m = start // 2 + step i
        nums[neg::2] = [-v for v in nums[neg::2]]
        yield start // 2, step, nums


@dataclass(frozen=True)
class _Kind:
    """One basis series, q^lift times the sum over n >= 1 of its terms (the
    module docstring).  After N terms the tail of that sum is at most
    first(|q|) |q|^N weight(N) / den(|q|) whenever s <= max_s.

    The N-term series is also a power series in q whose coefficients, m
    = 0..order, are exact numerators from the one divisor sieve, summed
    (_lambert_sieve) or term by term (_lambert_terms), over denominators
    that its family sets, with numerators times j^a at the nome q = +-x^j
    and |numerator / denominator| <= coef_bound(m) for s <= max_s.
    Lambert and the derivative are the family ("n", a), a = -s - lift:
    numerator m stands at q^(m+1), the power n = j (m+1) of x, over n^a.
    Sech, the odd half of a Lambert sum (_odd_half), is the family
    ("sech", a, j), a = -s: numerator m stands at q^m, the power n = j m,
    over (2n + j)^a, and first(q) = sqrt(q) multiplies the sum."""

    name: str  # for error messages
    max_s: int
    real_nome: bool  # q must lie in (0, 1), not just inside the unit disc
    first: Callable
    weight: Callable
    den: Callable
    coef_bound: Callable
    lift: int = 0


# Lambert: |n^s| <= 1 and |1-q^n| >= 1-|q|, and the geometric tail supplies
# the other 1/(1-|q|).  Derivative: the same argument for dL/dq with s+1 <=
# 0; the factor (1+N) covers the n^(s+1) weights for s near -1.  Sech: y =
# q^(n-1/2) = e^(-(n-1/2)|log q|), so the term is (2n-1)^s sech((n-1/2)|log
# q|); terms alternate and decrease for s <= 0, so the tail is at most the
# first omitted term, and sech(x) <= 2e^(-x) gives the bound.  Coefficients: a
# sum of at most d(m) terms of size <= 1, and d(m) <= 2 sqrt(m).
_KINDS = {
    "lambert": _Kind(
        "lambert_eval", 0, False, lambda q: q,
        lambda n: 1, lambda qa: (1 - qa) ** 2, lambda m: 2 * math.sqrt(m + 1)),
    "lambert_derivative": _Kind(
        "lambert_derivative", -1, False, lambda q: mp.mpmathify(1),
        lambda n: 1 + n, lambda qa: (1 - qa) ** 3, lambda m: 2 * (m + 1) ** 1.5, 1),
    "sech_series": _Kind(
        "sech_series", 0, True, mp.sqrt,
        lambda n: 2, lambda qa: 1 - qa * qa, lambda m: 4 * math.sqrt(2 * m + 1)),
}


def _bound(kind: _Kind, qa, n: int, lead=None):
    """The tail bound after n terms, lead |q|^n weight(n) with lead =
    first(|q|) / den(|q|), at working precision."""
    if lead is None:
        lead = kind.first(qa) / kind.den(qa)
    return lead * qa ** n * kind.weight(n)


def _ln(x) -> float:
    """log x of a positive mpf, as a float whatever its exponent."""
    return math.log(x.man) + x.exp * math.log(2)


def _terms_needed(kind: _Kind, qa, target) -> tuple:
    """Smallest N whose tail bound is below target, and that bound.

    N is estimated from float logs and walked to bound(N) < target <=
    bound(N-1) from bound(1) >= target: the bound only rises before it falls.
    Each test is the sign of ln(bound(n) / target) in floats (_ln), off by
    < 2^-50 per bit and unit of exponent of lead, qa^n and target, and taken
    at working precision only within 2^-44 of that, a tie.  qa = 0: N = 1."""
    n, cap, lead = 1, TERM_CAP, kind.first(qa) / kind.den(qa)
    c, lq = (_ln(lead) - _ln(target), _ln(qa)) if qa else (0.0, 0.0)
    tie = [2.0 ** -44 * (v.man.bit_length() + abs(v.exp) + 1) for v in (lead, qa, target)]

    def below(m: int) -> bool:  # bound(m) < target
        d = c + m * lq + math.log(kind.weight(m))
        if abs(d) > tie[0] + m * tie[1] + tie[2]:
            return d < 0
        return _bound(kind, qa, m, lead) < target
    if qa and not below(1):
        est, rate = 1.0, max(-lq, 1e-300)
        for _ in range(8):  # the weight is 1, 2 or 1+n: a fixed point
            est = (c + math.log(kind.weight(min(max(est, 1.0), cap)))) / rate
        n = cap if est >= cap else max(2, math.floor(est) + 1)
        if below(n):
            while n > 2 and below(n - 1):
                n -= 1
        else:
            while not below(n):
                n += 1
                if n > cap:
                    raise ConvergenceError(
                        f"{kind.name}: tail bound did not reach {mp.nstr(target, 6)} "
                        f"within {cap} terms")
    return n, _bound(kind, qa, n, lead)


def _fixed(v, prec: int) -> tuple:
    """v * 2^prec as a fixed-point number, one int per component (two for an
    mpc), and |its error| in units of 2^-prec: each shift floors."""
    ints, floors = [], 0
    for sign, man, exp, _ in v._mpc_ if isinstance(v, mp.mpc) else [v._mpf_]:
        if sign:
            man = -man
        if exp + prec >= 0:
            ints.append(man << (exp + prec))
        else:
            ints.append(man >> -(exp + prec))
            floors += 1
    return tuple(ints), math.sqrt(floors)


def _mul(u: tuple, v: tuple, prec: int) -> tuple:
    """The product of two fixed-point numbers (_fixed), each component
    floored: |its error| is below one unit per floor, sqrt(2) if complex."""
    if len(u) == 1:
        return (u[0] * v[0] >> prec,)
    (a, b), (c, d) = u, v
    return ((a * c - b * d) >> prec, (a * d + b * c) >> prec)


def _order(kind: _Kind, ax: float, prec: int) -> int:
    """An order M whose dropped terms, sum over m > M of coef_bound(m) ax^m,
    stay below 2^-(prec+1): the first of them over 1 - (the ratio of the
    next two), which bounds every later ratio."""
    rate = -math.log2(ax)
    m = max(1, int(prec / rate))
    while True:
        ratio = ax * kind.coef_bound(m + 2) / kind.coef_bound(m + 1)
        if ratio >= 1:
            m *= 2
            continue
        need = (prec + 1 + math.log2(kind.coef_bound(m + 1))
                - math.log2(1 - ratio)) / rate - 1
        if m >= need:
            return m
        m = math.ceil(need)


@dataclass(frozen=True)
class Term:
    """One series of a pass over a base x (base_sums): the basis kind at the
    nome q = sign x^j (_Kind), to the smallest N whose tail bound is below
    target, added with each weight of (key, Fraction) `weights` into the
    sum of its key.  With prefixes = P > 0 the target is not read: the
    series is cut at each N = 1..P instead, prefix N added into the sum of
    key (key, N) up to the pass's last term, its largest order + 1 (_order),
    which later prefixes equal; terms that share a key then share P."""

    kind: str
    j: int
    sign: int
    s: int
    target: object
    weights: tuple = ((None, Fraction(1)),)
    prefixes: int = 0


def _powers(x, ax: float, prec: int, steps: set, r: int) -> tuple:
    """{n: x^n in fixed point} for the n <= r that a step divides, and the
    largest |error| of any power built, in units of 2^-prec, ax >= |x|.
    Each is the previous one times x^gap, the x^gap by steps of x.  A
    floored product of U ~ u and V ~ v is off by <= |u| e_V + |v| e_U + e_U
    e_V 2^-prec + unit, the unit being 1, or sqrt(2) for a complex x (_mul)."""
    x1, ex = _fixed(x, prec)
    unit = math.sqrt(len(x1))
    pw = {0: ((1 << prec,) + (0,) * (len(x1) - 1), 0.0), 1: (x1, ex)}

    def times(a: int, b: int) -> None:
        (u, eu), (v, ev) = pw[a], pw[b]
        pw[a + b] = (_mul(u, v, prec),
                     ax ** a * ev + ax ** b * eu + eu * ev * 2.0 ** -prec + unit)

    need = [n for n in range(r + 1) if any(n % j == 0 for j in steps)]
    for d in range(1, max(b - a for a, b in zip(need, need[1:]))):
        times(d, 1)
    for a, b in zip(need, need[1:]):
        if b not in pw:
            times(a, b - a)
    return {n: pw[n][0] for n in need}, max(e for _, e in pw.values())


def base_sums(x, terms, ctx: PrecisionContext) -> tuple:
    """Every term (Term) at a nome +-x^j of one base x, real in (0, 1) or
    complex with |x| < 1, in one fixed-point pass over one set of powers of
    x (_fixed_pass).  A sech term needs x in (0, 1) and sign +1: other
    nomes raise DomainError.

    Returns the (N, tail bound, size bound) of each term's series times
    |q|^lift, the size bound being the closed-form bound after no terms,
    and the sums {key: (value, certified bound of |rounding error|)},
    values with all their bits.  A term whose order would exceed 4 TERM_CAP
    + 64 (a nome near 1 with a target far looser than the precision) raises
    ConvergenceError: N <= TERM_CAP, so no pass holds more powers of x."""
    with ctx.workdps():
        info, plans, absx = [], [], abs(x)  # a square root for a complex x: once
        for t in terms:
            kind = _KINDS[t.kind]
            if kind.real_nome and (isinstance(x, mp.mpc) or not 0 < x < 1 or t.sign < 0):
                raise DomainError(f"{kind.name} requires real q in (0, 1)")
            if not absx < 1:  # a nan nome too
                raise DomainError(f"|q| must be < 1, got |q| = {mp.nstr(absx ** t.j, 8)}")
            if not isinstance(t.s, int) or t.s > kind.max_s:
                raise DomainError(f"{kind.name} requires integer s <= {kind.max_s}, got {t.s!r}")
            qa = absx ** t.j
            if t.prefixes > TERM_CAP:
                raise ConvergenceError(f"{kind.name}: more than {TERM_CAP} prefixes")
            if t.prefixes:
                n, bound = t.prefixes, _bound(kind, qa, t.prefixes)
            elif (target := _num(t.target)) > 0:
                n, bound = _terms_needed(kind, qa, target)
            else:
                raise ValueError("target_abs_error must be positive")
            lifted = qa ** kind.lift
            with mp.workprec(53):  # a scale for the slop: a few digits do
                size = _bound(kind, qa, 0) * lifted
            info.append((n, bound * lifted, size))
            plans.append((t, kind, qa, n))
        prec = mp.prec + 40 + max(n for n, *_ in info).bit_length()
        fixed, cap = [], 4 * TERM_CAP + 64
        for t, kind, qa, n in plans:
            ax = math.nextafter(float(qa), 2.0)
            order = _order(kind, ax, prec) if ax < 1 else math.inf
            if order > cap:
                raise ConvergenceError(
                    f"{kind.name}: the power series at |q| = {mp.nstr(qa, 8)} "
                    f"would need more than {cap} powers of q")
            fixed.append((t, kind, n, order))
        ax = math.nextafter(float(absx), 2.0)  # |x| <= ax
        sums, scale = _fixed_pass(x, ax, fixed, prec), _scale(terms)
        last = max([min(n, order + 1) for t, _, n, order in fixed if t.prefixes], default=0)
        for key in {key for t in terms if t.prefixes for key, _ in t.weights}:
            for m in range(2, last + 1):  # prefix m: the running sum of the terms alone up to m
                (u, eu), (v, ev) = sums[key, m - 1], sums.get((key, m), ((0, 0), 0))
                sums[key, m] = [a + b for a, b in zip(u, v)], eu + ev
        out = {}
        for key, (total, ulps) in sums.items():
            err = math.ceil(ulps * (1 + 2.0 ** -20)) + 1  # slack for the float sums
            parts = [from_man_exp(c, -prec) for c in total]  # all the bits
            value = mp.make_mpc(tuple(parts)) if len(parts) == 2 else mp.make_mpf(parts[0])
            out[key] = (value, mp.make_mpf(from_man_exp(err, scale - prec)))
        return info, out


def _scale(terms) -> int:
    """0 unless some weight of the terms passes 2^768, else the least scale
    with every |w| < 2^(768 + scale): _fixed_pass counts its error in units
    of 2^(scale - prec), so its float bookkeeping keeps 255 bits of headroom."""
    return max(0, max(w.numerator.bit_length() - w.denominator.bit_length() + 1
                      for t in terms for _, w in t.weights) - 768)


def _fixed_pass(x, ax: float, fixed: list, prec: int) -> dict:
    """{key: (sum * 2^prec, |error| in units of 2^(scale-prec)), scale =
    _scale of the terms} over (term, kind, N, order), each cut at its own
    order (_order), ax >= |x|; a sum has one int per component (_fixed).

    A term puts its numerators (_Kind), each times D w and the sign of its
    power of q, at their powers of x in one sequence per key and family,
    over the denominators its family sets (("n", a): 1, not 0^a, at x^0); D
    is the lcm of the weights' denominators, and the sum is floored by D at
    the end.  A term of P prefixes puts each of its terms m <= order + 1
    alone under (key, m), for base_sums to take running sums.
    r, a multiple of every j, is about sqrt(sequences * positions /
    density); baby steps X_n = x^n are needed only where some j divides n <
    r, and each sequence is sum_i Y^i B_i, Y = x^r, B_i = sum_n (E_{ir+n}
    X_n) // F_{ir+n}, by Horner in Y (Paterson & Stockmeyer; Smith), one
    floor per position and component, exact at E = 0.  Error of a sequence,
    each bound taken through |x|, a floor being off by at most a unit, 1 or
    sqrt(2) for a complex x, its D-fold's floors being 1/D unit each, with
    ax >= |x|, beta = sum |w| coef_bound(order) >= |B_n|, xi >= the error
    of each X_n and of Y (_powers), and Y^i within i yhat^(i-1) xi of y^i:
      each floored division off by <= beta xi + a unit; a floor per Horner step;
      Y^i's error against |B_i| <= beta / (1 - ax): <= xi beta / ((1-ax)(1-yhat)^2);
      the terms past each order, below |w| / 2 each (_order);
      for sech (real x), sqrt(x^j) rounded twice at prec bits and floored
      (ef + 2 units) against beta / (1 - ax), and a floor; the floor by D."""
    parts, lcds = [], {}
    scale = _scale(t for t, *_ in fixed)  # weights count in units of 2^scale
    one = math.ldexp(1.0, max(-scale, -1074))  # a unit floor, >= 2^-scale
    for t, kind, n, order in fixed:
        sech = t.kind == "sech_series"
        off = int(not sech)  # numerator m stands at q^(m + off)
        family = ("sech", -t.s, t.j) if sech else ("n", -t.s - kind.lift)
        keyed = [t.weights] if not t.prefixes else [
            [((key, m), w) for key, w in t.weights] for m in range(1, min(n, order + 1) + 1)]
        parts.append((t, kind, n, order, off, keyed, family))
        for weights in keyed:
            for key, w in weights:
                lcds[key, family] = math.lcm(lcds.get((key, family), 1), w.denominator)
    steps = {t.j for t, *_ in parts}
    top = max(t.j * (order + off) for t, _, _, order, off, *_ in parts)
    lcm = math.lcm(*steps)
    density = sum(any(n % j == 0 for j in steps) for n in range(lcm))
    r = lcm * max(1, math.isqrt(len(lcds) * (top + 1) * lcm // density) // lcm)
    size = -(-(top + 1) // r) * r
    # ("n", a) has no numerator at n = 0 (off = 1), so 1 there serves map(floordiv)
    dens = {f: [((n or 1) if f[0] == "n" else 2 * n + f[2]) ** f[1] for n in range(size)]
            for f in {p[-1] for p in parts}}
    seqs = {seq: [[0] * size, 0.0, 0.0] for seq in lcds}  # numerators, beta, sum |w|
    for t, kind, n, order, off, keyed, family in parts:
        expansions = (_odd_half(-t.s, n, order, t.prefixes) if family[0] == "sech"
                      else _lambert_terms(-t.s, n, order) if t.prefixes
                      else [(0, 1, _lambert_sieve(-t.s, n, order + 1))])
        for weights, (start, step, nums) in zip(keyed, expansions):
            at = slice(t.j * (start + off), t.j * (order + off) + 1, t.j * step)
            if t.sign < 0:
                nums = [-v if (i + off) & 1 else v
                        for i, v in zip(range(start, order + 1, step), nums)]
            for key, w in weights:
                seq = seqs[key, family]
                c = w.numerator * (lcds[key, family] // w.denominator) * t.j ** family[1]
                seq[0][at] = map(add, seq[0][at], (c * v for v in nums))
                aw = abs(w.numerator) / (w.denominator << scale)  # float(abs(w)) at scale 0
                seq[1] += aw * kind.coef_bound(order)
                seq[2] += aw
        del expansions, nums
    xs, xi = _powers(x, ax, prec, steps, r)
    y = xs.pop(r)
    zero = (0,) * len(y)
    unit = math.sqrt(len(y))
    # lists here and below: tuples of r (from zip) or from tuple(generator)
    # would stay in CPython's tuple free lists
    baby = [[xs.get(n, zero)[c] for n in range(r)] for c in range(len(y))]  # per component; 0 where no j divides n
    yhat = ax ** r + xi * 2.0 ** -prec  # >= |y| and |Y|
    sums = {}
    for (key, family), (num, beta, absw) in seqs.items():
        den, acc = dens[family], zero
        for i in reversed(range(0, size, r)):
            es, fs = num[i:i + r], den[i:i + r]
            acc = [a + sum(map(floordiv, map(mul, es, bx), fs))
                   for a, bx in zip(_mul(acc, y, prec), baby)]
        divisions = size - num.count(0)
        ulps = ((divisions * (beta * xi + one) + size // r * one + 3 * one) * unit
                + xi * beta / ((1 - ax) * (1 - yhat) ** 2) + absw / 2)
        if family[0] == "sech":
            with mp.workprec(prec):
                fq, ef = _fixed(mp.sqrt(x ** family[2]), prec)
            acc = _mul(acc, fq, prec)
            ulps += (ef + 2) * beta / (1 - ax) + one
        total, err = sums.get(key, (zero, 0))
        sums[key] = ([v + a // lcds[key, family] for v, a in zip(total, acc)], err + ulps)
    return sums


def _weighted_sum(x, entries, target, ctx: PrecisionContext) -> SeriesResult:
    """sum w S at q = sign x^j over the entries (w exact, kind, j, sign, s) of
    one base x in one base_sums pass, the weights in its Terms, each series
    to the smallest N whose tail bound is below target: the largest N, sum
    |w| times the tail bounds, and the certified rounding error."""
    terms = [Term(kind, j, sign, s, target, ((None, Fraction(w)),))
             for w, kind, j, sign, s in entries]
    info, sums = base_sums(x, terms, ctx)
    value, rounding = sums[None]
    with ctx.workdps():
        tail = sum(abs(w) * bound for (w, *_), (_, bound, _) in zip(entries, info))
    return SeriesResult(value, max(n for n, *_ in info), tail, ctx.working_digits, rounding)


def _evaluate(kind: str, q, s, target_abs_error, ctx: PrecisionContext) -> SeriesResult:
    """One basis series at q: the one-term _weighted_sum over x = q, or over
    x = |q| with the sign in the term for real q."""
    with ctx.workdps():
        qv = q.value(ctx) if isinstance(q, QSymbolic) else _num(q)
        x, sign = (-qv, -1) if not isinstance(qv, mp.mpc) and qv < 0 else (qv, 1)
        return _weighted_sum(x, [(1, kind, 1, sign, s)], target_abs_error, ctx)


def lambert_eval(q, s, target_abs_error, ctx: PrecisionContext) -> SeriesResult:
    """L_q(s) summed to the smallest N whose certified tail beats the target."""
    return _evaluate("lambert", q, s, target_abs_error, ctx)


def sech_series(q, s, target_abs_error, ctx: PrecisionContext) -> SeriesResult:
    """S_q(s) = sum_{n>=0} (-1)^(n+1) (2n+1)^s sech((n+1/2)|log q|), 0 < q < 1,
    certified; s <= 0."""
    return _evaluate("sech_series", q, s, target_abs_error, ctx)


def lambert_q_expansion(s: int, order: int) -> list[Fraction]:
    """First `order` q-expansion coefficients of L_q(s), [sigma_s(1), ...],
    from the kernel's divisor sieve: sigma_s(m) = e_m, or e_m / m^|s| for s < 0."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    e = _lambert_sieve(abs(s), order, order)
    return [Fraction(v, m ** max(-s, 0)) for m, v in enumerate(e, 1)]
