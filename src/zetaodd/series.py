"""Lambert series and friends: one certified series kernel, symbolic nomes.

Every basis series of the published formulas is a sum over n >= 1 of an
algebraic term in q:

    lambert             L_q(s)   = sum n^s q^n / (1 - q^n)
    lambert_derivative  dL_q/dq  = sum n^(s+1) q^(n-1) / (1 - q^n)^2
    sech_series         S_q(s)   = sum (-1)^n (2n-1)^s 2 q^(n-1/2) / (1 + q^(2n-1))

where the sech term is sech((n-1/2)|log q|) written in powers of q, so no
hyperbolic function is evaluated.  Each kind is defined once (``_KINDS``):
its term, its tail bound and its q-expansion.  s is an integer throughout.
The number of terms N is the smallest n whose closed-form tail bound
(``_bound``) is below the target (``_terms_needed``); a series that would
need more than ``TERM_CAP`` terms raises ConvergenceError.  The N-term sum
is then taken on one of two paths, chosen by the nome:

* real q (every table term): the fixed-point kernel ``_fixed_sum``.  The
  N-term sum is a power series in q with exact rational coefficients from
  one divisor sieve, summed by rectangular splitting in Python ints.  It
  returns the sum exactly to its precision together with a certified
  rounding error: the terms past the order it keeps, bounded through
  |coefficient| <= d(m) <= 2 sqrt(m), and one unit per fixed-point shift
  or division, weighted by what multiplies it later.
  ``coefficients.basis_value`` adds that error to the tail.
* complex q (the identity checks), a target so loose that the power
  series would need more than 4N + 64 powers of q, and ``partial_sums``
  (the convergence profile, which wants every prefix): the term-by-term
  loop ``_sums`` at working precision.  Its rounding is left to the caller's
  slop, which scales with the size of the terms.

``lambert_eval``, ``lambert_derivative_eval``, ``sech_series`` and
``partial_sums`` are thin entry points over them.  The Lambert sieve
``_lambert_expansion`` is the only divisor-sum code: ``lambert_q_expansion``
and the multisection check (``identities.check_multisection``) read
sigma_s(m) from it.

q arguments are numbers (a table's nome values, and complex points in the
identity checks) or :class:`QSymbolic` nomes sign * exp(-r*pi) with r from
the closed set the published formulas generate; the symbolic form is what
keeps serialized coefficient tables exact.
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from operator import add, sub

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
        with ctx.workdps():
            r = mpf(self.mult)
            if self.root != 1:
                r *= mp.sqrt(self.root)
            v = mp.exp(-r * mp.pi)
            return v if self.sign > 0 else -v

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
    # certified |value - the terms_used-term sum| on the fixed-point path;
    # 0 on the loop path, whose rounding the caller's slop covers
    rounding_error: object = 0


def _num(x):
    if isinstance(x, Fraction):
        return mpf(x.numerator) / x.denominator
    return mp.mpmathify(x)


def _lambert_expansion(a: int, n_terms: int, order: int) -> tuple:
    """q^(m-1) coefficients of the n_terms-term Lambert sum over q, m = 1..order+1:
    c_m = sum of d^-a over the divisors d <= n_terms of m, as e_m / m^a."""
    top = order + 1
    powers = [k ** a for k in range(top + 1)]
    e = [0] * (top + 1)
    for d in range(1, min(n_terms, top) + 1):  # the sieve: d | m, m/d = k
        e[d::d] = map(add, e[d::d], powers[1:top // d + 1])
    return e[1:], powers[1:]


def _derivative_expansion(a: int, n_terms: int, order: int) -> tuple:
    """q^(m-1) coefficients m c_m of the derivative sum, m = 1..order+1."""
    nums, dens = _lambert_expansion(a, n_terms, order)
    return [m * e for m, e in enumerate(nums, 1)], dens


def _sech_expansion(a: int, n_terms: int, order: int) -> tuple:
    """q^m coefficients 2 a_m of the sech sum over q^(1/2), m = 0..order:
    a_m sums (-1)^(n+j) (2n-1)^-a over (2n-1)(2j+1) = 2m+1 with n <= n_terms,
    as a numerator over (2m+1)^a."""
    powers = [(2 * j + 1) ** a for j in range(order + 1)]
    signed = [-p if j & 1 else p for j, p in enumerate(powers)]
    e = [0] * (order + 1)
    for n in range(1, min(n_terms, order + 1) + 1):  # m = n-1 + (2n-1) j
        u = 2 * n - 1
        e[n - 1::u] = map(sub if n & 1 else add, e[n - 1::u],
                          signed[:len(range(n - 1, order + 1, u))])
    return [2 * v for v in e], powers


@dataclass(frozen=True)
class _Kind:
    """One basis series: the sum over n >= 1 of term(n, s, y, y*q), where y
    runs through first(q) * q^(n-1).  After N terms the tail is at most
    first(|q|) |q|^N weight(N) / den(|q|) whenever s <= max_s.

    The N-term sum is also first(q) * sum_m b_m q^m with exact b_m =
    nums[m] / dens[m] from expansion(-s, N, order), and |b_m| <=
    coef_bound(m) for s <= max_s."""

    name: str  # the public evaluator, for error messages
    max_s: int
    real_nome: bool  # q must lie in (0, 1), not just inside the unit disc
    first: Callable
    term: Callable
    weight: Callable
    den: Callable
    expansion: Callable
    coef_bound: Callable


# Lambert: |n^s| <= 1 and |1-q^n| >= 1-|q|, and the geometric tail supplies
# the other 1/(1-|q|).  Derivative: the same argument with s+1 <= 0; the
# factor (1+N) covers the n^(s+1) weights for s near -1.  Sech: y = q^(n-1/2)
# = e^(-(n-1/2)|log q|), so the term is (2n-1)^s sech((n-1/2)|log q|); terms
# alternate and decrease for s <= 0, so the tail is at most the first
# omitted term, and sech(x) <= 2e^(-x) gives the bound.  Coefficients: a
# sum of at most d(m) terms of size <= 1, and d(m) <= 2 sqrt(m).
_KINDS = {
    "lambert": _Kind(
        "lambert_eval", 0, False, lambda q: q,
        lambda n, s, y, yq: mp.power(n, s) * y / (1 - y),
        lambda n: 1, lambda qa: (1 - qa) ** 2,
        _lambert_expansion, lambda m: 2 * math.sqrt(m + 1)),
    "lambert_derivative": _Kind(
        "lambert_derivative_eval", -1, False, lambda q: mp.mpmathify(1),
        lambda n, s, y, yq: mp.power(n, s + 1) * y / (1 - yq) ** 2,
        lambda n: 1 + n, lambda qa: (1 - qa) ** 3,
        _derivative_expansion, lambda m: 2 * (m + 1) ** 1.5),
    "sech_series": _Kind(
        "sech_series", 0, True, mp.sqrt,
        lambda n, s, y, yq: (-1) ** n * mp.power(2 * n - 1, s) * 2 * y / (1 + y * y),
        lambda n: 2, lambda qa: 1 - qa * qa,
        _sech_expansion, lambda m: 4 * math.sqrt(2 * m + 1)),
}


def _nome(kind: _Kind, q, ctx: PrecisionContext):
    qv = q.value(ctx) if isinstance(q, QSymbolic) else _num(q)
    if kind.real_nome:
        if isinstance(qv, mp.mpc) or not 0 < qv < 1:
            raise DomainError(f"{kind.name} requires real q in (0, 1)")
    elif abs(qv) >= 1:
        raise DomainError(f"|q| must be < 1, got |q| = {mp.nstr(abs(qv), 8)}")
    return qv


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

    N is estimated from float logs and confirmed at working precision by
    bound(N) < target <= bound(N-1).  The bound can only rise before it
    falls (weight(n) = 1+n), so with bound(1) >= target the confirmed N is
    the first crossing."""
    cap = TERM_CAP
    lead = kind.first(qa) / kind.den(qa)
    n, bound = 1, _bound(kind, qa, 1, lead)
    if bound >= target:
        rate = max(-_ln(qa), 1e-300)
        c = _ln(lead) - _ln(target)
        est = 1.0
        for _ in range(8):  # the weight is 1, 2 or 1+n: a fixed point
            est = (c + math.log(kind.weight(min(max(est, 1.0), cap)))) / rate
        n = cap if est >= cap else max(2, math.floor(est) + 1)
        bound = _bound(kind, qa, n, lead)
        if bound < target:
            while n > 2 and (prev := _bound(kind, qa, n - 1, lead)) < target:
                n, bound = n - 1, prev
        else:
            while bound >= target:
                n += 1
                if n > cap:
                    raise ConvergenceError(
                        f"{kind.name}: tail bound did not reach {mp.nstr(target, 6)} "
                        f"within {cap} terms")
                bound = _bound(kind, qa, n, lead)
    return n, bound


def _sums(kind: _Kind, qv, s, n_terms: int):
    """The partial sums of the first 1..n_terms terms, in order."""
    acc = mpf(0)
    y = kind.first(qv)
    for n in range(1, n_terms + 1):
        yq = y * qv
        acc += kind.term(n, s, y, yq)
        yield acc
        y = yq


def _fixed(v, prec: int) -> tuple:
    """v * 2^prec as an int, and the ulps lost (0 or 1: the shift floors)."""
    sign, man, exp, _ = v._mpf_
    if sign:
        man = -man
    if exp + prec >= 0:
        return man << (exp + prec), 0
    return man >> -(exp + prec), 1


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


def _fixed_sum(kind: _Kind, qv, s: int, n_terms: int) -> tuple:
    """The n_terms-term sum for real q and integer s, and its certified
    absolute error, by rectangular splitting in fixed point.

    The sum is first(q) sum_{m<=M} b_m q^m with b_m = e_m / f_m exact
    (see _Kind).  With r ~ sqrt(M) powers X_j = q^j and Y = q^r it is
    evaluated as sum_i Y^i B_i, B_i = sum_{j<r} (e_{ir+j} X_j) // f_{ir+j}, by
    Horner in Y: r + M/r full-width multiplies, the rest is small-integer
    work (Paterson & Stockmeyer; Smith; the idiom of mpmath's
    exponential_series).  Every quantity is an int scaled by 2^prec, prec
    being the working precision plus 40 + log2 N guard bits.  Error, in
    units of 2^-prec, with x = |q| <= ax, beta >= |b_m| for m <= M, xi >=
    the error of each X_j and of Y (one floor each, from an input off by
    ex <= 1), and Y^i within i yhat^(i-1) xi of y^i:
      M + 1 floored divisions, each B_i off by <= sum_j (beta xi + 1);
      one floor per Horner step and per multiply by first(q);
      Y^i's error against |B_i| <= beta / (1 - ax): <= xi beta / ((1-ax)(1-yhat)^2);
      first(q), rounded to prec bits, off by ef + 1 against |sum| <= beta / (1 - ax);
      the terms past M, below half a unit (_order).
    The value is returned exact, with all prec bits; None when the order
    the precision needs exceeds 4N + 64."""
    prec = mp.prec + 40 + n_terms.bit_length()
    ax = math.nextafter(float(abs(qv)), 2.0)
    order = _order(kind, ax, prec) if ax < 1 else math.inf
    if order > 4 * n_terms + 64:
        return None  # a target far looser than the precision: the loop is cheaper
    nums, dens = kind.expansion(-s, n_terms, order)
    x, ex = _fixed(qv, prec)
    r = max(1, math.isqrt(order + 1))
    xpow = [1 << prec]
    for _ in range(r):
        xpow.append(xpow[-1] * x >> prec)
    y = xpow.pop()
    acc = 0
    for i in reversed(range(0, order + 1, r)):
        block = 0
        for xj, e, f in zip(xpow, nums[i:i + r], dens[i:i + r]):
            block += e * xj // f
        acc = (acc * y >> prec) + block
    with mp.workprec(prec):
        fq, ef = _fixed(kind.first(qv), prec)
    total = acc * fq >> prec

    beta = kind.coef_bound(order)
    xi = (1 + 2 * ex) / (1 - ax)
    yhat = ax ** r + xi * 2.0 ** -prec  # >= |y| and |Y|
    blocks = len(range(0, order + 1, r))
    ulps = ((order + 1) * (beta * xi + 1) + blocks + 3
            + xi * beta / ((1 - ax) * (1 - yhat) ** 2) + (ef + 1) * beta / (1 - ax))
    err = math.ceil(ulps * (1 + 2.0 ** -20)) + 1  # slack for the float sums
    return (mp.make_mpf(from_man_exp(total, -prec)),
            mp.make_mpf(from_man_exp(err, -prec)))


def partial_sums(kind: str, q, s, n_terms: int, ctx: PrecisionContext) -> list:
    """Partial sums over N = 1..n_terms of the series of a basis kind
    ("lambert", "lambert_derivative" or "sech_series"), at working precision."""
    if n_terms < 1:
        raise ValueError(f"n_terms must be >= 1, got {n_terms}")
    k = _KINDS[kind]
    with ctx.workdps():
        return list(_sums(k, _nome(k, q, ctx), s, n_terms))


def _evaluate(kind: str, q, s, target_abs_error, ctx: PrecisionContext) -> SeriesResult:
    k = _KINDS[kind]
    with ctx.workdps():
        qv = _nome(k, q, ctx)
        if not isinstance(s, int) or s > k.max_s:
            raise DomainError(
                f"{k.name} requires integer s <= {k.max_s}, got {s!r}")
        target = _num(target_abs_error)
        if target <= 0:
            raise ValueError("target_abs_error must be positive")
        n, bound = _terms_needed(k, abs(qv), target)
        fixed = not isinstance(qv, mp.mpc) and _fixed_sum(k, qv, s, n)
        if fixed:
            value, rounding = fixed
        else:  # complex q (the identity checks), or a loose target
            *_, value = _sums(k, qv, s, n)
            rounding = 0
        return SeriesResult(value, n, bound, ctx.working_digits, rounding)


def lambert_eval(q, s, target_abs_error, ctx: PrecisionContext) -> SeriesResult:
    """L_q(s) summed to the smallest N whose certified tail beats the target."""
    return _evaluate("lambert", q, s, target_abs_error, ctx)


def lambert_derivative_eval(q, s, target_abs_error, ctx: PrecisionContext) -> SeriesResult:
    """dL_q(s)/dq = sum_{n>=1} n^(s+1) q^(n-1)/(1-q^n)^2, certified; s <= -1."""
    return _evaluate("lambert_derivative", q, s, target_abs_error, ctx)


def sech_series(q, s, target_abs_error, ctx: PrecisionContext) -> SeriesResult:
    """S_q(s) = sum_{n>=0} (-1)^(n+1) (2n+1)^s sech((n+1/2)|log q|), 0 < q < 1,
    certified; s <= 0."""
    return _evaluate("sech_series", q, s, target_abs_error, ctx)


def lambert_q_expansion(s: int, order: int) -> list[Fraction]:
    """First `order` q-expansion coefficients of L_q(s), [sigma_s(1), ...],
    from the kernel's divisor sieve: sigma_s(m) = e_m, or e_m / m^|s| for s < 0."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    nums, dens = _lambert_expansion(abs(s), order, order - 1)
    return [Fraction(e, d if s < 0 else 1) for e, d in zip(nums, dens)]
