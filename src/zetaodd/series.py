"""Lambert series and friends: one certified series kernel, symbolic nomes.

Every basis series of the published formulas is a sum over n >= 1 of an
algebraic term in q:

    lambert             L_q(s)   = sum n^s q^n / (1 - q^n)
    lambert_derivative  dL_q/dq  = sum n^(s+1) q^(n-1) / (1 - q^n)^2
    sech_series         S_q(s)   = sum (-1)^n (2n-1)^s 2 q^(n-1/2) / (1 + q^(2n-1))

where the sech term is sech((n-1/2)|log q|) written in powers of q, so no
hyperbolic function is evaluated.  Each kind is defined once, as its term
and its tail bound (``_KINDS``).  One loop finds the smallest N whose bound
beats the target, and one loop sums the N terms as prefix sums in order;
``lambert_eval``, ``lambert_derivative_eval``, ``sech_series`` and
``partial_sums`` are thin entry points over them.  Terms accept complex q
(the identity checks) and complex s.

q arguments are either raw numbers (identity checks at complex points) or
:class:`QSymbolic` nomes of the shape sign * exp(-r*pi) with r drawn from
the closed set the published formulas generate; the symbolic form is what
keeps serialized coefficient tables exact.
"""

from __future__ import annotations

import os
import re
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf

from .core import ConvergenceError, DomainError, PrecisionContext

DEFAULT_TERM_CAP = 10**6
TERM_CAP_ENV = "ZETA_ODD_MAX_TERMS"

# decay rates r = mult * sqrt(root) that the published tables and their
# negative-q rewrites can produce
_ALLOWED_RATIONAL_MULT = frozenset({1, 2, 3, 4, 5, 6, 10, 12, 20})
_ALLOWED_ROOT_MULT = frozenset({1, 2, 4})
_QSYM_RE = re.compile(
    r"^(?P<neg>-)?exp\(-(?:(?P<mult>\d+)\*)?(?:sqrt\((?P<root>\d+)\)\*)?pi\)$"
)


def term_cap() -> int:
    """Series term cap; override with the ZETA_ODD_MAX_TERMS env var."""
    raw = os.environ.get(TERM_CAP_ENV)
    if raw is None:
        return DEFAULT_TERM_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"{TERM_CAP_ENV} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise ValueError(f"{TERM_CAP_ENV} must be >= 1, got {cap}")
    return cap


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


def _num(x):
    if isinstance(x, Fraction):
        return mpf(x.numerator) / x.denominator
    return mp.mpmathify(x)


def _to_mp(q, ctx: PrecisionContext):
    if isinstance(q, QSymbolic):
        return q.value(ctx)
    return _num(q)


def _pow_ns(n: int, s):
    """n**s, principal branch for complex s (log n real since n >= 1)."""
    if isinstance(s, int):
        return mp.power(n, s)
    return mp.exp(s * mp.log(mpf(n)))


@dataclass(frozen=True)
class _Kind:
    """One basis series: the sum over n >= 1 of term(n, s, y, y*q), where y
    runs through first(q) * q^(n-1).  After N terms the tail is at most
    first(|q|) |q|^N weight(N) / den(|q|) whenever Re(s) <= max_re_s."""

    name: str  # the public evaluator, for error messages
    max_re_s: int
    real_nome: bool  # q must lie in (0, 1), not just inside the unit disc
    first: Callable
    term: Callable
    weight: Callable
    den: Callable


# Lambert: |n^s| <= 1 and |1-q^n| >= 1-|q|, and the geometric tail supplies
# the other 1/(1-|q|).  Derivative: the same argument with Re(s+1) <= 0; the
# factor (1+N) covers the n^(s+1) weights for s near -1.  Sech: y = q^(n-1/2)
# = e^(-(n-1/2)|log q|), so the term is (2n-1)^s sech((n-1/2)|log q|); terms
# alternate and decrease for s <= 0, so the tail is at most the first
# omitted term, and sech(x) <= 2e^(-x) gives the bound.
_KINDS = {
    "lambert": _Kind(
        "lambert_eval", 0, False, lambda q: q,
        lambda n, s, y, yq: _pow_ns(n, s) * y / (1 - y),
        lambda n: 1, lambda qa: (1 - qa) ** 2),
    "lambert_derivative": _Kind(
        "lambert_derivative_eval", -1, False, lambda q: mp.mpmathify(1),
        lambda n, s, y, yq: _pow_ns(n, s + 1) * y / (1 - yq) ** 2,
        lambda n: 1 + n, lambda qa: (1 - qa) ** 3),
    "sech_series": _Kind(
        "sech_series", 0, True, mp.sqrt,
        lambda n, s, y, yq: (-1) ** n * _pow_ns(2 * n - 1, s) * 2 * y / (1 + y * y),
        lambda n: 2, lambda qa: 1 - qa * qa),
}


def _nome(kind: _Kind, q, ctx: PrecisionContext):
    qv = _to_mp(q, ctx)
    if kind.real_nome:
        if isinstance(qv, mp.mpc) or not 0 < qv < 1:
            raise DomainError(f"{kind.name} requires real q in (0, 1)")
    elif abs(qv) >= 1:
        raise DomainError(f"|q| must be < 1, got |q| = {mp.nstr(abs(qv), 8)}")
    return qv


def _terms_needed(kind: _Kind, qa, target) -> tuple:
    """Smallest N whose tail bound is below target, and that bound."""
    den = kind.den(qa)
    cap = term_cap()
    qpow = kind.first(qa) * qa  # first(|q|) |q|^N
    n = 1
    while (bound := qpow * kind.weight(n) / den) >= target:
        n += 1
        if n > cap:
            raise ConvergenceError(
                f"{kind.name}: tail bound did not reach {mp.nstr(target, 6)} "
                f"within {cap} terms (set {TERM_CAP_ENV} to raise the cap)")
        qpow *= qa
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
        if mp.re(_num(s)) > k.max_re_s:
            raise DomainError(f"{k.name} requires Re(s) <= {k.max_re_s}")
        target = _num(target_abs_error)
        if target <= 0:
            raise ValueError("target_abs_error must be positive")
        n, bound = _terms_needed(k, abs(qv), target)
        for value in _sums(k, qv, s, n):
            pass  # only the full sum is wanted
        return SeriesResult(value, n, bound, ctx.working_digits)


def lambert_partial_sum(q, s, n_terms: int, ctx: PrecisionContext):
    """Partial sum sum_{n=1..N} n^s q^n/(1-q^n) at working precision."""
    return partial_sums("lambert", q, s, n_terms, ctx)[-1]


def tail_bound(q_abs, s, n_terms: int, ctx: PrecisionContext | None = None) -> mpf:
    """|q|^(N+1)/(1-|q|)^2, the Lambert tail bound past N terms for Re(s) <= 0."""
    if mp.re(_num(s)) > 0:
        raise DomainError("tail_bound is unsupported for Re(s) > 0; pass explicit N")
    if n_terms < 1:
        raise ValueError(f"n_terms must be >= 1, got {n_terms}")
    k = _KINDS["lambert"]
    with mp.workdps(ctx.working_digits if ctx else mp.dps):
        qa = abs(_to_mp(q_abs, ctx) if ctx else _num(q_abs))
        if qa >= 1:
            raise DomainError(f"need |q| < 1, got {mp.nstr(qa, 8)}")
        return k.first(qa) * qa ** n_terms * k.weight(n_terms) / k.den(qa)


def lambert_eval(q, s, target_abs_error, ctx: PrecisionContext) -> SeriesResult:
    """L_q(s) summed to the smallest N whose certified tail beats the target."""
    return _evaluate("lambert", q, s, target_abs_error, ctx)


def lambert_derivative_eval(q, s, target_abs_error, ctx: PrecisionContext) -> SeriesResult:
    """dL_q(s)/dq = sum_{n>=1} n^(s+1) q^(n-1)/(1-q^n)^2, certified; Re(s) <= -1."""
    return _evaluate("lambert_derivative", q, s, target_abs_error, ctx)


def sech_series(q, s, target_abs_error, ctx: PrecisionContext) -> SeriesResult:
    """S_q(s) = sum_{n>=0} (-1)^(n+1) (2n+1)^s sech((n+1/2)|log q|), 0 < q < 1,
    certified; Re(s) <= 0."""
    return _evaluate("sech_series", q, s, target_abs_error, ctx)


def divisor_sigma(s: int, n: int) -> Fraction:
    """Exact sigma_s(n) = sum of s-th powers of divisors of n."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    total = Fraction(0)
    for d in range(1, int(n**0.5) + 1):
        if n % d == 0:
            total += Fraction(d) ** s
            e = n // d
            if e != d:
                total += Fraction(e) ** s
    return total


def lambert_q_expansion(s: int, order: int) -> list[Fraction]:
    """First `order` q-expansion coefficients of L_q(s): [sigma_s(1), ...]."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    return [divisor_sigma(s, m) for m in range(1, order + 1)]
