"""Exact arithmetic layer: Bernoulli numbers and the field Q(i, sqrt2, sqrt3,
sqrt5, sqrt7) in its Gaussian, quadratic and biquadratic corners."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

import gauss_reference
from fixed_point import exact_value, truncate_digits
from bernoulli_reference import bernoulli_weight
from zetaodd.core import (
    I,
    DomainError,
    PrecisionContext,
    Surd,
    bernoulli,
    bernoulli_weights,
    interval_digits,
    make_context,
    surd_trig,
)

F = Fraction


def eval_exact(x, ctx):
    """x at the context's working precision (fixed_point.exact_value)."""
    with ctx.workdps():
        return exact_value(x)


def gauss(a, b):
    """a + b*i"""
    return a + b * I


def quad(a, b, m):
    """a + b*sqrt(m)"""
    return a + b * Surd.sqrt(m)


# ---------------------------------------------------------------- bernoulli

# classic table, checked against the Akiyama-Tanigawa recurrence by hand
BERNOULLI_KNOWN = {
    0: F(1),
    1: F(-1, 2),
    2: F(1, 6),
    4: F(-1, 30),
    6: F(1, 42),
    8: F(-1, 30),
    10: F(5, 66),
    12: F(-691, 2730),
    14: F(7, 6),
    16: F(-3617, 510),
    18: F(43867, 798),
    20: F(-174611, 330),
    30: F(8615841276005, 14322),
}


def test_bernoulli_table():
    for n, want in BERNOULLI_KNOWN.items():
        assert bernoulli(n) == want


def test_bernoulli_odd_vanish():
    for n in range(3, 40, 2):
        assert bernoulli(n) == 0


def _bernoulli_classical(n_max: int) -> list:
    """B_0..B_n_max by the classical recurrence sum_{j<=m} C(m+1, j) B_j = 0,
    the reference for the tangent-number route of `core.bernoulli`."""
    b = [Fraction(1)]
    for m in range(1, n_max + 1):
        b.append(-sum(math.comb(m + 1, j) * bj for j, bj in enumerate(b)) / (m + 1))
    return b


def test_bernoulli_matches_the_classical_recurrence():
    assert [bernoulli(n) for n in range(401)] == _bernoulli_classical(400)


def test_bernoulli_sum_identity():
    # sum_{j=0}^{n-1} C(n,j) B_j = 0 for n >= 2
    from math import comb

    for n in range(2, 30):
        assert sum(comb(n, j) * bernoulli(j) for j in range(n)) == 0


# ---------------------------------------------------------- gaussian rationals


def test_gaussian_basic_ops():
    z = gauss(F(1), F(1))
    w = gauss(F(2), F(-3))
    assert z + w == gauss(F(3), F(-2))
    assert z * w == gauss(F(5), F(-1))
    assert (z - z).re == 0
    # scalar mixing both ways
    assert 2 * z == z * 2 == gauss(F(2), F(2))


def test_gaussian_pow_known():
    one_plus_i = gauss(F(1), F(1))
    # (1+i)^2 = 2i, (1+i)^4 = -4, (1+i)^8 = 16
    assert one_plus_i ** 2 == gauss(F(0), F(2))
    assert one_plus_i ** 4 == gauss(F(-4), F(0))
    assert one_plus_i ** 8 == gauss(F(16), F(0))


def test_gaussian_pow_negative():
    z = gauss(F(1), F(2))
    inv = z ** -1
    assert z * inv == gauss(F(1), F(0))
    assert z ** -3 == inv ** 3


@given(
    a=st.integers(-9, 9),
    b=st.integers(-9, 9),
    m=st.integers(0, 6),
    n=st.integers(0, 6),
)
def test_gaussian_pow_additivity(a, b, m, n):
    z = gauss(F(a), F(b))
    if z.re == 0 and z.im == 0:
        return
    assert z ** m * z ** n == z ** (m + n)


# ---------------------------------------------------------------- surds


def test_surd_construction_and_equality():
    s = quad(F(1, 2), F(3), 7)
    assert s[1] == F(1, 2) and s[7] == F(3) and s[3] == 0
    # rational surds compare equal across different m
    assert quad(F(2), 0, 3) == quad(F(2), 0, 15) == F(2)


def test_surd_arithmetic():
    s = quad(F(1), F(1), 3)          # 1 + sqrt3
    t = quad(F(2), F(-1), 3)         # 2 - sqrt3
    assert s + t == quad(F(3), F(0), 3)
    assert s * t == quad(F(-1), F(1), 3)   # 2 - 3 + sqrt3 = -1 + sqrt3
    assert (s * s)[1] == F(4) and (s * s)[3] == F(2)  # (1+sqrt3)^2 = 4 + 2 sqrt3


def test_surd_inverse():
    s = quad(F(2), F(1), 7)
    assert s * s.inverse() == quad(F(1), F(0), 7)
    with pytest.raises(ZeroDivisionError):
        quad(F(0), F(0), 3).inverse()


def test_surd_half_powers():
    # a factor sqrt2: (1 + sqrt3)*sqrt2 squared = 2*(4+2sqrt3)
    s = quad(F(1), F(1), 3) * Surd.sqrt(2)
    sq = s * s
    assert sq == quad(F(8), F(4), 3)


def test_two_pow_half():
    sqrt2 = Surd.sqrt(2)
    assert sqrt2 ** 4 == quad(F(4), 0, 3)                # 2^2
    assert sqrt2 ** 5 == F(4) * sqrt2                    # 4 sqrt2
    assert sqrt2 ** -1 == F(1, 2) * sqrt2                # 1/sqrt2
    with mp.workdps(45):
        for h2 in range(-6, 7):
            v = eval_exact(sqrt2 ** h2, make_context(30))
            assert abs(v - mp.mpf(2) ** (mp.mpf(h2) / 2)) < mp.mpf("1e-25")


@given(
    a=st.fractions(max_denominator=20),
    b=st.fractions(max_denominator=20),
    c=st.fractions(max_denominator=20),
    d=st.fractions(max_denominator=20),
)
@settings(max_examples=60)
def test_surd_mul_matches_float(a, b, c, d):
    s = quad(a, b, 15)
    t = quad(c, d, 15)
    ctx = make_context(30)
    with mp.workdps(45):
        lhs = eval_exact(s * t, ctx)
        rhs = eval_exact(s, ctx) * eval_exact(t, ctx)
        assert abs(lhs - rhs) < mp.mpf("1e-25") * (1 + abs(rhs))


def test_biquadratic_basic():
    # (1 + sqrt7)(1 + sqrt15) expanded lives in Q(sqrt7, sqrt15)
    u = quad(F(1), F(1), 7)
    v = quad(F(1), F(1), 15)
    w = u * v
    ctx = make_context(40)
    with mp.workdps(60):
        want = (1 + mp.sqrt(7)) * (1 + mp.sqrt(15))
        assert abs(eval_exact(w, ctx) - want) < mp.mpf("1e-30")
    assert w * w.inverse() == quad(F(1), 0, 7)


def test_biquadratic_inverse_random():
    vals = [F(1, 3), F(-2), F(5, 7), F(1)]
    z = Surd({1: vals[0], 7: vals[1], 15: vals[2], 105: vals[3]})
    one = z * z.inverse()
    assert one == 1 and eval_exact(one, make_context(30)) == 1


# ------------------------------------------------------------- exact trig

# multiples of the base angle atan(1/sqrt m); for m=7 odd multiples carry a
# sqrt2 factor because sqrt(m+1) is then irrational
def test_surd_trig_known_values():
    sqrt2 = Surd.sqrt(2)
    assert surd_trig(15, 1, "cos") == quad(0, F(1, 4), 15)
    assert surd_trig(15, 1, "sin") == quad(F(1, 4), 0, 15)
    assert surd_trig(15, 2, "cos") == quad(F(7, 8), 0, 15)
    assert surd_trig(7, 1, "cos") == quad(0, F(1, 4), 7) * sqrt2
    assert surd_trig(7, 1, "sin") == quad(F(1, 4), 0, 7) * sqrt2
    assert surd_trig(7, 2, "cos") == quad(F(3, 4), 0, 7)


def _trig_angle(m: int) -> float:
    # base angle: atan(1 / sqrt m), so cos = sqrt(m)/sqrt(m+1)
    import math

    return math.atan(1 / math.sqrt(m))


@pytest.mark.parametrize("m", [7, 15])
@pytest.mark.parametrize("mult", range(1, 9))
def test_surd_trig_matches_float(m, mult):
    import math

    ctx = make_context(30)
    th = _trig_angle(m)
    c = eval_exact(surd_trig(m, mult, "cos"), ctx)
    s = eval_exact(surd_trig(m, mult, "sin"), ctx)
    assert abs(float(c) - math.cos(mult * th)) < 1e-12
    assert abs(float(s) - math.sin(mult * th)) < 1e-12


@pytest.mark.parametrize("m", [7, 15])
@given(mult=st.integers(1, 12))
@settings(max_examples=24)
def test_surd_trig_pythagorean(m, mult):
    c = surd_trig(m, mult, "cos")
    s = surd_trig(m, mult, "sin")
    assert c * c + s * s == quad(F(1), 0, m)


@pytest.mark.parametrize("m", [3, 7, 15])
def test_surd_trig_is_the_surd_power(m):
    # every multiple the tables reach up to k = 100, a few far beyond, and
    # negative ones; the same coefficients, radicands and types
    for mult in [*range(-40, 410), 801, 1601, 1602]:
        for kind in ("cos", "sin"):
            got, want = surd_trig(m, mult, kind), gauss_reference.surd_trig(m, mult, kind)
            assert got._c == want._c, (m, mult, kind)
            assert [type(v) for v in got._c.values()] == [type(v) for v in want._c.values()]


@pytest.mark.parametrize("m", [7, 15])
def test_surd_trig_angle_addition(m):
    for a in range(1, 5):
        for b in range(1, 5):
            ca, sa = surd_trig(m, a, "cos"), surd_trig(m, a, "sin")
            cb, sb = surd_trig(m, b, "cos"), surd_trig(m, b, "sin")
            assert surd_trig(m, a + b, "cos") == ca * cb - sa * sb
            assert surd_trig(m, a + b, "sin") == sa * cb + ca * sb


RADICANDS = (1, 2, 3, 5, 6, 7, 15, 105, 210, -1, -2, -3, -7, -15)


@given(parts=st.dictionaries(st.sampled_from(RADICANDS),
                             st.fractions(max_denominator=9), max_size=4))
@settings(max_examples=80)
def test_inverse_anywhere_in_the_field(parts):
    z = Surd(parts)
    if z == 0:
        with pytest.raises(ZeroDivisionError):
            z.inverse()
        return
    assert z * z.inverse() == 1
    ctx = make_context(30)
    with mp.workdps(45):
        assert abs(eval_exact(1 / z, ctx) * eval_exact(z, ctx) - 1) < mp.mpf("1e-25")


def test_basis_products_and_parts():
    assert I * I == -1
    assert Surd.sqrt(-3) * Surd.sqrt(-3) == -3
    assert Surd.sqrt(6) * Surd.sqrt(10) == 2 * Surd.sqrt(15)
    assert Surd.sqrt(8) == 2 * Surd.sqrt(2) and Surd.sqrt(-4) == 2 * I
    z = 3 - 2 * I + Surd.sqrt(-7)
    assert z.re == 3 and z.im == -2 + Surd.sqrt(7)
    assert str(z) == "(3)+(-2)*i+(1)*sqrt(7)*i"
    assert str(Surd(F(5, 3))) == "5/3" and hash(Surd(F(5, 3))) == hash(F(5, 3))


def test_surd_str_writes_integers_of_any_size():
    # past the 4300 digits that str(int) takes by default
    n = 7 * 10**5000 + 1
    assert str(Surd(F(-n, 3))) == "-7" + "0" * 4999 + "1/3"
    assert str(n * I) == "(7" + "0" * 4999 + "1)*i"


def test_field_rejects_foreign_radicands():
    for bad in (11, 4, 0, -9):
        with pytest.raises(ValueError):
            Surd({bad: 1})
    with pytest.raises(AttributeError):
        I.x = 1


def test_trig_pi6_is_surd_trig_at_sqrt3():
    # acot(sqrt 3) = pi/6: the old 12-entry cos(n pi/6) table, for n in -30..29
    cos_pi6 = (1, Surd.sqrt(3) / 2, F(1, 2), 0, F(-1, 2), -Surd.sqrt(3) / 2,
               -1, -Surd.sqrt(3) / 2, F(-1, 2), 0, F(1, 2), Surd.sqrt(3) / 2)
    for n in range(-30, 30):
        assert surd_trig(3, n, "cos") == cos_pi6[n % 12]
        assert surd_trig(3, n, "sin") == cos_pi6[(3 - n) % 12]


def test_bernoulli_weight():
    # j = 1 of the zeta(3) block: B_2 B_2 / (2! 2!)
    nums, den = bernoulli_weights(4, 2)
    assert F(nums[1], den) == F(1, 144)
    nums, den = bernoulli_weights(6, 1)
    assert F(nums[0], den) == bernoulli(6) / 720


def test_bernoulli_weights_are_the_per_term_products():
    for total in range(4, 203, 2):
        nums, den = bernoulli_weights(total, total // 2 + 1)
        assert all(isinstance(n, int) for n in nums) and isinstance(den, int)
        assert [F(n, den) for n in nums] == [bernoulli_weight(j, total)
                                             for j in range(total // 2 + 1)]


# ------------------------------------------------------- contexts, truncation


def test_make_context_guard():
    ctx = make_context(50)
    assert isinstance(ctx, PrecisionContext)
    assert ctx.target_digits == 50
    # the guard covers the kernel's, the nomes' and the assembly's rounding,
    # none of which grows with the digits; a shortfall is a sized Ziv retry
    for digits in (1, 50, 400, 10**4, 10**5):
        assert make_context(digits).guard_digits == 20


def test_truncate_digits_basic():
    with mp.workdps(40):
        assert truncate_digits(mp.mpf("1.23456789"), 5) == "1.2345"
        assert truncate_digits(mp.mpf("-1.23456789"), 5) == "-1.2345"
        assert truncate_digits(mp.mpf("0.000123456"), 4) == "0.0001234"
        assert truncate_digits(mp.mpf(10) / 3, 6) == "3.33333"
        # scientific past the digits and below 10^-4, as pi^41 at 10 digits
        assert truncate_digits(mp.pi ** 41, 10) == "2.416266209e+20"
        assert truncate_digits(mp.mpf("0.0000123456"), 3) == "1.23e-5"
        assert truncate_digits(mp.mpf("-98765.4"), 1) == "-9e+4"


def test_truncate_digits_never_rounds_up():
    with mp.workdps(40):
        # 0.9999... must not become 1.000
        assert truncate_digits(mp.mpf("0.99999999"), 4) == "0.9999"
        assert truncate_digits(mp.mpf("1.99999999"), 4) == "1.999"


def test_truncate_digits_powers_of_ten():
    with mp.workdps(40):
        assert truncate_digits(mp.mpf(1), 3) == "1.00"
        assert truncate_digits(mp.mpf(100), 3) == "100"
        assert truncate_digits(mp.mpf("0.1"), 3) == "0.100"


def test_truncate_digits_zeta3():
    with mp.workdps(60):
        s = truncate_digits(mp.zeta(3), 30)
    assert s == "1.20205690315959428539973816151"


def _exact(x) -> Fraction:
    man, exp = x.man_exp
    return Fraction(man) * Fraction(2) ** exp


def test_truncate_digits_below_a_power_of_ten():
    # the binary mpf nearest 1/100 lies below it, so its digits are 9s
    with mp.workdps(40):
        x = mp.mpf(10) ** -2
        assert _exact(x) < Fraction(1, 100)
        assert truncate_digits(x, 10) == "0.009999999999"


@st.composite
def _near_boundaries(draw):
    """(mpf, digits): a power of ten or a digits-digit boundary
    m * 10^(e-digits+1), rounded to a precision near the digits, then moved
    by up to two ulps; either sign."""
    digits = draw(st.integers(1, 1000))
    e = draw(st.integers(-40, 40))
    if draw(st.booleans()):
        m = 10 ** (digits - 1)
    else:
        m = draw(st.integers(10 ** (digits - 1), 10 ** digits))
    target = m * Fraction(10) ** (e - digits + 1)
    prec = draw(st.integers(max(2, int(3.33 * digits) - 8), int(3.33 * digits) + 200))
    with mp.workprec(prec):
        x = mp.mpf(target.numerator) / target.denominator
        man, exp = x.man_exp
        x = mp.ldexp(mp.mpf(man + draw(st.integers(-2, 2))), exp)
    return (-x if draw(st.booleans()) else x), digits


@given(case=_near_boundaries())
@settings(max_examples=80, deadline=None)
def test_truncate_digits_is_the_exact_floor(case):
    x, digits = case
    if x == 0:
        return
    text = truncate_digits(x, digits)
    # text is ±P with exactly `digits` significant digits, and
    # P <= |x| < P + one unit in its last place
    body = text.lstrip("-")
    assert text.startswith("-") == (x < 0)
    mant = body.split("e")[0].replace(".", "").lstrip("0")
    assert len(mant) == digits
    p = Fraction(body)
    ulp = p / int(mant)
    assert p <= abs(_exact(x)) < p + ulp


@given(case=_near_boundaries(), err=st.integers(0, 2**40))
@settings(max_examples=80, deadline=None)
def test_interval_digits_are_both_ends_at_one_scale(case, err):
    # lo and hi are the floors of (t -+ err) 10^k 2^-prec, hi with exactly
    # `digits` digits: equal exactly when both ends truncate alike; num / den
    # is t 10^k 2^-prec, from which the engine sizes a retry
    x, digits = case
    _, man, exp, _ = x._mpf_
    t, prec = (man << exp + 64, 64) if exp >= 0 else (man << 64, 64 - exp)
    if t + err <= 0:
        return
    lo, hi, k, num, den = interval_digits(t, err, prec, digits)
    scale = Fraction(10) ** k / 2 ** prec
    assert Fraction(num, den) == t * scale
    assert 10 ** (digits - 1) <= hi < 10 ** digits
    assert hi == math.floor((t + err) * scale) and lo == math.floor((t - err) * scale)


def test_errors_are_distinct():
    assert issubclass(DomainError, ValueError)
    from zetaodd.core import ConvergenceError

    assert issubclass(ConvergenceError, RuntimeError)
    assert not issubclass(ConvergenceError, DomainError)
