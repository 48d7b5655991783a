"""Exact coefficient tables for every formula family.

The k=1..6/7 rows below are frozen reference data: each list was verified
two independent ways before freezing -- symbolically (the generator's
Bernoulli/Gaussian-sum arithmetic is exact) and numerically (assembling the
table reproduces the zeta/pi/log oracle to the full working precision; see
test_engine / test_acceptance for those assertions).  A regression here
means the generator's closed form changed, which must never happen silently.
"""

import json
import math
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

import gauss_reference
from fixed_point import assembled, exact_value
from zetaodd import coefficients
from bernoulli_reference import bernoulli_sum
from zetaodd.coefficients import (
    METHODS,
    PI_METHODS,
    ZETA_4KM1_METHODS,
    ZETA_4KP1_METHODS,
    BasisTerm,
    CoefficientTable,
    assemble_detailed,
    coeffs_log,
    coeffs_pi,
    format_coefficient,
    method_table,
    negative_q_rewrite,
    parse_coefficient,
    resolve_method,
)
from zetaodd.coefficients import (
    _bernoulli_sum,
    _gauss_diff,
    _gauss_power,
    _gauss_sum,
    _h_diff,
    _p2_raw,
    _p3_raw,
    _p5_raw,
    _real_bernoulli_sum,
)
from zetaodd.core import I, DomainError, Surd, make_context
from zetaodd.oracles import oracle_log, oracle_pi, oracle_zeta
from zetaodd.series import QSymbolic

F = Fraction


def sq(num, den, m):
    """(num/den) * sqrt(m)"""
    return F(num, den) * Surd.sqrt(m)


def osq(num, den, m):
    """num / (den * sqrt(m))"""
    return F(num, den * m) * Surd.sqrt(m)


def _bases(table):
    return [str(b) for b, _ in table.entries]


def _coeffs(table):
    return [c for _, c in table.entries]


# ---------------------------------------------------------------------------
# zeta(4k+1), prime-3 family: bases pi, L(-e^-3pi), L(e^-4pi), L(e^-6pi)
# ---------------------------------------------------------------------------

P3_GOLDEN = {
    1: [F(682, 201285), F(-296, 355), F(-488, 355), F(74, 355)],
    2: [F(5048, 150155775), F(2272, 1605), F(-5624, 1605), F(142, 1605)],
    3: [F(21462388, 62314387009875), F(-1056896, 2114515),
        F(-3188648, 2114515), F(16514, 2114515)],
    4: [F(12292037116, 3476479836810605625), F(66978304, 95520195),
        F(-258280328, 95520195), F(261634, 95520195)],
    5: [F(203055579851796692, 5594631411704844933908859375),
        F(-4297066496, 12606788275), F(-20920706408, 12606788275),
        F(4196354, 12606788275)],
    6: [F(91295430825021344, 245007095801727658882798940625),
        F(274844360704, 709832878755), F(-1694577218888, 709832878755),
        F(67100674, 709832878755)],
}


@pytest.mark.parametrize("k", sorted(P3_GOLDEN))
def test_p3_table(k):
    t = method_table("zeta", "p3", 4 * k + 1)
    s = -(4 * k + 1)
    assert t.constant == f"zeta({4 * k + 1})"
    assert _bases(t) == [
        f"pi^{4 * k + 1}",
        f"lambert(-exp(-3*pi), s={s})",
        f"lambert(exp(-4*pi), s={s})",
        f"lambert(exp(-6*pi), s={s})",
    ]
    assert _coeffs(t) == P3_GOLDEN[k]


# ---------------------------------------------------------------------------
# zeta(4k+1), prime-5 family: bases pi, L(e^-4pi), L(-e^-5pi), L(e^-10pi)
# ---------------------------------------------------------------------------

P5_GOLDEN = {
    1: [F(694, 204813), F(-6280, 3251), F(-296, 3251), F(74, 3251)],
    2: [F(6118928, 182032863705), F(-3908360, 1945731), F(15904, 1945731),
        F(994, 1945731)],
    3: [F(4131911428, 11996181573401025), F(-2441359240, 1221199811),
        F(-1056896, 1221199811), F(16514, 1221199811)],
    4: [F(687182059214356, 194362869568557017703375),
        F(-1525878246920, 762905503491), F(66978304, 762905503491),
        F(261634, 762905503491)],
    5: [F(2560199089127112465412, 70537137132904905751999929343125),
        F(-953674355019400, 476839323944771), F(-4297066496, 476839323944771),
        F(4196354, 476839323944771)],
    6: [F(114987316346581920808496, 308598430935986470640664020644801875),
        F(-596046447625404680, 298023086356971651),
        F(274844360704, 298023086356971651),
        F(67100674, 298023086356971651)],
}


@pytest.mark.parametrize("k", sorted(P5_GOLDEN))
def test_p5_table(k):
    t = method_table("zeta", "p5", 4 * k + 1)
    s = -(4 * k + 1)
    assert _bases(t) == [
        f"pi^{4 * k + 1}",
        f"lambert(exp(-4*pi), s={s})",
        f"lambert(-exp(-5*pi), s={s})",
        f"lambert(exp(-10*pi), s={s})",
    ]
    assert _coeffs(t) == P5_GOLDEN[k]


# ---------------------------------------------------------------------------
# zeta(4k+1), sqrt7 family
# ---------------------------------------------------------------------------

ROOT7_P_GOLDEN = {
    1: [osq(5, 558, 7), F(64, 31), F(-130, 31), F(4, 31)],
    2: [osq(6451, 72571950, 7), F(1088, 543), F(-8713, 2172), F(17, 2172)],
    3: [osq(684521, 751529653875, 7), F(16480, 8239), F(-4219139, 1054592),
        F(515, 1054592)],
    4: [osq(7556214529, 808189287857201250, 7), F(261248, 130623),
        F(-267518969, 66878976), F(2041, 66878976)],
    5: [osq(11042228011, 115045098786113871375, 7), F(4191904, 2095951),
        F(-274720686005, 68680122368), F(130997, 68680122368)],
    6: [osq(93518263081637, 94909028455546692340078125, 7),
        F(67120832, 33560415), F(-35190647292091, 8797661429760),
        F(1048763, 8797661429760)],
}


@pytest.mark.parametrize("k", sorted(ROOT7_P_GOLDEN))
def test_root7_p_table(k):
    t = method_table("zeta", "root7_p", 4 * k + 1)
    s = -(4 * k + 1)
    assert _bases(t) == [
        f"pi^{4 * k + 1}",
        f"lambert(exp(-sqrt(7)*pi), s={s})",
        f"lambert(exp(-2*sqrt(7)*pi), s={s})",
        f"lambert(exp(-4*sqrt(7)*pi), s={s})",
    ]
    assert _coeffs(t) == ROOT7_P_GOLDEN[k]


# ---------------------------------------------------------------------------
# zeta(4k+1), sqrt15 family (has the extra sech column)
# ---------------------------------------------------------------------------

ROOT15_P_GOLDEN = {
    1: [osq(5, 378, 15), osq(7, 1, 15), F(33, 16), F(-1073, 256), F(33, 256)],
    2: [osq(19, 145530, 15), osq(17, 7, 15), F(513, 256), F(-262913, 65536),
        F(513, 65536)],
    3: [osq(5623, 4214184975, 15), osq(7, 33, 15), F(8193, 4096),
        F(-67121153, 16777216), F(8193, 16777216)],
    4: [osq(152161, 11136941565750, 15), osq(-223, 119, 15), F(131073, 65536),
        F(-17180065793, 4294967296), F(131073, 4294967296)],
    5: [osq(2100413011, 15039186678619228125, 15), osq(-1673, 305, 15),
        F(2097153, 1048576), F(-4398049656833, 1099511627776),
        F(2097153, 1099511627776)],
    6: [osq(368670553, 266533834992158608875, 15), osq(-8143, 231, 15),
        F(33554433, 16777216), F(-1125899957174273, 281474976710656),
        F(33554433, 281474976710656)],
    7: [osq(276635171660523838, 18471447539635216765490460984375, 15),
        osq(30233, 3263, 15), F(536870913, 268435456),
        F(-288230376957018113, 72057594037927936),
        F(536870913, 72057594037927936)],
}


@pytest.mark.parametrize("k", sorted(ROOT15_P_GOLDEN))
def test_root15_p_table(k):
    t = method_table("zeta", "root15_p", 4 * k + 1)
    s = -(4 * k + 1)
    assert _bases(t) == [
        f"pi^{4 * k + 1}",
        f"sech_series(exp(-sqrt(15)*pi), s={s})",
        f"lambert(exp(-sqrt(15)*pi), s={s})",
        f"lambert(exp(-2*sqrt(15)*pi), s={s})",
        f"lambert(exp(-4*sqrt(15)*pi), s={s})",
    ]
    assert _coeffs(t) == ROOT15_P_GOLDEN[k]


# ---------------------------------------------------------------------------
# zeta(4k-1), sqrt7 family
# ---------------------------------------------------------------------------

ROOT7_M_GOLDEN = {
    1: [sq(29, 1980, 7), F(24, 11), F(-52, 11), F(6, 11)],
    2: [osq(851, 963900, 7), F(240, 119), F(-1927, 476), F(15, 476)],
    3: [osq(98983, 11006745750, 7), F(3984, 1991), F(-510073, 127424),
        F(249, 127424)],
    4: [osq(120891949, 1310075958262500, 7), F(65712, 32855),
        F(-26916047, 6728704), F(4107, 33643520)],
    5: [osq(304799492533, 321754984333646613750, 7), F(1050576, 525287),
        F(-34425307261, 8606302208), F(65661, 8606302208)],
    6: [osq(3069248396337203, 315604617827322095616093750, 7),
        F(16776432, 8388215), F(-1759136500931, 439784046592),
        F(1048527, 2198920232960)],
}


@pytest.mark.parametrize("k", sorted(ROOT7_M_GOLDEN))
def test_root7_m_table(k):
    t = method_table("zeta", "root7", 4 * k - 1)
    s = -(4 * k - 1)
    assert t.constant == f"zeta({4 * k - 1})"
    assert _bases(t) == [
        f"pi^{4 * k - 1}",
        f"lambert(exp(-sqrt(7)*pi), s={s})",
        f"lambert(exp(-2*sqrt(7)*pi), s={s})",
        f"lambert(exp(-4*sqrt(7)*pi), s={s})",
    ]
    assert _coeffs(t) == ROOT7_M_GOLDEN[k]


# ---------------------------------------------------------------------------
# zeta(4k-1), sqrt15 family
# ---------------------------------------------------------------------------

ROOT15_M_GOLDEN = {
    1: [sq(1, 100, 15), osq(-1, 1, 15), F(9, 4), F(-77, 16), F(9, 16)],
    2: [osq(73, 56700, 15), osq(-11, 3, 15), F(129, 64), F(-16577, 4096),
        F(129, 4096)],
    3: [osq(82889, 6385128750, 15), osq(-61, 5, 15), F(2049, 1024),
        F(-4197377, 1048576), F(2049, 1048576)],
    # k=4 pi/sech columns recomputed: the values sometimes quoted for this
    # row (3103/(17239847625 sqrt15), -11/(3 sqrt15)) fail to reproduce
    # zeta(15) by 0.336; the row below hits the oracle to ~1e-81
    4: [sq(78017, 8466680722500, 15), sq(251, 195, 15), F(32769, 16384),
        F(-1073790977, 268435456), F(32769, 268435456)],
    5: [osq(269130227, 192947512626618750, 15), osq(781, 171, 15),
        F(524289, 262144), F(-274878693377, 68719476736),
        F(524289, 68719476736)],
    6: [osq(247753871371, 17365083188883060881250, 15), osq(1451, 989, 15),
        F(8388609, 4194304), F(-70368756760577, 17592186044416),
        F(8388609, 17592186044416)],
}


@pytest.mark.parametrize("k", sorted(ROOT15_M_GOLDEN))
def test_root15_m_table(k):
    t = method_table("zeta", "root15", 4 * k - 1)
    s = -(4 * k - 1)
    assert _bases(t) == [
        f"pi^{4 * k - 1}",
        f"sech_series(exp(-sqrt(15)*pi), s={s})",
        f"lambert(exp(-sqrt(15)*pi), s={s})",
        f"lambert(exp(-2*sqrt(15)*pi), s={s})",
        f"lambert(exp(-4*sqrt(15)*pi), s={s})",
    ]
    assert _coeffs(t) == ROOT15_M_GOLDEN[k]


# ---------------------------------------------------------------------------
# the e^{-2pi} corollaries and the sqrt3 family
# ---------------------------------------------------------------------------


def test_corollary_table():
    t = method_table("zeta", "corollary", 3)
    assert _bases(t) == ["pi^3", "lambert(exp(-2*pi), s=-3)"]
    assert _coeffs(t) == [F(7, 180), F(-2)]
    # corollary2 is an accepted alias
    assert method_table("zeta", "corollary2", 3) == t


def test_corollary3_table():
    t = method_table("zeta", "corollary3", 5)
    assert _bases(t) == [
        "pi^5",
        "lambert_derivative(exp(-2*pi), s=-5)",
        "lambert(exp(-2*pi), s=-5)",
    ]
    assert _coeffs(t) == [F(13, 3780), F(-2), F(-2)]
    # the derivative column scales as -2/k
    t3 = method_table("zeta", "corollary3", 13)
    assert dict(zip(_bases(t3), _coeffs(t3)))[
        "lambert_derivative(exp(-2*pi), s=-13)"
    ] == F(-2, 3)


def test_root3_m_table():
    t = method_table("zeta", "root3", 3)
    assert _bases(t) == [
        "pi^3",
        "lambert(exp(-sqrt(3)*pi), s=-3)",
        "lambert(exp(-2*sqrt(3)*pi), s=-3)",
        "lambert(exp(-4*sqrt(3)*pi), s=-3)",
    ]
    assert _coeffs(t) == [sq(1, 45, 3), F(2), F(-9, 2), F(1, 2)]


def test_root3_p_table():
    t = method_table("zeta", "root3_p", 5)
    assert _bases(t) == ["pi^5", "lambert(-exp(-sqrt(3)*pi), s=-5)"]
    assert _coeffs(t) == [sq(11, 5670, 3), F(-2)]


def test_root3_p_degenerate_k():
    for k in (3, 6, 9):
        with pytest.raises(DomainError):
            method_table("zeta", "root3_p", 4 * k + 1)
    # neighbours stay fine
    method_table("zeta", "root3_p", 9)
    method_table("zeta", "root3_p", 17)


def test_auto_takes_root7_p_where_root3_p_degenerates():
    for s in range(3, 202, 2):
        k = (s + 1) // 4 if s % 4 == 3 else (s - 1) // 4
        want = ("root15" if s % 4 == 3
                else "root3_p" if k % 3 else "root7_p")
        assert resolve_method("zeta", "auto", s) == (want, k)
        method_table("zeta", "auto", s)  # no DomainError


def test_root3_m_sign_regression():
    # the zeta(3) value pins the sign of the first Lambert coefficient:
    # flipping it moves the assembled value by ~4 L(e^-sqrt3 pi) ~ 1.7e-2
    ctx = make_context(50)
    t = method_table("zeta", "root3", 3)
    val, err = assembled(t, ctx)
    with ctx.workdps():
        assert abs(val - oracle_zeta(3, ctx)) < mpf("1e-48")


# ---------------------------------------------------------------------------
# the Gaussian-integer weighted Bernoulli sums behind p2/p3/p5 are real
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("method, raw", [("p2", _p2_raw), ("p3", _p3_raw), ("p5", _p5_raw)])
def test_gaussian_bernoulli_sum_is_real(method, raw):
    for k in [*range(1, 9), 100, 200]:
        # raises AssertionError when the imaginary part does not cancel
        assert _real_bernoulli_sum(method, k, raw(k)[-1]) != 0


def test_gaussian_bernoulli_known_value():
    # hand-checkable smallest case: p2, k=1
    assert _real_bernoulli_sum("p2", 1, _p2_raw(1)[-1]) == F(1, 9408)


_RATIONALS = st.fractions(max_denominator=10**6).filter(lambda x: abs(x) < 10**9)
_SURDS = st.dictionaries(st.sampled_from([1, -1, 2, 3, -3, 7, 15, -15, 105]), _RATIONALS,
                         min_size=1, max_size=4).map(Surd)
_COEFFS = st.one_of(st.integers(-10**9, 10**9), _RATIONALS, _SURDS)


@pytest.mark.parametrize("total", range(4, 203, 2))
@given(data=st.data())
@settings(max_examples=4, deadline=None)
def test_bernoulli_sum_matches_the_per_term_loop(total, data):
    # every count of terms a block may have, with ints, Fractions and Surds
    # with i and sqrt parts for c_j, alone or mixed
    c = data.draw(st.lists(_COEFFS, min_size=1, max_size=total // 2 + 1))
    got, want = _bernoulli_sum(c, total), bernoulli_sum(c, total)
    assert got == want
    assert type(got) is type(want)
    if isinstance(got, Fraction):
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


def test_one_plus_i_power_is_the_surd_power():
    # the reference's closed form, behind its _h_diff
    for m in range(-1, 402):
        assert gauss_reference._one_plus_i_power(m) == (1 + I) ** m, m


# ---------------------------------------------------------------------------
# the multisection sums from Gaussian integers equal the Surd powers
# ---------------------------------------------------------------------------


def test_gauss_power_is_the_surd_power():
    # (re + im sqrt(-d))^m; d = 1 is the Gaussian integers
    for d in (1, 3, 7, 15):
        root = Surd.sqrt(-d)
        for re_, im_ in [(1, 1), (1, 2), (1, -2), (0, 1), (3, 0), (d - 1, 2)]:
            for m in range(0, 70):
                a, b = _gauss_power(re_, im_, m, d)
                assert Surd({1: a, -d: b}) == (re_ + im_ * root) ** m, (d, re_, im_, m)


@pytest.mark.parametrize("width", [1, 2])
def test_gauss_sum_is_the_surd_power_sum(width):
    for m in range(-40, 1602):
        assert _gauss_sum(width, m) == gauss_reference._gauss_sum(width, m), m


def test_multisection_parts_at_m_minus_one():
    # j = 0 reaches m = 2j - 1 = -1 in both parts
    assert _gauss_sum(1, -1) == F(2)
    assert _gauss_sum(2, -1) == F(12, 5)
    for k in (1, 2, 7):
        assert _h_diff(k, 0) == gauss_reference._h_diff(k, 0)
        for p in (3, 5):
            assert _gauss_diff(p, k, 0) == gauss_reference._gauss_diff(p, k, 0)


@pytest.mark.parametrize("ks", [range(1, 31), range(31, 61), [400]])
def test_multisection_parts_are_the_surd_powers(ks):
    for k in ks:
        for j in range(k + 1):
            assert _h_diff(k, j) == gauss_reference._h_diff(k, j), (k, j)
            for p in (3, 5):
                got = _gauss_diff(p, k, j)
                assert isinstance(got, Fraction)
                assert got == gauss_reference._gauss_diff(p, k, j), (p, k, j)


def test_multisection_tables_raise_no_surd_power(monkeypatch):
    calls = []
    power = Surd.__pow__

    def spy(self, n):
        calls.append(n)
        return power(self, n)

    monkeypatch.setattr(Surd, "__pow__", spy)
    for method in ("p2", "p3", "p5"):
        for k in range(1, 51):
            METHODS["zeta"][method][2](k)
    assert calls == []
    assert (1 + I) ** 2 == 2 * I and calls == [2]  # the spy sees a Surd power


def test_debug_payloads():
    assert method_table("zeta", "p2", 5).to_dict()["debug"]["a_k"] == "35"
    d3 = method_table("zeta", "p3", 5).to_dict()["debug"]
    assert d3["a_k"] == "3904/37" and d3["b_k"] == "355/37"
    d5 = method_table("zeta", "p5", 5).to_dict()["debug"]
    assert d5["a_k"] == "37/50240" and d5["b_k"] == "3251/50240"


def test_tables_are_built_without_text(monkeypatch):
    # the generators keep exact values; to_dict is where a table becomes text
    def refuse(self):
        raise AssertionError("a table generator formatted a number")

    monkeypatch.setattr(Fraction, "__str__", refuse)
    monkeypatch.setattr(Surd, "__str__", refuse)
    for methods in METHODS.values():
        for _, _, generate in methods.values():
            for k in range(1, 9):
                try:
                    generate(k)
                except DomainError:
                    pass


@pytest.mark.parametrize("method, name", [("p2", "b_jk"), ("p3", "c_jk"), ("p5", "c_jk")])
def test_multisection_c_jk_have_real_and_imaginary_parts(method, name):
    # so str(Surd) writes each one in the Gaussian form "(re)+(im)*i"
    for k in range(1, 41):
        for z in method_table("zeta", method, 4 * k + 1).debug[name]:
            assert z.re != 0 and z.im != 0, (k, z)


def test_table_text_of_any_size():
    # p5 at k = 400 holds integers past Python's 4300-digit int-to-str limit
    text = method_table("zeta", "p5", 1601).to_json()
    assert max(map(len, re.findall(r"\d+", text))) > 4300
    assert CoefficientTable.from_dict(json.loads(text)).to_json() == text


# ---------------------------------------------------------------------------
# pi and log tables
# ---------------------------------------------------------------------------

EXAMPLE62_GOLDEN = {
    1: ("pi^1", [F(72), F(-96), F(24)]),
    2: ("pi^5", [F(7056), F(-6993), F(-63)]),
    3: ("pi^9", [F(28226880, 41), F(-112920885, 164), F(13365, 164)]),
}

EXAMPLE63_GOLDEN = {
    1: ("pi^3", [F(720), F(-900), F(180)]),
    2: ("pi^7", [F(907200, 13), F(-70875), F(14175, 13)]),
    3: ("pi^11", [F(27243216000, 4009), F(-218158565625, 32072),
                  F(212837625, 32072)]),
}


@pytest.mark.parametrize("k", [1, 2, 3])
def test_example62_table(k):
    constant, coeffs = EXAMPLE62_GOLDEN[k]
    t = coeffs_pi("example62", k)
    s = -(4 * k - 3)
    assert t.constant == constant
    assert _bases(t) == [
        f"lambert(exp(-pi), s={s})",
        f"lambert(exp(-2*pi), s={s})",
        f"lambert(exp(-4*pi), s={s})",
    ]
    assert _coeffs(t) == coeffs


@pytest.mark.parametrize("k", [1, 2, 3])
def test_example63_table(k):
    constant, coeffs = EXAMPLE63_GOLDEN[k]
    t = coeffs_pi("example63", k)
    s = -(4 * k - 1)
    assert t.constant == constant
    assert _bases(t) == [
        f"lambert(exp(-pi), s={s})",
        f"lambert(exp(-2*pi), s={s})",
        f"lambert(exp(-4*pi), s={s})",
    ]
    assert _coeffs(t) == coeffs


def test_prop_pi5_table():
    t = coeffs_pi("prop_pi5", 1)
    assert t.constant == "pi^5"
    assert _bases(t) == [
        "lambert(-exp(-3*pi), s=-5)",
        "lambert(exp(-4*pi), s=-5)",
        "lambert(-exp(-5*pi), s=-5)",
        "lambert(exp(-6*pi), s=-5)",
        "lambert(exp(-10*pi), s=-5)",
    ]
    assert _coeffs(t) == [F(-3686634), F(2463048), F(402570),
                          F(1843317, 2), F(-201285, 2)]


def test_prop_pi3_table():
    t = coeffs_pi("prop_pi3", 1)
    assert t.constant == "pi^3"
    by_basis = dict(zip(_bases(t), _coeffs(t)))
    assert by_basis["lambert(exp(-2*pi), s=-3)"] == F(7260) + F(19140, 7) * Surd.sqrt(7)


@pytest.mark.parametrize("which", sorted(PI_METHODS))
def test_pi_tables_assemble_to_pi_power(which):
    t = coeffs_pi(which, 1)
    power = int(t.constant.split("^")[1])
    ctx = make_context(50)
    val, err = assembled(t, ctx)
    with ctx.workdps():
        want = oracle_pi(ctx) ** power
        assert abs(val - want) < mpf("1e-45")
        assert abs(val - want) <= err * (1 + mpf("1e-20"))


LOG_GOLDEN = {
    2: (["pi^1", "lambert(exp(-2*pi), s=-1)", "lambert(exp(-4*pi), s=-1)"],
        [F(2, 9), F(-8, 3), F(8, 3)]),
    3: (["pi^1", "lambert(exp(-2*pi), s=-1)", "lambert(-exp(-3*pi), s=-1)",
         "lambert(exp(-4*pi), s=-1)", "lambert(exp(-6*pi), s=-1)"],
        [F(19, 54), F(-32, 9), F(4, 3), F(8, 9), F(4, 3)]),
    5: (["pi^1", "lambert(exp(-2*pi), s=-1)", "lambert(exp(-4*pi), s=-1)",
         "lambert(-exp(-5*pi), s=-1)", "lambert(exp(-10*pi), s=-1)"],
        [F(37, 72), F(-8, 3), F(2, 3), F(1), F(1)]),
}


@pytest.mark.parametrize("p", [2, 3, 5])
def test_log_tables(p):
    bases, coeffs = LOG_GOLDEN[p]
    t = coeffs_log(p)
    assert t.constant == f"log({p})"
    assert _bases(t) == bases
    assert _coeffs(t) == coeffs


def test_log_rejects_other_primes():
    with pytest.raises(DomainError):
        coeffs_log(7)


# ---------------------------------------------------------------------------
# negative-q rewrite
# ---------------------------------------------------------------------------


def test_rewrite_is_identity_without_negative_nomes():
    t = coeffs_log(2)
    assert negative_q_rewrite(t) == t


def test_rewrite_log3_expansion():
    # L_{-q}(-1) -> -L_q + 4 L_{q^2} - 2 L_{q^4} ... with 2^{s+1} = 1 at s=-1:
    # -L(e^-3pi) + 3 L(e^-6pi) - L(e^-12pi), merged into the existing columns
    t = negative_q_rewrite(coeffs_log(3))
    by_basis = dict(zip(_bases(t), _coeffs(t)))
    assert by_basis == {
        "pi^1": F(19, 54),
        "lambert(exp(-2*pi), s=-1)": F(-32, 9),
        "lambert(exp(-3*pi), s=-1)": F(-4, 3),
        "lambert(exp(-4*pi), s=-1)": F(8, 9),
        "lambert(exp(-6*pi), s=-1)": F(16, 3),
        "lambert(exp(-12*pi), s=-1)": F(-4, 3),
    }


@pytest.mark.parametrize("make,args", [
    (coeffs_log, (3,)),
    (coeffs_log, (5,)),
    (method_table, ("zeta", "p3", 5)),
    (method_table, ("zeta", "p5", 9)),
    (coeffs_pi, ("prop_pi5", 1)),
])
def test_rewrite_preserves_value(make, args):
    t = make(*args)
    rw = negative_q_rewrite(t)
    assert all(b.q is None or b.q.sign > 0 for b, _ in rw.entries)
    ctx = make_context(45)
    v1, e1 = assembled(t, ctx)
    v2, e2 = assembled(rw, ctx)
    with ctx.workdps():
        assert abs(v1 - v2) <= (e1 + e2) * (1 + mpf("1e-20"))
        assert abs(v1 - v2) < mpf("1e-40")


def test_rewrite_idempotent():
    rw = negative_q_rewrite(coeffs_log(3))
    assert negative_q_rewrite(rw) == rw


# ---------------------------------------------------------------------------
# serialization and the coefficient grammar
# ---------------------------------------------------------------------------


def test_json_roundtrip_all_methods():
    tables = (
        [method_table("zeta", m, 3) for m in ZETA_4KM1_METHODS]
        + [method_table("zeta", m, 5) for m in ZETA_4KP1_METHODS]
        + [coeffs_pi(m, 1) for m in PI_METHODS]
        + [coeffs_log(p) for p in (2, 3, 5)]
    )
    for t in tables:
        blob = t.to_json()
        back = CoefficientTable.from_dict(json.loads(blob))
        assert back == t
        # serialization is deterministic byte-for-byte
        assert back.to_json() == blob


def test_sech_series_at_a_negative_nome_is_refused_from_json():
    # the kernel checks a table read back from JSON as sech_series checks its q
    d = json.loads(method_table("zeta", "root15", 3).to_json())
    for e in d["entries"]:
        if e["basis"]["kind"] == "sech_series":
            e["basis"]["q"] = "-" + e["basis"]["q"]
    table = CoefficientTable.from_dict(d)
    with pytest.raises(DomainError, match="sech_series requires real q"):
        assemble_detailed(table, make_context(30))


def test_basis_term_roundtrip():
    t = method_table("zeta", "root15_p", 9)
    for b, _ in t.entries:
        assert BasisTerm.from_dict(b.to_dict()) == b


def test_format_parse_simple():
    assert format_coefficient(F(-3, 7)) == "-3/7"
    assert parse_coefficient("-3/7") == F(-3, 7)
    s = sq(19140, 7, 7)
    assert parse_coefficient(format_coefficient(s)) == s


def test_format_parse_all_table_coefficients():
    tables = (
        [method_table("zeta", m, 7) for m in ZETA_4KM1_METHODS]
        + [method_table("zeta", m, 9) for m in ZETA_4KP1_METHODS]
        + [coeffs_pi(m, 1) for m in PI_METHODS]
    )
    for t in tables:
        for _, c in t.entries:
            assert parse_coefficient(format_coefficient(c)) == c


@given(num=st.integers(-10**12, 10**12), den=st.integers(1, 10**9))
@settings(max_examples=100)
def test_format_parse_fraction_roundtrip(num, den):
    c = F(num, den)
    assert parse_coefficient(format_coefficient(c)) == c


@given(
    a=st.fractions(max_denominator=10**6),
    b=st.fractions(max_denominator=10**6),
    m=st.sampled_from([3, 7, 15]),
)
@settings(max_examples=100)
def test_format_parse_surd_roundtrip(a, b, m):
    c = a + b * Surd.sqrt(m)
    assert parse_coefficient(format_coefficient(c)) == c


def test_parse_rejects_garbage():
    for bad in ("", "1/", "sqrt(2)", "1+*sqrt(3)", "2*sqrt(11)", "1//2"):
        with pytest.raises(ValueError):
            parse_coefficient(bad)


# ---------------------------------------------------------------------------
# assembly plumbing
# ---------------------------------------------------------------------------


def test_assemble_detailed_reports_terms():
    ctx = make_context(50)
    t = method_table("zeta", "corollary", 3)
    val, err = assembled(t, ctx)
    terms = assemble_detailed(t, ctx)[3]
    assert set(terms) == {"pi^3", "lambert(exp(-2*pi), s=-3)"}
    assert terms["pi^3"] == 0  # closed form, no series truncation
    assert terms["lambert(exp(-2*pi), s=-3)"] >= 10
    with ctx.workdps():
        assert abs(val - oracle_zeta(3, ctx)) <= err
        assert err < mpf("1e-50")


def test_method_lists_are_disjoint():
    assert not set(ZETA_4KM1_METHODS) & set(ZETA_4KP1_METHODS)
    assert "corollary" in ZETA_4KM1_METHODS
    assert "corollary3" in ZETA_4KP1_METHODS


def test_unknown_method_raises():
    with pytest.raises(DomainError):
        method_table("zeta", "nope", 3)
    with pytest.raises(DomainError):
        method_table("zeta", "corollary", 5)  # wrong parity family
    with pytest.raises(DomainError):
        coeffs_pi("nope", 1)


def test_k_must_be_positive():
    for bad in (0, -1):
        with pytest.raises(DomainError):
            method_table("zeta", "corollary", 4 * bad - 1)
        with pytest.raises(DomainError):
            method_table("zeta", "p5", 4 * bad + 1)
        for which in PI_METHODS:
            with pytest.raises(DomainError):
                coeffs_pi(which, bad)


def test_make_table_sums_repeated_bases():
    # the 2-section rewrite of log 3 lands its -e^-3pi term on e^-6pi,
    # which the table already has; the two coefficients are summed
    t = negative_q_rewrite(coeffs_log(3))
    h = 1  # 2^(s+1) at s = -1
    assert dict(t.entries)[BasisTerm("lambert", q=QSymbolic(1, 6), s=-1)] == \
        Fraction(4, 3) + Fraction(4, 3) * (h + 2)
    assert len({b for b, _ in t.entries}) == len(t.entries)


def test_registry_dispatch():
    # k = (n + offset) // 4 for the n the method's residue allows
    for constant in ("zeta", "pi"):
        for name, (residue, offset, _) in METHODS[constant].items():
            n = 4 * 2 - offset
            assert n % 4 == residue
            assert resolve_method(constant, name, n)[1] == 2
    assert resolve_method("zeta", "root15", 5) == ("root15_p", 1)
    assert resolve_method("zeta", "root15", 3) == ("root15", 1)
    assert resolve_method("zeta", "corollary2", 7) == ("corollary2", 2)
    assert resolve_method("pi", "example62", 1) == ("example62", 1)
    for constant, method, n in (("zeta", "root15_p", 3), ("zeta", "p2_p", 5),
                                ("pi", "example62", 3), ("pi", "prop_pi5", 1),
                                ("zeta", "example62", 5), ("pi", "root15", 3)):
        with pytest.raises(DomainError):
            resolve_method(constant, method, n)


def test_format_rejects_imaginary_parts():
    with pytest.raises(ValueError):
        format_coefficient(1 + I)
    with pytest.raises(TypeError):
        format_coefficient(0.5)


def test_parse_reads_every_real_radicand():
    c = F(1, 2) + 3 * Surd.sqrt(2) - Surd.sqrt(210)
    assert format_coefficient(c) == "(1/2)+(3)*sqrt(2)+(-1)*sqrt(210)"
    assert parse_coefficient(format_coefficient(c)) == c
    assert parse_coefficient("(2)+(3)*sqrt(7)+(-1)*sqrt(7)") == 2 + 2 * Surd.sqrt(7)


@pytest.mark.parametrize("table", [method_table("zeta", "root15", 3),
                                   method_table("zeta", "corollary3", 5)],
                         ids=["zeta3_root15", "zeta5_corollary3"])
def test_assemble_does_not_use_the_pi_oracle(table, monkeypatch):
    # the oracles check the evaluation path, so it must not lean on them;
    # corollary3 also carries a lambert_derivative term and its pi*q scale
    def refuse(ctx):
        raise AssertionError("oracle_pi called on the evaluation path")

    monkeypatch.setattr("zetaodd.oracles.oracle_pi", refuse)
    monkeypatch.setattr("zetaodd.coefficients.oracle_pi", refuse, raising=False)
    ctx = make_context(60)
    val, err = assembled(table, ctx)
    assert any(b.kind == "pi_power" for b, _ in table.entries)
    with ctx.workdps():
        assert abs(val - mp.zeta(int(table.constant[5:-1]))) <= err


def test_rounding_slop_scales_with_the_terms_not_the_total():
    # 10^40 pi + (1 - 10^40) pi = pi: each product carries a rounding error
    # of about 10^40 ulp, which the certificate must cover
    big = F(10) ** 40
    table = CoefficientTable("pi^1", "cancel", (
        (BasisTerm("pi_power", power=1), big),
        (BasisTerm("pi_power", power=1), 1 - big),
    ))
    ctx = make_context(30)
    val, err = assembled(table, ctx)
    with mp.workdps(200):
        assert abs(val - mp.pi) <= err


def _registry_tables() -> list:
    """Every table of the registry at k = 1 and 2, and the log tables."""
    return ([gen(k) for methods in METHODS.values() for _, _, gen in methods.values()
             for k in (1, 2)] + [coeffs_log(p) for p in (2, 3, 5)])


def _radicands(coeffs) -> set:
    """The r != 1 whose sqrt(r) a coefficient holds, i sqrt(r) included."""
    return {abs(r) for c in coeffs if isinstance(c, Surd) for r, _ in c.items()} - {1}


def test_assembly_takes_one_square_root_per_radicand(monkeypatch):
    # the series targets' |c| (_magnitude) take sqrt(r) from one mp.sqrt per
    # radicand of the series' coefficients; the pi coefficient's and the
    # values' roots are isqrt, and the sech series' roots are the kernel's
    taken, sqrt = [], mp.sqrt

    def spy(x, **kwargs):
        if sys._getframe(1).f_code.co_filename == coefficients.__file__:
            taken.append(x)
        return sqrt(x, **kwargs)

    monkeypatch.setattr(mp, "sqrt", spy)
    ctx = make_context(40)
    for table in _registry_tables():
        taken.clear()
        assemble_detailed(table, ctx)
        series = [c for b, c in table.entries if b.q is not None]
        assert sorted(taken) == sorted(_radicands(series)), table.method


def test_series_targets_keep_their_bits(monkeypatch):
    # each series target is budget / (1 + |c|), |c| at working precision
    # part by part, quotient times sqrt(r), as before the assembly went to
    # fixed point: so no N can move at a tie
    targets = []
    real = coefficients.base_sums

    def spy(x, terms, ctx):
        targets.extend(t.target for t in terms)
        return real(x, terms, ctx)

    monkeypatch.setattr(coefficients, "base_sums", spy)
    for digits in (30, 1000):
        ctx = make_context(digits)
        for table in _registry_tables():
            targets.clear()
            assemble_detailed(table, ctx)
            with ctx.workdps():
                budget = mpf(10) ** (-(ctx.target_digits + ctx.guard_digits // 2))
                want = []
                for _, group in coefficients._by_base(table.entries).items():
                    want += [budget / (1 + abs(exact_value(c))) for _, c in group]
            assert [t._mpf_ for t in targets] == [t._mpf_ for t in want], table.method


@given(parts=st.dictionaries(st.sampled_from((1, 2, 3, 5, 7, 15, 105)),
                             st.fractions(max_denominator=10**6), max_size=4),
       prec=st.integers(0, 400))
@settings(max_examples=80)
def test_fixed_coefficient_is_within_a_unit_per_part(parts, prec):
    c = Surd(parts)
    total, err = coefficients._fixed_coefficient(c, prec)
    assert err == len(c.items())
    with mp.workprec(prec + 200):
        exact = sum((mpf(w.numerator) / w.denominator * mp.sqrt(r) for r, w in c.items()), mpf(0))
        assert abs(mp.ldexp(exact, prec) - total) < err or err == 0 == total


def test_pi_power_holds_pi_to_the_n_within_its_count():
    # pi^n 2^prec from one floor of mpmath's pi and counted products, against
    # mp.pi ** n with 64 bits to spare; the count's own bits stay under a unit
    assert coefficients._pi_power(0, 100) == (1 << 100, 2)
    for n in range(1, 42):
        for prec in (0, 1, 2, 53, 333, 1000, 2500, 4000):
            v, e = coefficients._pi_power(n, prec)
            with mp.workprec(prec + math.ceil(n * math.log2(math.pi)) + 64):
                assert abs(mp.ldexp(mp.pi ** n, prec) - v) <= e <= 3, (n, prec)


def test_a_table_read_back_takes_a_power_of_pi_from_zero():
    # pi^0, a rational term, assembles; a negative power is refused when read
    d = {"constant": "pi^1", "method": "shifted", "entries": [
        {"basis": {"kind": "pi_power", "power": 1}, "coeff": "1"},
        {"basis": {"kind": "pi_power", "power": 0}, "coeff": "-3"}]}
    val, err = assembled(CoefficientTable.from_dict(d), make_context(30))
    with mp.workdps(60):
        assert abs(val - (mp.pi - 3)) <= err < mpf("1e-30")
    d["entries"][1]["basis"]["power"] = -1
    with pytest.raises(ValueError, match="power >= 0"):
        CoefficientTable.from_dict(d)
