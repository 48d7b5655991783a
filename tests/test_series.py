"""Lambert / sech series evaluation: prefix sums, tail bounds, term caps."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from divisor_reference import _sech_terms, _sieve, divisor_sigma
from fixed_point import fixed_mpf
from series_reference import prefix_sums, series_sum
from zetaodd import series
from zetaodd.core import ConvergenceError, make_context
from zetaodd.series import (
    TERM_CAP,
    QSymbolic,
    lambert_eval,
    lambert_q_expansion,
    sech_series,
)

F = Fraction
CTX = make_context(50)
LAMBERT = series._KINDS["lambert"]


# ------------------------------------------------------------- prefix sums


def kernel_prefixes(q, s, n_terms, ctx=CTX) -> list:
    """The kernel's Lambert prefix sums N = 1..n_terms at a real q, in one
    pass (Term.prefixes)."""
    term = series.Term("lambert", 1, 1 if q > 0 else -1, s, None, prefixes=n_terms)
    _, sums, prec = series.base_sums(abs(q), [term], ctx)
    return [fixed_mpf(sums[None, n][0], prec) for n in range(1, n_terms + 1)]


def test_partial_sum_exact_small():
    # q=1/2, s=-1, three terms: 1 + (1/2)(1/4)/(3/4)... worked by hand:
    #   n=1: 1 * (1/2)/(1/2)   = 1
    #   n=2: (1/2) * (1/4)/(3/4) = 1/6
    #   n=3: (1/3) * (1/8)/(7/8) = 1/21
    # total 17/14
    with CTX.workdps():
        v = kernel_prefixes(mpf(1) / 2, -1, 3)[-1]
        assert abs(v - mpf(17) / 14) < mpf("1e-60")


def test_partial_sum_exact_s_minus3():
    # q=1/2, s=-3, four terms = 63383/60480 (exact Fraction sum)
    want = sum(F(n) ** -3 * F(1, 2) ** n / (1 - F(1, 2) ** n) for n in range(1, 5))
    assert want == F(63383, 60480)
    with CTX.workdps():
        v = kernel_prefixes(mpf(1) / 2, -3, 4)[-1]
        assert abs(v - mpf(63383) / 60480) < mpf("1e-60")


def test_partial_sum_accepts_symbolic_nome():
    q = QSymbolic(1, 2)  # e^{-2 pi}
    direct = lambert_eval(q.value(CTX), -3, mpf("1e-40"), CTX)
    assert lambert_eval(q, -3, mpf("1e-40"), CTX) == direct


def test_partial_sum_monotone_in_n_for_positive_q():
    q = mpf("0.3")
    vals = kernel_prefixes(q, -3, 8)
    assert all(b > a for a, b in zip(vals, vals[1:]))
    with mp.workdps(2 * CTX.working_digits):  # the term-by-term sums
        ref = prefix_sums("lambert", q, -3, 8)
        assert all(abs(v - r) < mpf("1e-70") for v, r in zip(vals, ref))


# --------------------------------------------------------------- tail bound


@given(
    qnum=st.integers(1, 89),
    s=st.integers(-9, 0),
    n=st.integers(1, 15),
)
@settings(max_examples=80, deadline=None)
def test_tail_bound_sound(qnum, s, n):
    # |sum_{n..2n omitted terms}| can never exceed the claimed tail bound
    q = mpf(qnum) / 100
    with CTX.workdps():
        sums = prefix_sums("lambert", q, s, 4 * n)
        assert abs(sums[-1] - sums[n - 1]) <= series._bound(LAMBERT, q, n) * (1 + mpf("1e-40"))


def test_tail_bound_negative_q():
    # bound is stated for |q|; alternating nome stays under it too
    with CTX.workdps():
        q = mpf("-0.6")
        sums = prefix_sums("lambert", q, -3, 40)
        assert abs(sums[-1] - sums[3]) <= series._bound(LAMBERT, abs(q), 4)


def test_tail_bound_decreasing():
    with CTX.workdps():
        bounds = [series._bound(LAMBERT, mpf("0.7"), n) for n in range(1, 12)]
    assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))


# ------------------------------------------------------------- adaptive eval


def test_lambert_eval_hits_target():
    # reference value summed directly with mpmath at high precision:
    #   L(e^{-2 pi}, s=-3) = 0.001871372759366027378837046...
    with mp.workdps(60):
        ref = mpf("0.001871372759366027378837046")
        r = lambert_eval(QSymbolic(1, 2), -3, mpf("1e-10"), CTX)
        assert r.terms_used == 3
        assert abs(r.value - ref) < mpf("1e-10")
        assert abs(r.value - ref) <= r.tail_bound

        r30 = lambert_eval(QSymbolic(1, 2), -3, mpf("1e-30"), CTX)
        assert r30.terms_used == 10
        assert abs(r30.value - ref) < mpf("1e-25")  # ref itself has 27 digits


def test_lambert_eval_result_fields():
    r = lambert_eval(QSymbolic(1, 4), -5, mpf("1e-30"), CTX)
    assert r.precision_used >= CTX.target_digits
    assert r.tail_bound < mpf("1e-30")
    assert r.terms_used >= 1


def test_lambert_eval_negative_symbolic_nome():
    # q = -e^{-3 pi}: same magnitude bound applies
    r = lambert_eval(QSymbolic(-1, 3), -5, mpf("1e-35"), CTX)
    with CTX.workdps():
        brute = series_sum("lambert", QSymbolic(-1, 3).value(CTX), -5, 40)
        assert abs(r.value - brute) < mpf("1e-35")


def test_derivative_matches_finite_difference():
    # pi * q * d/dq L_q(s) via central difference at modest precision
    s = -3
    ctx = make_context(40)
    with ctx.workdps():
        q = mp.exp(-2 * mp.pi)
        h = mpf("1e-12")
        up = series_sum("lambert", q + h, s, 60)
        dn = series_sum("lambert", q - h, s, 60)
        fd = mp.pi * q * (up - dn) / (2 * h)
    r = series._evaluate("lambert_derivative", QSymbolic(1, 2), s, mpf("1e-30"), ctx)
    # the eval routine reports q L' = sum n^{s+1} q^n/(1-q^n)^2; scale matches pi*q*L'
    with ctx.workdps():
        scaled = mp.pi * r.value
        assert abs(scaled - fd) < mpf("1e-20")


def test_sech_series_value():
    # direct mpmath oracle at 70 dps:
    # S(e^{-sqrt15 pi}, -3) = -0.004559573350270004210476505
    with mp.workdps(60):
        ref = mpf("-0.004559573350270004210476505")
        r = sech_series(QSymbolic(1, 1, 15), -3, mpf("1e-40"), CTX)
        assert abs(r.value - ref) < mpf("1e-26")
    # leading term dominates: -sech(sqrt15 pi / 2), off by the n=1 term ~8.8e-10
    with CTX.workdps():
        lead = -mp.sech(mp.sqrt(15) * mp.pi / 2)
        assert abs(r.value - lead) < mpf("1e-9")


def test_sech_series_alternating_signs():
    # partial check of the sign pattern: term n carries (-1)^{n+1}
    with CTX.workdps():
        x = mp.sqrt(15) * mp.pi
        t0 = -mp.sech(x / 2)
        t1 = +mpf(3) ** -3 * mp.sech(3 * x / 2)
        r = sech_series(QSymbolic(1, 1, 15), -3, mpf("1e-40"), CTX)
        assert abs(r.value - (t0 + t1)) < abs(t1)


# ----------------------------------------------------------------- term cap


def test_term_cap_env_triggers_convergence_error(monkeypatch):
    monkeypatch.setattr(series, "TERM_CAP", 4)
    with pytest.raises(ConvergenceError):
        lambert_eval(QSymbolic(1, 2), -3, mpf("1e-40"), CTX)


def test_term_cap_env_restored(monkeypatch):
    monkeypatch.setenv("ZETA_ODD_MAX_TERMS", "4")  # the program reads no env var
    r = lambert_eval(QSymbolic(1, 2), -3, mpf("1e-40"), CTX)
    assert r.terms_used < TERM_CAP == 10**6


def test_nome_magnitude_guard():
    from zetaodd.core import DomainError

    with pytest.raises(DomainError):
        lambert_eval(mpf("1.5"), -3, mpf("1e-10"), CTX)
    with pytest.raises(DomainError):
        lambert_eval(mpf(1), -3, mpf("1e-10"), CTX)


def test_weights_past_a_float_keep_a_true_bound():
    # the pass counts weights past 2^768 in units of 2^scale, so its float
    # error bookkeeping neither overflows nor loses the bound
    x, w = mpf(1) / 7, F(2) ** 3000 / 3
    term = series.Term("lambert", 1, 1, -5, mpf("1e-60"), ((None, w),))
    [(n, _, _)], sums, prec = series.base_sums(x, [term], CTX)
    value, rounding = (fixed_mpf(v, prec) for v in sums[None])
    with mp.workdps(1000):
        exact = w.numerator * series_sum("lambert", x, -5, n) / w.denominator
        assert abs(value - exact) <= rounding < abs(exact) * mpf(10) ** -45


def test_non_integer_s_rejected():
    from zetaodd.core import DomainError

    for s in (mpf(-3), F(-3), -3.0, mp.mpc(-3, 1)):
        for kind in series._KINDS:
            with pytest.raises(DomainError, match="integer s"):
                series._evaluate(kind, QSymbolic(1, 2), s, mpf("1e-10"), CTX)
    with pytest.raises(DomainError, match="integer s <= -1"):
        series._evaluate("lambert_derivative", QSymbolic(1, 2), 0, mpf("1e-10"), CTX)


# ------------------------------------------------- q-expansion / divisor sums


def test_divisor_sigma_values():
    assert lambert_q_expansion(-1, 6)[-1] == F(2)        # 1 + 1/2 + 1/3 + 1/6
    assert lambert_q_expansion(-3, 4)[-1] == F(73, 64)   # 1 + 1/8 + 1/64
    assert lambert_q_expansion(0, 12)[-1] == F(6)        # number of divisors
    assert lambert_q_expansion(1, 6)[-1] == F(12)


def test_divisor_sigma_multiplicative():
    # gcd(m,n)=1 => sigma_s(mn) = sigma_s(m) sigma_s(n)
    for s in (-3, -1, 0, 2):
        c = lambert_q_expansion(s, 4 * 9)
        assert c[4 * 9 - 1] == c[4 - 1] * c[9 - 1]


@given(s=st.integers(-9, 4), order=st.integers(1, 2000))
@settings(max_examples=25, deadline=None)
def test_q_expansion_is_the_trial_division_sigma(s, order):
    assert lambert_q_expansion(s, order) == [divisor_sigma(s, m)
                                             for m in range(1, order + 1)]


def _per_term_sieve(a, n_terms, length):
    return _sieve(series._lambert_terms(a, n_terms, length - 1), length)


@pytest.mark.parametrize("length", [1, 2, 3, 4, 15, 16, 17, 899, 900, 901])
@pytest.mark.parametrize("a", [0, 1, 3, 9, 201])
def test_hyperbola_sieve_is_the_per_term_sieve(length, a):
    # n_terms below, at and above sqrt(length) and length
    root = math.isqrt(length)
    for n_terms in {1, max(1, root - 1), root, root + 1, max(1, length - 1), length, length + 1}:
        assert series._lambert_sieve(a, n_terms, length) == _per_term_sieve(a, n_terms, length)


@given(a=st.integers(0, 30), n_terms=st.integers(1, 3000), length=st.integers(1, 3000))
@settings(max_examples=40, deadline=None)
def test_hyperbola_sieve_property(a, n_terms, length):
    assert series._lambert_sieve(a, n_terms, length) == _per_term_sieve(a, n_terms, length)


def _sech_agrees(a, n_terms, order):
    """The sech numerators, summed and term by term, read from the Lambert
    sieve (the sech lemma) are the reference's own sech expansion's."""
    reference = list(_sech_terms(a, n_terms, order))
    assert list(series._odd_half(a, n_terms, order, False)) == [
        (0, 1, _sieve(reference, order + 1))]
    assert list(series._odd_half(a, n_terms, order, True)) == reference


@pytest.mark.parametrize("order", [0, 1, 2, 3, 15, 16, 40, 101])
@pytest.mark.parametrize("a", [0, 1, 3, 5, 9, 25])
def test_sech_numerators_are_the_odd_half_of_a_lambert_series(order, a):
    # n_terms below, at and above order + 1, where the last term starts
    for n_terms in {1, 2, max(1, order // 2), max(1, order), order + 1, order + 2, 200}:
        _sech_agrees(a, n_terms, order)


@given(a=st.integers(0, 30), n_terms=st.integers(1, 2000), order=st.integers(0, 2000))
@settings(max_examples=40, deadline=None)
def test_sech_numerators_property(a, n_terms, order):
    _sech_agrees(a, n_terms, order)


def test_q_expansion_prefix():
    assert lambert_q_expansion(-1, 3) == [F(1), F(3, 2), F(4, 3)]
    assert lambert_q_expansion(-3, 4) == [F(1), F(9, 8), F(28, 27), F(73, 64)]


def test_q_expansion_matches_partial_sum():
    # sum c_n q^n agrees with the Lambert partial sum up to the first
    # q-power either truncation misses (q^31 here)
    coeffs = lambert_q_expansion(-3, 30)
    ctx = make_context(40)
    with ctx.workdps():
        q = mpf("0.1")
        series = sum(mpf(c.numerator) / c.denominator * q**n
                     for n, c in enumerate(coeffs, start=1))
        direct = kernel_prefixes(q, -3, 30, ctx)[-1]
        assert abs(series - direct) < mpf("1e-28")


# ------------------------------------------------------------ symbolic nomes


def test_qsymbolic_roundtrip():
    for q in (QSymbolic(1, 2), QSymbolic(-1, 3), QSymbolic(1, 1, 15),
              QSymbolic(-1, 1, 3), QSymbolic(1, 4, 7)):
        assert QSymbolic.parse(str(q)) == q


def test_qsymbolic_decay_ordering():
    # e^{-2 pi} decays slower than e^{-sqrt(15) pi}? no: 2 < sqrt15 ~ 3.87
    assert QSymbolic(1, 2).decay_key() == 4
    assert QSymbolic(1, 1, 15).decay_key() == 15
    assert QSymbolic(1, 2).decay_key() < QSymbolic(1, 1, 15).decay_key()


def test_qsymbolic_rejects_unknown_rates():
    with pytest.raises(ValueError):
        QSymbolic(1, 7, 15)
    with pytest.raises(ValueError):
        QSymbolic(1, 1, 11)
    with pytest.raises(ValueError):
        QSymbolic(0, 2)


def test_qsymbolic_squared():
    q = QSymbolic(-1, 3)
    assert q.squared() == QSymbolic(1, 6)
    assert q.magnitude() == QSymbolic(1, 3)


@given(a=st.integers(-2**300, 2**300), b=st.integers(-2**300, 2**300),
       ea=st.integers(0, 2**80), eb=st.integers(0, 2**80),
       fa=st.fractions(-1, 1, max_denominator=10**9),
       fb=st.fractions(-1, 1, max_denominator=10**9), prec=st.integers(0, 400))
@settings(max_examples=200)
def test_times_counts_its_error(a, b, ea, eb, fa, fb, prec):
    # any true factors u, v within the counts of a and b (in units of
    # 2^-prec): their product lies within the returned count of the floor
    u, v = a + fa * ea, b + fb * eb
    c, e = series._times((a, ea), (b, eb), prec)
    assert abs(c - u * v / 2 ** prec) <= e
