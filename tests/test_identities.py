"""Numerical verification of the functional equations and exact multisection.

Every checker returns a residual that would be O(1) if a sign, weight, or
exponent were wrong, and ~10^-(working digits) when the identity holds, so a
threshold halfway between is an unambiguous verdict.
"""

import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from bernoulli_reference import bernoulli_weight
from divisor_reference import divisor_sigma, multisection_mismatch
from zetaodd import cli, identities
from zetaodd.core import DomainError, make_context
from zetaodd.identities import (
    check_lemma_p4,
    check_lemma_sech,
    check_multisection,
    check_t1_case1,
    check_t1_case2,
    check_t1_case3,
    check_zeta_free,
)

CTX30 = make_context(30)
TOL30 = mp.mpf("1e-25")


def _special_points():
    # self-dual and nome-collapse points of the t <-> 1/t symmetry
    with mp.workdps(40):
        return [
            mp.mpf(1),
            mp.mpf(2),
            mp.mpf(1) / 2,
            1 / (1 + mp.mpc(0, 1)),
            (mp.sqrt(3) + mp.mpc(0, 1)) / 2,
            (mp.sqrt(3) - mp.mpc(0, 1)) / 2,
            (mp.sqrt(7) + mp.mpc(0, 1)) / 4,
            (mp.sqrt(15) + mp.mpc(0, 1)) / 4,
        ]


def _random_points(n, seed):
    rng = random.Random(seed)
    pts = []
    with mp.workdps(40):
        for _ in range(n):
            r = 0.5 + 1.5 * rng.random()
            phi = (rng.random() * 2 - 1) * mp.pi / 3  # |arg t| <= 60 deg
            pts.append(r * mp.exp(mp.mpc(0, 1) * phi))
    return pts


# ------------------------------------------------------------ case 1: s = -1


@pytest.mark.parametrize("t", _special_points() + _random_points(4, 101))
def test_t1_case1(t):
    res = check_t1_case1(t, CTX30)
    assert res.rel_residual < TOL30


def test_t1_case1_self_dual_point():
    # at t = 1 both sides collapse to the same expression
    res = check_t1_case1(1, CTX30)
    assert res.rel_residual < TOL30


# ------------------------------------------------- case 2/3: s = -(4k +- 1)


@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("t", [1, 1.37, "special"])
def test_t1_case2(k, t):
    if t == "special":
        t = _special_points()[4]  # (sqrt3 + i)/2
    res = check_t1_case2(k, t, CTX30)
    assert res.rel_residual < TOL30


@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("t", [1, 0.8, "special"])
def test_t1_case3(k, t):
    if t == "special":
        t = _special_points()[6]  # (sqrt7 + i)/4
    res = check_t1_case3(k, t, CTX30)
    assert res.rel_residual < TOL30


def test_t1_randomized_all_cases():
    for t in _random_points(3, 202):
        assert check_t1_case1(t, CTX30).rel_residual < TOL30
        for k in (1, 3):
            assert check_t1_case2(k, t, CTX30).rel_residual < TOL30
            assert check_t1_case3(k, t, CTX30).rel_residual < TOL30


def test_t1_rejects_left_half_plane():
    with pytest.raises(DomainError):
        check_t1_case1(-1, CTX30)
    with pytest.raises(DomainError):
        check_t1_case2(1, mp.mpc(0, 1), CTX30)


def test_residual_reporting_fields():
    res = check_t1_case2(1, 1.2, CTX30)
    assert res.terms_used > 0
    assert res.precision_used >= CTX30.target_digits
    assert res.abs_residual <= res.rel_residual * res.scale * (1 + mp.mpf("1e-20"))


# ------------------------------------------------------------- multisection


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_multisection_exact_zero(p):
    for s in range(-9, 4):
        assert check_multisection(p, s, 30) == Fraction(0)


def test_multisection_rejects_bad_p():
    with pytest.raises(DomainError):
        check_multisection(4, -3, 10)
    with pytest.raises(DomainError):
        check_multisection(11, -3, 10)


def test_multisection_detects_wrong_weight():
    # sanity that the reduction isn't trivially zero: perturb the weight
    # p^(s+1) to p^s (off by one) and compare
    p, s = 3, -3
    assert multisection_mismatch(p, s, 9, weight=Fraction(p) ** s) > 0


@pytest.mark.parametrize("s", [-9, 2])
def test_multisection_matches_the_reference_at_order_1000(s):
    assert check_multisection(7, s, 1000) == multisection_mismatch(7, s, 1000)


@pytest.mark.parametrize("p, s", [(2, -1), (3, 0), (5, 2), (7, -1), (7, -9)])
def test_multisection_budget_bounds_the_traced_peak(p, s, capsys):
    # the largest order the pre-check admits stays inside the budget, and
    # the next one is refused before any sieve, exit 65 through the CLI
    budget = identities.SIEVE_BUDGET_BITS // 8
    lo, hi = 1, budget
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if identities._sieve_bytes(abs(s), mid * p) <= budget else (lo, mid - 1)
    tracemalloc.start()
    try:
        assert check_multisection(p, s, lo) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= budget
    with pytest.raises(DomainError, match="budget"):
        check_multisection(p, s, lo + 1)
    argv = ["verify", "--identity", "multisection", "--p", str(p), "--s", str(s),
            "--order", str(lo + 1)]
    assert cli.main(argv) == 65
    assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize("s", [-3, 0, 2])
def test_multisection_reports_a_wrong_coefficient(s, monkeypatch):
    # one sieve numerator off by one moves sigma_s(12) by 12^min(s, 0); the
    # mismatch is the reference's for that sigma, as an exact Fraction
    bad, sieve = 12, identities._lambert_sieve

    def off_by_one(a, n_terms, length):  # 1 more at m = bad
        e = sieve(a, n_terms, length)
        e[bad - 1] += 1
        return e

    def sigma(s, n):
        return divisor_sigma(s, n) + (Fraction(bad) ** min(s, 0) if n == bad else 0)

    monkeypatch.setattr(identities, "_lambert_sieve", off_by_one)
    got = check_multisection(3, s, 10)
    assert got == multisection_mismatch(3, s, 10, sigma) != 0


# --------------------------------------------------------- quartering lemmas


@pytest.mark.parametrize("q", ["0.09", "0.25", "0.64"])
@pytest.mark.parametrize("s", [-5, -3, 0])
def test_lemma_p4(q, s):
    res = check_lemma_p4(mp.mpf(q), s, CTX30)
    assert res.rel_residual < TOL30


@pytest.mark.parametrize("q", ["0.09", "0.25", "0.64"])
@pytest.mark.parametrize("s", [-5, -3])
def test_lemma_sech(q, s):
    res = check_lemma_sech(mp.mpf(q), s, CTX30)
    assert res.rel_residual < TOL30


def test_lemma_p4_slow_nome_stress():
    # q -> 1 is the hard regime; 0.9 needs hundreds of terms
    res = check_lemma_p4(mp.mpf("0.9"), 0, make_context(40))
    assert res.rel_residual < mp.mpf("1e-35")
    assert res.terms_used > 100


def test_lemma_domain():
    with pytest.raises(DomainError):
        check_lemma_p4(mp.mpf("1.2"), -3, CTX30)
    with pytest.raises(DomainError):
        check_lemma_sech(mp.mpf(0), -3, CTX30)


# ----------------------------------------------------------- zeta-free form


@pytest.mark.parametrize("k,a,t", [
    (0, "1/2", 1),
    (0, "2/3", 1.4),
    (2, "1/2", 1),
    (1, "1/3", 0.9),
])
def test_zeta_free_case1(k, a, t):
    res = check_zeta_free(1, k, Fraction(a), t, CTX30)
    assert res.rel_residual < TOL30


@pytest.mark.parametrize("k,a,t", [
    (1, "1/2", 1),     # the closed-form pi^3 instance
    (2, "1/2", 1.25),
    (3, "2/3", 1),
])
def test_zeta_free_case2(k, a, t):
    res = check_zeta_free(2, k, Fraction(a), t, CTX30)
    assert res.rel_residual < TOL30


def test_zeta_free_complex_t():
    t = (1 + mp.mpc(0, 1)) / 2
    assert check_zeta_free(1, 1, Fraction(1, 2), t, CTX30).rel_residual < TOL30
    for t in _random_points(2, 303):
        assert check_zeta_free(2, 2, Fraction(1, 2), t, CTX30).rel_residual < TOL30


@pytest.mark.parametrize("total", [4, 6, 8, 10, 12, 14, 40, 42, 100, 102, 200, 202])
@given(data=st.data())
@settings(max_examples=4, deadline=None)
def test_bernoulli_block_matches_the_per_term_loop(total, data):
    # the reference sums each exact c_j W_j (the middle cosh term halved)
    # times hyp at 30 more digits; the block agrees to its working precision
    c = data.draw(st.lists(st.one_of(st.integers(-10**9, 10**9),
                                     st.fractions(max_denominator=10**6)),
                           min_size=total // 4 + 1, max_size=total // 4 + 1))
    t = data.draw(st.sampled_from([mp.mpf(1), mp.mpf("1.25"), mp.mpc("1.2", "0.3"),
                                   mp.mpc("0.8", "-0.4")]))
    half = total // 2
    with CTX30.workdps():
        got = identities._bernoulli_block(c, total, mp.log(t))
    with mp.workdps(CTX30.working_digits + 30):
        hyp = mp.cosh if half % 2 == 0 else mp.sinh
        terms = [(-1) ** j * cj * bernoulli_weight(j, total) / (2 if 2 * j == half else 1)
                 for j, cj in enumerate(c)]
        terms = [mp.mpf(w.numerator) / w.denominator * hyp((half - 2 * j) * mp.log(t))
                 for j, w in enumerate(terms)]
        scale = (2 * mp.pi) ** (total - 1)
        want = scale * mp.fsum(terms)
        size = scale * mp.fsum(abs(x) for x in terms)
        assert abs(got - want) <= size * mp.mpf(10) ** (3 - CTX30.working_digits)


def test_zeta_free_domain():
    with pytest.raises(DomainError):
        check_zeta_free(1, -1, Fraction(1, 2), 1, CTX30)
    with pytest.raises(DomainError):
        check_zeta_free(2, 0, Fraction(1, 2), 1, CTX30)
    with pytest.raises(DomainError):
        check_zeta_free(3, 1, Fraction(1, 2), 1, CTX30)
    with pytest.raises(DomainError):
        check_zeta_free(1, 1, Fraction(0), 1, CTX30)
    with pytest.raises(DomainError):
        check_zeta_free(1, 1, Fraction(1, 2), mp.mpc(0, 2), CTX30)
