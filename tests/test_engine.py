"""End-to-end evaluation: every method reproduces the oracles at the
requested precision with a sound certified bound."""

import tracemalloc
from dataclasses import replace
from decimal import ROUND_DOWN, Decimal, localcontext

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

import zetaodd
from zetaodd import engine
from zetaodd.coefficients import (
    METHODS,
    ZETA_4KM1_METHODS,
    ZETA_4KP1_METHODS,
    assemble_detailed,
)
from zetaodd.core import ConvergenceError, DomainError, make_context
from zetaodd.engine import (
    ConstantResult,
    convergence_profile,
    log_prime,
    pi_power,
    zeta3_first_order,
    zeta_odd,
    zeta_table,
)
from zetaodd.oracles import oracle_log, oracle_pi
from zetaodd.oracles import oracle_zeta as _oz

# every (s, method) combination the formula families cover;
# sqrt3 zeta(4k+1) drops out when k is divisible by 3 (s = 13, 25, ...)
ZETA_COMBOS = [
    (s, m)
    for s in (3, 7)
    for m in ("corollary", "root3", "root7", "root15")
] + [
    (s, m)
    for s in (5, 9)
    for m in ("corollary3", "p2", "p3", "p5", "root3_p", "root7_p", "root15_p")
]


def _reparse(decimal_value: str) -> mpf:
    return mpf(decimal_value)


@pytest.mark.parametrize("s,method", ZETA_COMBOS)
def test_zeta_all_methods_50_digits(s, method):
    res = zeta_odd(s, method=method, target_digits=50)
    assert isinstance(res, ConstantResult)
    with mp.workdps(80):
        want = _oz(s, make_context(60))
        got = _reparse(res.decimal_value)
        # truncated string agrees to 10^-(target-2)
        assert abs(got - want) < mpf("1e-48")
    assert res.error_bound < mpf("1e-50")
    assert res.wall_time >= 0
    assert all(n >= 0 for n in res.terms_used.values())


@pytest.mark.parametrize("target", [50, 200])
@pytest.mark.parametrize("s,method", [(3, "root15"), (5, "p5"), (7, "corollary"),
                                      (9, "corollary3")])
def test_assembled_error_invariant(s, method, target):
    # |assembled - oracle| < 10^-(target-2), checked on the raw mpf value
    ctx = make_context(target)
    table = zeta_table(s, method)
    val, err, _ = assemble_detailed(table, ctx)
    with ctx.workdps():
        want = _oz(s, ctx)
        assert abs(val - want) < mpf(10) ** (-(target - 2))
        assert abs(val - want) <= err * (1 + mpf("1e-20"))


@pytest.mark.parametrize("s,method", [(3, "root7"), (5, "root15_p")])
def test_monotone_refinement(s, method):
    # raising the target never loses accuracy
    errs = []
    for target in (30, 60, 90):
        ctx = make_context(target)
        val, _, _ = assemble_detailed(zeta_table(s, method), ctx)
        with mp.workdps(140):
            errs.append(abs(val - _oz(s, make_context(120))))
    assert errs[0] >= errs[1] >= errs[2]


def test_corollary3_vs_p2_cross_method():
    # two structurally different routes to the same number
    for s in (5, 9):
        a = zeta_odd(s, method="corollary3", target_digits=100)
        b = zeta_odd(s, method="p2", target_digits=100)
        with mp.workdps(130):
            diff = abs(_reparse(a.decimal_value) - _reparse(b.decimal_value))
            assert diff <= a.error_bound + b.error_bound + mpf("1e-99")


def test_zeta3_30_digit_string():
    res = zeta_odd(3, method="corollary", target_digits=30)
    assert res.decimal_value == "1.20205690315959428539973816151"


def test_rapid_method_needs_few_terms():
    res = zeta_odd(5, method="p5", target_digits=100)
    assert max(res.terms_used.values()) <= 20


def test_auto_dispatch():
    assert zeta_table(3).method == "root15"
    assert zeta_table(5).method == "root3_p"
    assert zeta_table(13).method == "root7_p"  # root3_p degenerates at k = 3
    assert zeta_table(3, "root7").method == "root7"
    # bare root names map onto the parity at hand
    assert zeta_table(5, "root7").method == "root7_p"


def test_auto_is_read_from_one_table(monkeypatch):
    from zetaodd import coefficients

    monkeypatch.setitem(coefficients.AUTO, ("zeta", 3), ("root7",))
    monkeypatch.setitem(coefficients.AUTO, ("pi", 3), ("prop_pi3_fast",))
    assert zeta_table(7).method == "root7"
    assert engine.pi_table(3, "auto").method == "prop_pi3_fast"


def test_auto_falls_back_where_root3_p_degenerates():
    # every field but wall_time
    assert replace(zeta_odd(13, "auto", 30), wall_time=0) == \
        replace(zeta_odd(13, "root7_p", 30), wall_time=0)


def test_parity_guard():
    with pytest.raises(DomainError):
        zeta_odd(3, method="p5")
    with pytest.raises(DomainError):
        zeta_odd(5, method="corollary")
    with pytest.raises(DomainError):
        zeta_odd(4)
    with pytest.raises(DomainError):
        zeta_odd(1)
    with pytest.raises(DomainError):
        zeta_odd(13, method="root3_p")  # k = 3 degenerates


def test_pi_power_routes():
    for n, want_method in ((1, "example62"), (3, "example63"),
                           (5, "example62"), (7, "example63")):
        res = pi_power(n, target_digits=50)
        assert res.method_id == want_method
        with mp.workdps(80):
            want = oracle_pi(make_context(60)) ** n
            assert abs(_reparse(res.decimal_value) - want) < mpf("1e-44") * want


@pytest.mark.parametrize("method,n", [
    ("prop_pi5", 5), ("prop_pi3", 3), ("prop_pi5_fast", 5), ("prop_pi3_fast", 3),
])
def test_pi_power_named_methods(method, n):
    res = pi_power(n, method=method, target_digits=50)
    with mp.workdps(80):
        want = oracle_pi(make_context(60)) ** n
        assert abs(_reparse(res.decimal_value) - want) < mpf("1e-44") * want


def test_pi_power_rejects_even():
    with pytest.raises(DomainError):
        pi_power(2)
    with pytest.raises(DomainError):
        pi_power(0)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_log_prime(p):
    res = log_prime(p, target_digits=50)
    with mp.workdps(80):
        want = oracle_log(p, make_context(60))
        assert abs(_reparse(res.decimal_value) - want) < mpf("1e-48")


def test_log_prime_rejects_7():
    with pytest.raises(DomainError):
        log_prime(7)


def test_zeta3_first_order_error():
    v = zeta3_first_order()
    with mp.workdps(60):
        err = v - _oz(3, make_context(50))
        assert abs(err) < mpf("5e-10")


def test_oracle_zeta_wrapper():
    # the package exports the oracle itself, not a wrapper of it
    assert zetaodd.oracle_zeta is _oz
    ctx = make_context(40)
    with ctx.workdps():
        assert abs(zetaodd.oracle_zeta(3, ctx) - mp.zeta(3)) < mpf("1e-38")


# ----------------------------------------------------------------- profiles


def test_profile_slope_p5():
    p = convergence_profile("zeta(5)", "p5", 12, make_context(120))
    assert abs(p.slope - 5.4575) < 0.15
    # digits recorded against the oracle grow strictly at first
    ns, digits = zip(*p.points)
    assert ns == tuple(range(1, 13))
    assert digits[3] > digits[0]


def test_profile_slope_root7():
    p = convergence_profile("zeta(3)", "root7", 12, make_context(120))
    assert abs(p.slope - 3.6116) < 0.15


def test_profile_handles_saturation():
    # target 30 saturates after ~6 terms of the sqrt15 family; the fit must
    # quietly use the unsaturated prefix
    p = convergence_profile("zeta(3)", "root15", 12, make_context(30))
    assert abs(p.slope - 5.2841) < 0.3


def test_long_profile_holds_no_prefix_past_the_order():
    # 20000 prefixes at 50 digits: each past the pass's order equals the last,
    # so the pass keeps none of them and their digits are counted once
    ctx = make_context(50)
    short = convergence_profile("zeta(3)", "root15", 200, ctx)
    tracemalloc.start()
    try:
        long = convergence_profile("zeta(3)", "root15", 20000, ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert long.points[:200] == short.points and long.slope == short.slope
    assert long.points[200:] == tuple((n, short.points[-1][1]) for n in range(201, 20001))


def test_profile_needs_three_points():
    with pytest.raises(DomainError):
        convergence_profile("zeta(3)", "root15", 2, make_context(50))


def test_profile_pi_constant():
    p = convergence_profile("pi^3", "example63", 10, make_context(60))
    # slowest nome e^-pi: pi/ln10 ~ 1.364 digits per term
    assert abs(p.slope - 1.3644) < 0.15


def test_term_cap_propagates(monkeypatch):
    from zetaodd import series

    monkeypatch.setattr(series, "TERM_CAP", 3)
    with pytest.raises(ConvergenceError):
        zeta_odd(3, method="corollary", target_digits=60)


@pytest.mark.parametrize("s,method,digits", [(3, "root15", 1000), (5, "p5", 60)])
def test_error_bound_rounded_up_to_53_bits(s, method, digits):
    ctx = make_context(digits)
    res = zeta_odd(s, method, digits)
    _, err, _ = assemble_detailed(zeta_table(s, method), ctx)
    assert res.error_bound >= err
    assert res.error_bound._mpf_[3] <= 53  # bit count of the mantissa
    assert err._mpf_[3] > 53 or res.error_bound == err


def test_results_share_their_key_strings():
    a, b = zeta_odd(3, "root15", 30), zeta_odd(3, "root15", 40)
    assert a.constant_id is b.constant_id
    assert all(x is y for x, y in zip(a.terms_used, b.terms_used))
    assert not hasattr(a, "__dict__")  # slots


def test_shared_returns_the_first_string_seen_equal():
    # lru_cache looks a key up by equality and returns the value stored with
    # the first one, so _shared is not the identity on equal, distinct strings
    first, second = "".join(["shared", "-probe"]), "".join(["shared-", "probe"])
    assert first == second and first is not second
    assert engine._shared(first) is first
    assert engine._shared(second) is first


# ------------------------------------------------------ certified digits

# zeta(199), zeta(201) and zeta(401) sit within 1e-59 of 1, where the
# default guard digits leave the interval straddling a digit boundary
CASES = ([("zeta", s, m) for s in (3, 7, 199) for m in ZETA_4KM1_METHODS]
         + [("zeta", s, m) for s in (5, 9, 201, 401) for m in ZETA_4KP1_METHODS]
         + [("pi", 4 - offset, m) for m, (_, offset, _) in METHODS["pi"].items()]
         + [("log", p, None) for p in (2, 3, 5)])


@given(case=st.sampled_from(CASES), digits=st.integers(1, 600))
@example(case=("zeta", 401, "p3"), digits=60)  # printed 0.999... with 20 guard digits
@example(case=("zeta", 201, "root7_p"), digits=10)
@settings(max_examples=25, deadline=None)
def test_digits_are_the_constant_truncated(case, digits):
    what, n, method = case
    if what == "zeta":
        res = zeta_odd(n, method, digits)
    elif what == "pi":
        res = pi_power(n, method, digits)
    else:
        res = log_prime(n, digits)
    with mp.workdps(digits + 30):
        true = {"zeta": mp.zeta, "pi": lambda n: mp.pi ** n, "log": mp.log}[what](n)
        with localcontext() as c:
            c.prec, c.rounding = digits, ROUND_DOWN
            want = +Decimal(mp.nstr(true, digits + 25))
        assert Decimal(res.decimal_value) == want
        ulp = mpf(10) ** (mp.floor(mp.log10(true)) - digits + 1)
        assert abs(mpf(res.decimal_value) - true) <= res.error_bound + ulp


def _guards(monkeypatch, assembly=None) -> list:
    """The guard digits of every assembly, which `assembly` (by default
    the real one) then performs."""
    guards, assembly = [], assembly or engine.assemble_detailed

    def spy(table, ctx):
        guards.append(ctx.guard_digits)
        return assembly(table, ctx)

    monkeypatch.setattr(engine, "assemble_detailed", spy)
    return guards


def test_uncertain_digits_are_reassembled_with_more_guard_digits(monkeypatch):
    guards = _guards(monkeypatch)
    assert zeta_odd(3, "root15", 10).decimal_value == "1.202056903"
    assert guards == [20]  # the common case: one assembly
    guards.clear()
    res = zeta_odd(201, "p2", 10)  # 1 + 3e-61: 20 guard digits leave it at 0.9999999999
    assert res.decimal_value == "1.000000000"
    # value matched 1 in all its 30 digits, so the next assembly resolves 60
    assert guards == [20, 100]
    assert res.error_bound < mpf(2) ** -201


def test_twenty_guard_digits_certify_the_first_assembly(monkeypatch):
    # the guard is 20 digits at every precision: a value away from a digit
    # boundary must not pay for it with a Ziv retry
    guards = _guards(monkeypatch)
    calls = [(zeta_odd, (s, method, digits)) for s in (3, 5, 7, 9)
             for method, (residue, _, _) in METHODS["zeta"].items() if residue == s % 4
             for digits in (250, 1000)]
    calls += ([(zeta_odd, (s, "auto", 3000)) for s in (3, 5)]
              + [(pi_power, (n, "auto", 1000)) for n in (1, 3, 5)]
              + [(log_prime, (p, 1000)) for p in (2, 3, 5)])
    for run, args in calls:
        run(*args)
        assert guards == [20], (run.__name__, args)
        guards.clear()


def test_a_measured_distance_takes_the_sized_guard(monkeypatch):
    # zeta(1001) = 1 + 2^-1001: once the working digits pass its 302 the
    # distance to 1.000000000 is measured, and the guard is sized to it
    guards = _guards(monkeypatch)
    res = zeta_odd(1001, "auto", 10)
    assert len(guards) >= 3 and guards[-1] < 2 * guards[-2]
    with mp.workdps(340), localcontext() as c:
        c.prec, c.rounding = 10, ROUND_DOWN
        assert Decimal(res.decimal_value) == +Decimal(mp.nstr(mp.zeta(1001), 330))


def test_interval_that_never_narrows_raises(monkeypatch):
    guards = _guards(monkeypatch, lambda table, ctx: (mpf(1), mpf("0.5"), {}))
    with pytest.raises(ConvergenceError, match=r"zeta\(3\).*5 attempts"):
        zeta_odd(3, "root15", 20)
    assert guards == [20, 40, 80, 160, 320]
