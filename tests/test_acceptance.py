"""Acceptance gate: one test per headline guarantee of the package.

Run with `pytest -v tests/test_acceptance.py` to get exactly one pass/fail
line per guarantee.  Wall-clock budgets are enforced inside the tests
themselves so a regression in convergence shows up here, not in a profiler.
"""

import random
import time
from fractions import Fraction

from mpmath import mp

from fixed_point import fixed_mpf, truncate_digits
from zetaodd.coefficients import (
    ZETA_4KM1_METHODS,
    ZETA_4KP1_METHODS,
    assemble_detailed,
    coeffs_log,
    coeffs_pi,
    method_table,
    negative_q_rewrite,
)
from zetaodd.coefficients import _p2_raw, _p3_raw, _p5_raw, _real_bernoulli_sum
from zetaodd.core import make_context
from zetaodd.engine import (
    convergence_profile,
    log_prime,
    pi_power,
    zeta3_first_order,
    zeta_odd,
    zeta_table,
)
from zetaodd.identities import (
    check_lemma_p4,
    check_lemma_sech,
    check_multisection,
    check_t1_case1,
    check_t1_case2,
    check_t1_case3,
    check_zeta_free,
)
from zetaodd.oracles import oracle_log, oracle_pi, oracle_zeta


def test_01_first_order_zeta3_within_5e10_under_1s():
    """One sinh term + one constant approximate zeta(3) to ~3e-10, instantly."""
    t0 = time.perf_counter()
    ctx = make_context(50)
    with ctx.workdps():
        err = zeta3_first_order(ctx) - oracle_zeta(3, ctx)
    elapsed = time.perf_counter() - t0
    assert abs(err) < 5e-10
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    # the approximation overshoots; sign is informational, not guaranteed
    print(f"error_vs_oracle = {mp.nstr(err, 3)}")


def test_02_published_coefficient_tables_exact():
    """Generated coefficients reproduce every hand-checked table, exactly."""
    from test_coefficients import (
        P3_GOLDEN,
        P5_GOLDEN,
        ROOT7_M_GOLDEN,
        ROOT7_P_GOLDEN,
        ROOT15_M_GOLDEN,
        ROOT15_P_GOLDEN,
        _coeffs,
    )

    t0 = time.perf_counter()
    families = [  # zeta(4k + offset)
        (1, "p3", P3_GOLDEN),
        (1, "p5", P5_GOLDEN),
        (1, "root7_p", ROOT7_P_GOLDEN),
        (1, "root15_p", ROOT15_P_GOLDEN),
        (-1, "root7", ROOT7_M_GOLDEN),
        (-1, "root15", ROOT15_M_GOLDEN),
    ]
    for offset, method, golden in families:
        for k, expected in golden.items():
            got = _coeffs(method_table("zeta", method, 4 * k + offset))
            assert got == expected, f"{method} k={k}: {got} != {expected}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.3f}s"


def test_03_hundred_digit_zeta_every_method():
    """All 22 (s, method) pairs for s in 3..9 agree with zeta to 1e-98."""
    t0 = time.perf_counter()
    combos = [(s, m) for s in (3, 7) for m in ZETA_4KM1_METHODS]
    combos += [(s, m) for s in (5, 9) for m in ZETA_4KP1_METHODS]
    assert len(combos) == 22
    ctx_hi = make_context(130)
    with ctx_hi.workdps():
        truth = {s: oracle_zeta(s, ctx_hi) for s in (3, 5, 7, 9)}
        for s, method in combos:
            res = zeta_odd(s, method, target_digits=100)
            err = abs(mp.mpf(res.decimal_value) - truth[s])
            assert err < mp.mpf("1e-98"), f"zeta({s})/{method}: err={err}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.3f}s"


def test_04_convergence_slopes_match_nome_decay():
    """Fitted digits-per-term sits within 5% of pi*r/ln10 for each family."""
    ctx = make_context(120)
    expected = [
        ("zeta(5)", "p5", 5.45),
        ("zeta(3)", "root15", 5.28),
        ("zeta(3)", "root7", 3.60),
        ("zeta(5)", "p3", 4.09),
    ]
    for constant, method, rate in expected:
        prof = convergence_profile(constant, method, 12, ctx)
        assert abs(prof.slope - rate) / rate < 0.05, (
            f"{constant}/{method}: slope {prof.slope:.4f} vs {rate}")


def test_05_functional_equations_randomized():
    """Every t <-> 1/t identity holds to 1e-45 at 20 half-plane points."""
    ctx = make_context(50)
    tol = mp.mpf("1e-45")
    with mp.workdps(60):
        points = [
            mp.mpf(1) / 2,
            1 / (1 + mp.mpc(0, 1)),
            (mp.sqrt(3) + mp.mpc(0, 1)) / 2,
            (mp.sqrt(3) - mp.mpc(0, 1)) / 2,
            (mp.sqrt(7) + mp.mpc(0, 1)) / 4,
            (mp.sqrt(7) - mp.mpc(0, 1)) / 4,
            (mp.sqrt(15) + mp.mpc(0, 1)) / 4,
            (mp.sqrt(15) - mp.mpc(0, 1)) / 4,
        ]
        rng = random.Random(20260815)
        while len(points) < 20:
            r = 0.5 + 1.5 * rng.random()
            phi = (rng.random() * 2 - 1) * mp.pi / 3
            points.append(r * mp.exp(mp.mpc(0, 1) * phi))

    for i, t in enumerate(points):
        k = i % 4 + 1
        assert check_t1_case1(t, ctx).rel_residual < tol
        assert check_t1_case2(k, t, ctx).rel_residual < tol
        assert check_t1_case3(k, t, ctx).rel_residual < tol

    for q in ("0.09", "0.25", "0.64"):
        for s in (0, -3, -7):
            assert check_lemma_p4(mp.mpf(q), s, ctx).rel_residual < tol
            assert check_lemma_sech(mp.mpf(q), s, ctx).rel_residual < tol

    free_cases = [
        (1, 0, Fraction(1, 2), 1),
        (1, 1, Fraction(1, 3), mp.mpf("0.9")),
        (1, 2, Fraction(1, 2), 1 + mp.mpc(0, 1) / 5),
        (2, 1, Fraction(1, 2), 1),
        (2, 2, Fraction(2, 3), mp.mpf("1.25")),
        (2, 3, Fraction(1, 2), 1),
    ]
    for case, k, a, t in free_cases:
        assert check_zeta_free(case, k, a, t, ctx).rel_residual < tol


def test_06_multisection_exact_for_small_primes():
    """The sigma_s multisection balances exactly in rational arithmetic."""
    for p in (2, 3, 5, 7):
        for s in range(-9, 4):
            assert check_multisection(p, s, order=50) == Fraction(0)


def test_07_pi_powers_and_prime_logs_to_50_digits():
    """pi, pi^3, pi^5, pi^7, log 2/3/5 all come out 50 digits deep; the
    positive-nome rewrite changes the series, never the value."""
    ctx80 = make_context(80)
    with ctx80.workdps():
        pi80 = oracle_pi(ctx80)
        for n in (1, 3, 5, 7):
            res = pi_power(n, target_digits=50)
            assert res.decimal_value == truncate_digits(pi80 ** n, 50)
        for p in (2, 3, 5):
            res = log_prime(p, target_digits=50)
            assert res.decimal_value == truncate_digits(oracle_log(p, ctx80), 50)

    ctx50 = make_context(50)
    tables = [coeffs_log(2), coeffs_log(3), coeffs_log(5),
              coeffs_pi("prop_pi5", 1), zeta_table(5, "root3_p")]
    with ctx50.workdps():
        for table in tables:
            v0 = fixed_mpf(*assemble_detailed(table, ctx50)[::2])
            v1 = fixed_mpf(*assemble_detailed(negative_q_rewrite(table), ctx50)[::2])
            assert abs(v0 - v1) < mp.mpf("1e-45"), table.method


def test_08_gaussian_bernoulli_sums_are_real():
    """The i^j Bernoulli double sums have exactly zero imaginary part."""
    for method, raw in (("p2", _p2_raw), ("p3", _p3_raw), ("p5", _p5_raw)):
        for k in range(1, 9):
            _real_bernoulli_sum(method, k, raw(k)[-1])  # AssertionError unless real
