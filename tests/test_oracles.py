"""Reference-value routes: these must not share code with the formula engine,
so they are checked against mpmath's own implementations instead."""

import ast

import pytest
from mpmath import mp, mpf

from zetaodd import oracles
from zetaodd.core import DomainError, make_context
from zetaodd.oracles import oracle_log, oracle_pi, oracle_zeta


@pytest.mark.parametrize("digits", [50, 200, 1000])
def test_oracle_pi_vs_mpmath(digits):
    ctx = make_context(digits)
    v = oracle_pi(ctx)
    with mp.workdps(digits + 30):
        assert abs(v - mp.pi) < mpf(10) ** (-(digits + 5))


@pytest.mark.parametrize("digits", [30, 50, 200, 1000])
@pytest.mark.parametrize("s", [2, 3, 5, 7, 9, 13, 17, 25, 51, 201])
def test_oracle_zeta_vs_mpmath(s, digits):
    ctx = make_context(digits)
    v = oracle_zeta(s, ctx)
    with mp.workdps(digits + 30):
        assert abs(v - mp.zeta(s)) < mpf(10) ** (-(digits + 5))


@pytest.mark.parametrize("digits", [50, 200, 1000])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_oracle_log_vs_mpmath(p, digits):
    ctx = make_context(digits)
    v = oracle_log(p, ctx)
    with mp.workdps(digits + 30):
        assert abs(v - mp.log(p)) < mpf(10) ** (-(digits + 5))


def test_oracle_zeta_even_cross_check():
    # zeta(2) = pi^2/6 and zeta(4) = pi^4/90 tie the zeta route to the pi route
    ctx = make_context(80)
    with ctx.workdps():
        pi = oracle_pi(ctx)
        assert abs(oracle_zeta(2, ctx) - pi**2 / 6) < mpf("1e-78")
        assert abs(oracle_zeta(4, ctx) - pi**4 / 90) < mpf("1e-78")


def test_oracle_log_additivity():
    # log(2) + log(5) = log(10), a relation the atanh expansions don't build in
    ctx = make_context(60)
    with ctx.workdps():
        assert abs(oracle_log(2, ctx) + oracle_log(5, ctx) - mp.log(10)) < mpf("1e-58")


def test_oracle_zeta_rejects_one():
    with pytest.raises(Exception):
        oracle_zeta(1, make_context(30))


@pytest.mark.parametrize("s", [2.5, mpf(3), 3.0, True])
def test_oracle_zeta_rejects_non_integer_s(s):
    ctx = make_context(30)
    oracle_zeta(3, ctx)  # cached: an equal key of another type must not hit it
    with pytest.raises(DomainError):
        oracle_zeta(s, ctx)


def test_oracle_log_rejects_other_primes():
    with pytest.raises(Exception):
        oracle_log(7, make_context(30))


def test_oracles_memoized():
    ctx = make_context(50)
    assert oracle_pi(ctx) == oracle_pi(ctx)
    import time

    t0 = time.perf_counter()
    oracle_zeta(9, make_context(300))
    first = time.perf_counter() - t0
    t0 = time.perf_counter()
    oracle_zeta(9, make_context(300))
    second = time.perf_counter() - t0
    # memoized second call must be essentially free
    assert second < max(first, 0.01)


def test_oracle_cache_is_bounded():
    size = oracle_pi.cache_info().maxsize
    for digits in range(1, size + 10):
        oracle_pi(make_context(digits))
    assert oracle_pi.cache_info().currsize <= size


def test_oracles_stay_independent_of_the_evaluation_path():
    """The oracles check the Lambert-series path, so they may neither import
    it nor take a value from mpmath's own constants and functions."""
    path_modules = {"series", "coefficients", "engine", "identities"}
    mp_functions = {"zeta", "pi", "log", "atan", "power"}
    tree = ast.parse(open(oracles.__file__, encoding="utf-8").read())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")
            names = {alias.name for alias in node.names}
            assert not path_modules & (set(module) | (names if node.level else set()))
            if node.module == "mpmath":
                assert not mp_functions & names
        elif isinstance(node, ast.Import):
            for alias in node.names:
                assert not path_modules & set(alias.name.split("."))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "mp"):
            assert node.attr not in mp_functions, f"oracles reads mp.{node.attr}"
