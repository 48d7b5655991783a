"""The fixed-point series kernel and the closed-form term count.

The kernel must return the same terms_used-term sum as the term-by-term
reference (series_reference), at real and complex nomes, within the error
it certifies; a table's pass over one base nome must return the weighted
sum of its one-term passes, within both their certified errors, and one
exponential and one pass per base; a base's exponential is computed once
per process and served rounded from the highest precision asked for; the
closed-form N must be the smallest whose closed-form bound beats the
target, the N of the working-precision search at every base power of the
tables, targets down to 10^-(10^5) and ulp ties included, and the N of the
term-by-term search wherever the target is not at an ulp tie of the two
roundings of the bound, with one working-precision bound away from ulp
ties and the working-precision test at them; and every series value, of a
table, an identity check or a convergence profile, must come out of the
kernel's pass, an identity check taking one pass per base nome (a lemma
side the weighted sum of its one-term passes) and a profile one pass for
all the prefixes of its slowest series.
"""

import math
from collections import Counter
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from zetaodd import coefficients, engine, identities, series
from zetaodd.coefficients import (
    METHODS,
    ZETA_4KM1_METHODS,
    ZETA_4KP1_METHODS,
    assemble_detailed,
    coeffs_log,
    method_table,
    negative_q_rewrite,
)
from zetaodd.core import ConvergenceError, DomainError, PrecisionContext, make_context
from zetaodd.series import (
    QSymbolic,
    lambert_eval,
    sech_series,
)
from fixed_point import fixed_mpf
from series_reference import prefix_sums, series_sum

EVALUATORS = {"lambert": lambert_eval,
              "lambert_derivative": partial(series._evaluate, "lambert_derivative"),
              "sech_series": sech_series}


def _table_nomes() -> list:
    """Every nome of the k = 1 tables of every method and of the log
    tables, with and without the negative-q rewrite."""
    tables = [gen(1) for methods in METHODS.values()
              for _, _, gen in methods.values()]
    tables += [coeffs_log(p) for p in (2, 3, 5)]
    nomes = {b.q for t in tables for u in (t, negative_q_rewrite(t))
             for b, _ in u.entries if b.q is not None}
    return sorted(nomes, key=lambda q: (q.decay_key(), q.sign))


def _reference(kind, q, s, n_terms):
    """The reference's n_terms-term sum at q, times q for the derivative,
    which the kernel sums as q dL/dq."""
    return series_sum(kind, q, s, n_terms) * q ** series._KINDS[kind].lift


NOMES = _table_nomes()
CASES = [(kind, q) for kind in EVALUATORS for q in NOMES
         if kind != "sech_series" or q.sign > 0]


def test_table_nomes_cover_both_signs():
    assert any(q.sign < 0 for q in NOMES) and len(NOMES) >= 15


# ---------------------------------------------------------- the kernel


@given(case=st.sampled_from(CASES), s=st.integers(0, 100).map(lambda j: -2 * j - 1),
       digits=st.integers(10, 3000), j=st.sampled_from([1, 2, 3]))
@settings(max_examples=40, deadline=None)
def test_kernel_within_its_certified_error(case, s, digits, j):
    # j = 1: the one-term pass at the nome; j > 1: the term at q = sign x^j
    # over the base x = |nome|, where the family's denominators and the j^a
    # numerators differ from j = 1
    kind, q = case
    ctx = make_context(digits)
    with ctx.workdps():
        target = mpf(10) ** (-(digits + ctx.guard_digits // 2))
        x = abs(q.value(ctx))
    if j == 1:
        r = EVALUATORS[kind](q, s, target, ctx)
        n, value, rounding = r.terms_used, r.value, r.rounding_error
    else:
        [(n, _, _)], sums, prec = series.base_sums(x, [series.Term(kind, j, q.sign, s, target)],
                                                   ctx)
        value, rounding = (fixed_mpf(v, prec) for v in sums[None])
    assert 0 < rounding < target
    # the same nome value, summed term by term at twice the precision
    wide = PrecisionContext(ctx.working_digits, ctx.working_digits)
    with wide.workdps():
        qj = q.sign * x ** j  # at the reference's precision, not the working one
        assert abs(value - _reference(kind, qj, s, n)) <= rounding


@given(radius=st.floats(0.05, 0.9), phase=st.floats(-math.pi, math.pi),
       s=st.integers(-9, 0), digits=st.integers(10, 600))
@settings(max_examples=25, deadline=None)
def test_complex_kernel_within_its_certified_error(radius, phase, s, digits):
    ctx = make_context(digits)
    with ctx.workdps():
        target = mpf(10) ** (-(digits + ctx.guard_digits // 2))
        q = mpf(radius) * mp.expj(phase)
    r = lambert_eval(q, s, target, ctx)
    assert 0 < r.rounding_error < target and isinstance(r.value, mp.mpc)
    n = r.terms_used
    # 30 more digits keep the reference's own rounding, over up to ~2 * 10^4
    # terms, far below the kernel's error of about 2^-(working bits + 40)
    with mp.workdps(ctx.working_digits + 30):
        sums = prefix_sums("lambert", q, s, n + max(8, n // 4))
        assert abs(r.value - sums[n - 1]) <= r.rounding_error
        # the tail bound taken through |q| holds for the complex q
        assert abs(sums[-1] - sums[n - 1]) <= r.tail_bound


def test_kernel_real_nomes_off_the_tables():
    # plain real nomes near the unit circle, s = 0 included
    ctx = make_context(40)
    wide = PrecisionContext(ctx.working_digits, ctx.working_digits)
    for kind, q, s in (("lambert", mpf("-0.9"), 0), ("lambert", mpf("0.5"), -2),
                       ("lambert_derivative", mpf("0.75"), -1),
                       ("sech_series", mpf("0.6"), 0)):
        r = EVALUATORS[kind](q, s, mpf(10) ** -45, ctx)
        with wide.workdps():
            assert abs(r.value - _reference(kind, q, s, r.terms_used)) <= r.rounding_error


# ------------------------------------------------- one pass per base nome


def _table(case):
    if case[0] == "log":
        return coeffs_log(case[1])
    constant, name, k = case
    try:
        return METHODS[constant][name][2](k)
    except DomainError:  # root3_p refuses k divisible by 3
        return None


TABLE_CASES = ([(c, name, k) for c, methods in METHODS.items() for name in methods
                for k in range(1, 5)] + [("log", p) for p in (2, 3, 5)])
TRUE_VALUE = {"zeta": lambda n: mp.zeta(int(n)), "pi": lambda n: mp.pi ** int(n),
              "log": lambda p: mp.log(int(p))}


@given(case=st.sampled_from(TABLE_CASES), rewrite=st.booleans(),
       digits=st.integers(10, 2000))
@settings(max_examples=60, deadline=None)
def test_each_base_pass_is_the_sum_of_its_one_term_passes(case, rewrite, digits):
    table = _table(case)
    if table is None:
        return
    if rewrite:
        table = negative_q_rewrite(table)
    ctx = make_context(digits)
    for base, group in coefficients._by_base(table.entries).items():
        with ctx.workdps():
            target = mpf(10) ** (-(digits + ctx.guard_digits // 2))
            run = [coefficients._series_term(b, c, base, target) for b, c in group]
            # any base will do; a short one makes every nome +-x^j exact
            with mp.workprec(mp.prec // max(t.j for t in run)):
                x = +base.value(ctx)
            wide = 4 * mp.prec  # for exact sums of the kernels' values
        info, sums, prec = series.base_sums(x, run, ctx)
        want, slack = Counter(), Counter()
        for t, (n, _, _) in zip(run, info):
            with ctx.workdps():
                q = t.sign * x ** t.j  # exact
            r = EVALUATORS[t.kind](q, t.s, t.target, ctx)
            assert r.terms_used == n
            with mp.workprec(wide):
                for key, w in t.weights:
                    want[key] += r.value * w.numerator / w.denominator
                    slack[key] += r.rounding_error * abs(w)
        assert sums.keys() == want.keys()
        with mp.workprec(wide):
            for key, (value, rounding) in sums.items():
                value, rounding = fixed_mpf(value, prec), fixed_mpf(rounding, prec)
                assert abs(value - want[key]) <= rounding + slack[key], (base, key)
    total, err, scale, _ = assemble_detailed(table, ctx)
    with mp.workdps(ctx.working_digits + 20):
        what, arg = table.constant.rstrip(")").replace("^", "(").split("(")
        assert abs(fixed_mpf(total, scale) - TRUE_VALUE[what](arg)) <= fixed_mpf(err, scale)


@pytest.mark.parametrize("constant, method, n, bases", [
    ("zeta", "root15", 3, 1), ("zeta", "p3", 5, 1), ("zeta", "p5", 5, 1),
    ("pi", "example63", 3, 1), ("zeta", "corollary3", 5, 1),
    ("pi", "prop_pi3", 3, 2), ("pi", "prop_pi3_fast", 3, 2)])
def test_one_exponential_and_one_pass_per_base(constant, method, n, bases, monkeypatch):
    calls = Counter()

    def count(owner, name):
        original = getattr(owner, name)

        def spy(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, spy)

    count(QSymbolic, "value")
    count(coefficients, "base_sums")
    count(series, "_fixed_pass")
    assemble_detailed(method_table(constant, method, n), make_context(100))
    assert calls == {"value": bases, "base_sums": bases, "_fixed_pass": bases}


def test_exponential_cache_rounds_its_highest_precision(monkeypatch):
    monkeypatch.setattr(series, "_EXP", {})
    nomes = [QSymbolic(1, 1), QSymbolic(-1, 5), QSymbolic(1, 2, 15), QSymbolic(-1, 1, 3)]
    highest = 0
    for digits in (3000, 1000, 50, 1000, 4000, 200):
        ctx = make_context(digits)
        with ctx.workdps():
            prec = mp.prec
        highest = max(highest, prec)
        for q in nomes:
            before = mp.prec
            v = q.value(ctx)
            assert mp.prec == before and v._mpf_[3] <= prec
            with mp.workprec(prec + 100):
                a = q.mult * mp.sqrt(q.root) * mp.pi
                exact = q.sign * mp.exp(-a)
                # rounded from 20 more bits: within (1 + (4A + 2) 2^-20) u,
                # inside the (4A + 2) u that assemble_detailed allows
                assert abs(v - exact) <= (1 + (4 * a + 2) * mpf(2) ** -20) \
                    * mpf(2) ** -prec * abs(exact)
        assert series._EXP.keys() == {(q.mult, q.root) for q in nomes}
        assert {bits for bits, _ in series._EXP.values()} == {highest + 20}


def test_lower_precision_request_runs_no_exponential(monkeypatch):
    # the second request is served from the first's exponential
    monkeypatch.setattr(series, "_EXP", {})
    exps = []
    exp = mp.exp

    def counted_exp(*args):
        exps.append(mp.prec)
        return exp(*args)
    monkeypatch.setattr(mp, "exp", counted_exp)
    for digits, n_exp in ((1200, 1), (1000, 0)):
        exps.clear()
        engine.zeta_odd(3, "root15", digits)
        assert len(exps) == n_exp


# ------------------------------------------------- the closed-form N


def _loop_terms_needed(kind, qa, target):
    """The term-by-term search the closed form replaced, kept as the
    reference: smallest N whose tail bound is below target."""
    den = kind.den(qa)
    cap = series.TERM_CAP
    qpow = kind.first(qa) * qa  # first(|q|) |q|^N
    n = 1
    while (bound := qpow * kind.weight(n) / den) >= target:
        n += 1
        if n > cap:
            raise ConvergenceError(
                f"tail bound did not reach {mp.nstr(target, 6)} "
                f"within {cap} terms")
        qpow *= qa
    return n, bound


def _termwise_bound(kind, qa, n):
    """The tail bound after n terms rounded as the search rounds it, |q|
    multiplied in one factor at a time."""
    qpow = kind.first(qa) * qa
    for _ in range(n - 1):
        qpow *= qa
    return qpow * kind.weight(n) / kind.den(qa)


def _targets(kind, qa):
    """Targets at both roundings of the bound of several n, one ulp either
    side, and powers of ten."""
    out = [mpf(10) ** -e for e in (3, 17, 40, 75)]
    for n in (1, 2, 3, 7, 20):
        for b in (series._bound(kind, qa, n), _termwise_bound(kind, qa, n)):
            ulp = mp.ldexp(1, mp.mag(b) - mp.prec)
            out += [b - ulp, b, b + ulp]
    return out


def _tie(kind, qa, n, target) -> bool:
    """Whether target lies within the rounding between the closed-form and
    the term-wise bound after n terms, where the two may compare apart."""
    b = series._bound(kind, qa, n)
    return n >= 1 and abs(b - target) <= b * mp.ldexp(n + 8, 2 - mp.prec)


@pytest.mark.parametrize("digits", [30, 300])
@pytest.mark.parametrize("kind", list(EVALUATORS))
def test_closed_form_n_matches_the_search(kind, digits):
    k = series._KINDS[kind]
    ctx = make_context(digits)
    qs = [q for q in NOMES if q.sign > 0] if kind == "sech_series" else NOMES
    with ctx.workdps():
        qas = [abs(q.value(ctx)) for q in qs] + [mpf("0.5"), mpf("0.8")]
        for qa in qas:
            for target in _targets(k, qa):
                n, bound = series._terms_needed(kind, qa, target)
                # minimal: N terms meet the target, N - 1 miss it
                assert bound == series._bound(k, qa, n) < target
                assert n == 1 or series._bound(k, qa, n - 1) >= target
                ref_n, ref_bound = _loop_terms_needed(k, qa, target)
                if n != ref_n:  # only at an ulp tie of one of the two searches
                    assert any(_tie(k, qa, m, target)
                               for m in (n - 1, n, ref_n - 1, ref_n)), (kind, qa, target)
                    continue
                # one rounding against n: equal up to the rounding
                assert abs(bound - ref_bound) <= ref_bound * mp.ldexp(n + 8, 2 - mp.prec)


def test_closed_form_n_before_the_derivative_bound_peaks():
    # (1+n) q^n rises before it falls when q is near 1
    k = series._KINDS["lambert_derivative"]
    with mp.workdps(30):
        qa = mpf("0.99")  # the bound peaks near n = 99
        for target in (mpf(10) ** 7, mpf(10) ** 6, mpf(1000), mpf("1e-10")):
            assert series._terms_needed("lambert_derivative", qa, target)[0] == \
                _loop_terms_needed(k, qa, target)[0]


def _base_powers() -> list:
    """(base, j) of every nome |q| = base^j of every METHODS table at k = 1
    and of the log tables, with and without the negative-q rewrite."""
    tables = [gen(1) for methods in METHODS.values() for _, _, gen in methods.values()]
    tables += [coeffs_log(p) for p in (2, 3, 5)]
    return sorted({(base, basis.q.mult // base.mult)
                   for t in tables for u in (t, negative_q_rewrite(t))
                   for base, group in coefficients._by_base(u.entries).items()
                   for basis, _ in group}, key=str)


def _search(kind, qa, target) -> tuple:
    """The smallest n with _bound(n) < target at working precision, by
    doubling and bisection: at |q| <= e^-pi the bound falls by over 10x a
    term, so the n below the target are a ray, rounding and all."""
    lo, hi = 0, 1  # bound(lo) >= target or lo = 0; bound(hi) < target
    while series._bound(kind, qa, hi) >= target:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if series._bound(kind, qa, mid) < target else (mid, hi)
    assert hi == 1 or series._bound(kind, qa, hi - 1) >= target
    return hi, series._bound(kind, qa, hi)


@given(kind=st.sampled_from(list(series._KINDS)), nome=st.sampled_from(_base_powers()),
       digits=st.integers(10, 2000), exponent=st.floats(math.log10(5), 5),
       mantissa=st.floats(1, 10, exclude_max=True))
@settings(max_examples=60, deadline=None)
def test_n_is_the_working_precision_search_down_to_extreme_targets(kind, nome, digits,
                                                                  exponent, mantissa):
    k = series._KINDS[kind]
    base, j = nome
    ctx = make_context(digits)
    with ctx.workdps():
        qa = base.value(ctx) ** j
        target = mpf(mantissa) * mpf(10) ** -round(10 ** exponent)
        n, b = _search(k, qa, target)
        assert series._terms_needed(kind, qa, target) == (n, b)
        # ties: the bound at N itself and one ulp either side
        ulp = mp.ldexp(1, mp.mag(b) - mp.prec)
        for tie in (b - ulp, b, b + ulp):
            assert series._terms_needed(kind, qa, tie) == _search(k, qa, tie)


def _count_bounds(monkeypatch) -> list:
    """The n of every working-precision _bound from here on."""
    calls, bound = [], series._bound

    def spy(kind, qa, n, lead=None):
        calls.append(n)
        return bound(kind, qa, n, lead)

    monkeypatch.setattr(series, "_bound", spy)
    return calls


def _positive_qas(kind: str, ctx) -> list:
    """|q| of every table nome a series of `kind` may take."""
    return [abs(q.value(ctx)) for q in NOMES if q.sign > 0 or kind != "sech_series"]


@pytest.mark.parametrize("digits", [30, 300, 2000])
@pytest.mark.parametrize("kind", list(EVALUATORS))
def test_n_takes_one_working_precision_bound_away_from_ties(kind, digits, monkeypatch):
    # every test bound(n) < target is decided in floats; the returned bound
    # is the one working-precision bound
    k, ctx = series._KINDS[kind], make_context(digits)
    calls = _count_bounds(monkeypatch)
    with ctx.workdps():
        for qa in _positive_qas(kind, ctx):
            for e in (3, 17, 40, 75, digits, 10 * digits):
                calls.clear()
                n, _ = series._terms_needed(kind, qa, mpf(10) ** -e)
                assert calls == [n], (kind, qa, e)


@pytest.mark.parametrize("digits", [30, 300])
@pytest.mark.parametrize("kind", list(EVALUATORS))
def test_ulp_ties_take_the_working_precision_test(kind, digits, monkeypatch):
    # at |q| <= e^-pi the bound falls at every term, so a target within
    # ulps of bound(m) has N = m or m + 1, and the walk tests both N and
    # N - 1: the float logs cannot tell such a tie, and it falls back
    k, ctx = series._KINDS[kind], make_context(digits)
    calls = _count_bounds(monkeypatch)
    with ctx.workdps():
        for qa in _positive_qas(kind, ctx):
            for target in _targets(k, qa)[4:]:  # the bounds and an ulp either side
                want = _search(k, qa, target)
                calls.clear()
                assert series._terms_needed(kind, qa, target) == want
                assert len(calls) > 1, (kind, qa, target)


@pytest.mark.parametrize("kind", list(series._KINDS))
def test_a_zero_nome_takes_one_term_and_no_log(kind):
    with mp.workdps(30):
        assert series._terms_needed(kind, mpf(0), mpf("1e-30")) == (1, 0)


@pytest.mark.parametrize("kind", list(EVALUATORS))
def test_term_cap_three_raises_naming_evaluator_and_env(kind, monkeypatch):
    monkeypatch.setattr(series, "TERM_CAP", 3)
    with pytest.raises(ConvergenceError) as info:
        EVALUATORS[kind](QSymbolic(1, 1), -3, mpf("1e-40"), make_context(50))
    message = str(info.value)
    assert message.startswith(f"{kind}: ") and "within 3 terms" in message
    assert "ZETA_ODD_MAX_TERMS" not in message
    # the cap is the largest N allowed, as in the search
    with mp.workdps(70):
        qa = QSymbolic(1, 1).value(make_context(50))
        target = series._bound(series._KINDS[kind], qa, 3) * 2
    assert EVALUATORS[kind](QSymbolic(1, 1), -3, target, make_context(50)).terms_used == 3


# ------------------------------------------------------ which path runs


def _count_passes(monkeypatch) -> list:
    """Spy on the kernel's pass: one list of (term, N, order) per pass."""
    passes, run = [], series._fixed_pass

    def spy(x, ax, fixed, prec):
        passes.append([(t, n, order) for t, _, n, order in fixed])
        return run(x, ax, fixed, prec)
    monkeypatch.setattr(series, "_fixed_pass", spy)
    return passes


@pytest.mark.parametrize("digits", [50, 1000])
def test_every_table_term_takes_the_kernel(digits, monkeypatch):
    passes = _count_passes(monkeypatch)
    for method in ZETA_4KM1_METHODS:
        engine.zeta_odd(3, method, digits)
    for method in ZETA_4KP1_METHODS:
        engine.zeta_odd(5, method, digits)
    for method, (_, offset, _) in METHODS["pi"].items():
        engine.pi_power(4 - offset, method, digits)
    for p in (2, 3, 5):
        engine.log_prime(p, digits)
    assert len(passes) >= len(ZETA_4KM1_METHODS) + len(ZETA_4KP1_METHODS) + 3


def test_loose_target_near_the_unit_circle_takes_the_pass(monkeypatch):
    # one term meets the target; the power series needs ~2 * 10^4 powers of q
    passes = _count_passes(monkeypatch)
    q = mpf("0.99")
    r = lambert_eval(q, -1, mpf(10) ** 6, make_context(50))
    assert r.terms_used == 1 and len(passes) == 1
    with mp.workdps(200):  # the one-term sum at the same 53-bit q
        assert abs(r.value - q / (1 - q)) <= r.rounding_error


def test_power_series_past_four_term_caps_raises():
    # 1 - 10^-5 would need ~2 * 10^7 powers of q, over 4 * TERM_CAP + 64
    with pytest.raises(ConvergenceError, match="powers of q"):
        lambert_eval(1 - mpf("1e-5"), -1, mpf(10) ** 12, make_context(50))


@pytest.mark.parametrize("target", [mpf(10) ** 3, mpf(10) ** -35], ids=["loose", "tight"])
def test_real_nomes_never_take_the_loop(target, monkeypatch):
    ctx = make_context(30)
    wide = PrecisionContext(ctx.working_digits, ctx.working_digits)
    cases = [(kind, mpf(q), s) for kind in EVALUATORS
             for q in ("0.01", "0.5", "0.9", "0.99") for s in (-1, -3)]
    passes = _count_passes(monkeypatch)
    results = {case: EVALUATORS[case[0]](*case[1:], target, ctx) for case in cases}
    assert len(passes) == len(cases)
    for (kind, q, s), r in results.items():
        assert r.tail_bound < target
        with wide.workdps():
            ref = _reference(kind, q, s, r.terms_used)
            assert abs(r.value - ref) <= r.rounding_error, (kind, q, s)


# each identity check and its passes: one per base nome
IDENTITY_CHECKS = [
    (lambda ctx: identities.check_t1_case1(mp.mpc("1.5", "0.5"), ctx), 2),
    (lambda ctx: identities.check_t1_case2(2, mp.mpc("1.2", "0.3"), ctx), 2),
    (lambda ctx: identities.check_t1_case3(1, mp.mpc("0.8", "-0.4"), ctx), 2),
    (lambda ctx: identities.check_zeta_free(1, 1, "1/2", mp.mpc("1.1", "0.2"), ctx), 6),
    (lambda ctx: identities.check_lemma_p4(mpf("0.3"), -3, ctx), 2),
    (lambda ctx: identities.check_lemma_sech(mpf("0.4"), -3, ctx), 2),
]


def _spy_sides(monkeypatch) -> list:
    """Spy on the identity checks' weighted sums: (x, entries, target, result) each."""
    sides, run = [], identities._weighted_sum

    def spy(x, entries, target, ctx):
        sides.append((x, entries, target, run(x, entries, target, ctx)))
        return sides[-1][-1]
    monkeypatch.setattr(identities, "_weighted_sum", spy)
    return sides


def test_complex_nomes_and_identity_checks_take_the_pass(monkeypatch):
    ctx = make_context(30)
    passes = _count_passes(monkeypatch)
    r = lambert_eval(mp.mpc("0.1", "0.2"), -3, mpf("1e-30"), ctx)
    assert len(passes) == 1 and 0 < r.rounding_error < mpf("1e-30")
    # every series value of every numeric identity check is one pass's,
    # one pass per base, with a certified rounding error
    sides = _spy_sides(monkeypatch)
    for check, bases in IDENTITY_CHECKS:
        passes.clear()
        sides.clear()
        check(ctx)
        assert len(passes) == len(sides) == bases
        assert any(isinstance(r.value, mp.mpc) for *_, r in sides)
        assert all(0 < r.rounding_error < mpf(10) ** -35 for *_, r in sides)


@pytest.mark.parametrize("digits", [30, 200])
@pytest.mark.parametrize("s", [0, -1, -3, -7])
@pytest.mark.parametrize("q", ["0.05", "0.3", "0.5"])
@pytest.mark.parametrize("check", ["check_lemma_p4", "check_lemma_sech"])
def test_merged_lemma_sides_are_their_one_term_sums(check, q, s, digits, monkeypatch):
    # a lemma side is one pass over its base: the weighted sum of the
    # one-term passes of its series, each at its nome sign x^j taken exactly,
    # with the same N, within their certified rounding and tail bounds
    sides = _spy_sides(monkeypatch)
    ctx = make_context(digits)
    getattr(identities, check)(mpf(q), s, ctx)
    assert [len(entries) for _, entries, *_ in sides] == (
        [2, 3] if check == "check_lemma_p4" else [2, 1])
    for x, entries, target, side in sides:
        with mp.workdps(5 * ctx.working_digits):  # exact nomes (x^4) and weighted sums
            nomes = [sign * x ** j for _, _, j, sign, _ in entries]
        alone = [EVALUATORS[kind](q, t_s, target, ctx)
                 for (_, kind, _, _, t_s), q in zip(entries, nomes)]
        assert side.terms_used == max(r.terms_used for r in alone)
        with mp.workdps(5 * ctx.working_digits):
            total = sum(w * r.value for (w, *_), r in zip(entries, alone))
            slack = side.rounding_error + side.tail_bound + sum(
                abs(w) * (r.rounding_error + r.tail_bound) for (w, *_), r in zip(entries, alone))
            assert abs(side.value - total) <= slack


def test_zeta_free_takes_one_pass_per_nome(monkeypatch):
    # at a = 97/89 the nomes e^(-2 pi u / a), e^(-2 pi u), e^(-2 pi a u) are
    # the powers 89^2, 89 * 97 and 97^2 of e^(-2 pi u / (89 * 97)); a pass
    # over that base would step by their lcm, 74 528 689, so each is its own base
    passes = _count_passes(monkeypatch)
    identities.check_zeta_free(1, 1, "97/89", mpf("1.3"), make_context(30))
    assert len(passes) == 6
    assert all([t.j for t, *_ in p] == [1] for p in passes)


def test_profile_takes_one_pass_for_its_slowest_base(monkeypatch):
    passes = _count_passes(monkeypatch)
    engine.convergence_profile("zeta(3)", "root15", 12, make_context(120))
    prefix = [p for p in passes if any(t.prefixes for t, _, _ in p)]
    assert len(prefix) == 1
    assert {(t.kind, t.j, t.prefixes) for t, _, _ in prefix[0]} == {
        ("lambert", 1, 12), ("sech_series", 1, 12)}


def test_long_profile_builds_at_most_order_plus_one_sequences(monkeypatch):
    # 200 prefixes at 50 digits: one Lambert expansion per series, 2N - 1
    # terms for sech (the odd half), and one sequence per term alone up to
    # the pass's order (base_sums takes running sums and keeps none past it)
    built, summed = [], []

    def counted(a, n_terms, order, _run=series._lambert_terms):
        built.append(n_terms)
        return _run(a, n_terms, order)
    monkeypatch.setattr(series, "_lambert_terms", counted)
    passes, run = _count_passes(monkeypatch), series._fixed_pass

    def keys_of(x, ax, fixed, prec):
        sums = run(x, ax, fixed, prec)
        summed.append(list(sums))
        return sums
    monkeypatch.setattr(series, "_fixed_pass", keys_of)
    kernel, ctx, use_reference = engine.base_sums, make_context(50), []

    def slow_pass(x, terms, ctx):
        if not any(t.prefixes for t in terms):
            return kernel(x, terms, ctx)
        built.clear()
        info, sums, prec = kernel(x, terms, ctx)
        assert sorted(built) == sorted(2 * n - 1 if t.kind == "sech_series" else n
                                       for t, n, _ in passes[-1])
        last = max(order for *_, order in passes[-1]) + 1
        for t, n, order in passes[-1]:
            [(key, _)] = t.weights
            assert n == 200
            assert len([k for k in summed[-1] if k[0] == key]) == order + 1 < 200
            assert [m for k, m in sums if k == key] == list(range(1, last + 1))
        with mp.workdps(3 * ctx.working_digits):
            for t in (terms if use_reference else ()):
                [(key, _)] = t.weights
                q = t.sign * x ** t.j
                for n, ref in enumerate(prefix_sums(t.kind, q, t.s, 200), 1):  # all 200
                    ref *= q ** series._KINDS[t.kind].lift
                    sums[key, n] = ([int(mp.floor(mp.ldexp(ref, prec)))], None)
        return info, sums, prec
    monkeypatch.setattr(engine, "base_sums", slow_pass)
    profile = engine.convergence_profile("zeta(3)", "root15", 200, ctx)
    # the same profile from the reference prefix sums
    use_reference.append(True)
    assert engine.convergence_profile("zeta(3)", "root15", 200, ctx) == profile
