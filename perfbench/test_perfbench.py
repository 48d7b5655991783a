"""Tests for the benchmark itself: seeded generation, the correctness
checker, the speed scaling and the tracer's self-time arithmetic."""

import json
from pathlib import Path
from types import SimpleNamespace

import pytest
from mpmath import mp, mpf

import check
import run
import speed
import tracer
import workloads


def test_generation_is_deterministic_per_seed():
    for name in workloads.WORKLOADS:
        first = workloads.generate(name, 7)
        assert first.seed == 7 and first.name == name
        assert first.to_json() == workloads.generate(name, 7).to_json()
        assert first.to_json() != workloads.generate(name, 8).to_json()


def test_hiprec_digits_are_distinct_and_in_range():
    w = workloads.generate("hiprec", 3)
    digits = [r.digits for p in w.passes for r in p]
    assert len(set(digits)) == len(digits)
    lo, hi = workloads.HIPREC_DIGITS
    assert all(lo <= d <= hi + len(digits) for d in digits)


def _truncated(value, digits: int) -> str:
    """Leading `digits` digits of a positive value in [1, 10)."""
    with mp.workdps(digits + 20):
        return mp.nstr(mp.floor(value * mpf(10) ** (digits - 1)) / mpf(10) ** (digits - 1),
                       digits, strip_zeros=False)


def _ref(digits):
    return check.reference(("zeta", 3), digits)[0]


def test_checker_accepts_exact_digits():
    ref = _ref(30)
    ok, prefix, _ = check.check_value(_truncated(ref, 30), mpf(10) ** -40, ref, 30)
    assert ok and prefix


def test_checker_rejects_tampered_last_but_one_digit():
    ref = _ref(30)
    text = _truncated(ref, 30)
    bad = text[:-2] + str((int(text[-2]) + 5) % 10) + text[-1]
    ok, _, why = check.check_value(bad, mpf(10) ** -40, ref, 30)
    assert not ok and "exceeds" in why


def test_checker_rejects_understated_error_bound():
    ref = _ref(30)
    with mp.workdps(60):
        off = _truncated(ref - 5 * mpf(10) ** -29, 30)  # 5 units low
    assert check.check_value(off, 10 * mpf(10) ** -29, ref, 30)[0]
    assert not check.check_value(off, mpf(10) ** -40, ref, 30)[0]


def _invalid_request(expect="domain"):
    return workloads.Request("cli", ("compute", "zeta", "--s", "4"), "zeta(4)",
                             "auto", 0, expect)


def test_checker_rejects_traceback_on_invalid_request():
    outcome = {"exc": "Traceback (most recent call last):\nValueError: boom\n",
               "code": None, "stdout": ""}
    ok, _, why = check.verdict(_invalid_request(), outcome, {}, None)
    assert not ok and why == "traceback: ValueError: boom"


def test_checker_wants_the_documented_exit_code():
    assert check.verdict(_invalid_request(), {"exc": None, "code": 65}, {}, None)[0]
    assert not check.verdict(_invalid_request(), {"exc": None, "code": 64}, {}, None)[0]
    assert not check.verdict(_invalid_request("usage"),
                             {"exc": None, "code": 0}, {}, None)[0]


def test_speed_scale_uses_mean_of_nearest_samples():
    # one sample a second; the host runs at half speed from t = 8 to 12
    samples = [(float(t), speed.REF_S * (2 if 8 <= t <= 12 else 1))
               for t in range(21)]
    # the five samples nearest to each span: 8-12 all slow; 0-4 all fast
    assert speed.scale([(10.2, 10.7), (2.2, 2.7)], samples) == [
        pytest.approx(0.25), pytest.approx(0.5)]
    # a span holding at least NEAREST samples loses their time and is
    # scaled by their mean alone: five slow and one fast
    inside = [s for t, s in samples if 7.9 <= t < 13.1]
    assert len(inside) == 6 >= speed.NEAREST
    assert speed.scale([(7.9, 13.1)], samples) == [
        pytest.approx((5.2 - sum(inside)) * 6 / 11)]


def test_self_time_subtracts_union_of_children():
    # root [0, 10] with overlapping children [1, 4] and [3, 6]; the first
    # has a grandchild [2, 3]
    spans = [("root", 0.0, 10.0, None), ("a", 1.0, 4.0, 0),
             ("b", 3.0, 6.0, 0), ("c", 2.0, 3.0, 1)]
    assert tracer.self_times(spans) == [5.0, 2.0, 3.0, 1.0]


def test_missing_wrapped_name_is_absent_not_zero():
    calls = []
    original = lambda argv: calls.append(argv) or 0  # noqa: E731
    modules = {"cli": SimpleNamespace(main=original)}
    with tracer.Tracer(modules) as t:
        t.request = 0
        modules["cli"].main(["x"])
    assert calls == [["x"]]
    metrics, absent = t.metrics(1)
    assert metrics["cli.calls"]["value"] == 1
    assert "series.sech_s" in absent and "cli.calls" not in absent
    assert metrics["series.sech_s"]["value"] == tracer.ABSENT
    assert set(metrics) == set(tracer.LAYER_METRICS)
    assert "coefficients.sech_series" in t.missing
    assert modules["cli"].main is original


def test_result_line_names_every_manifest_metric():
    manifest = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())
    per_layer = set(tracer.LAYER_METRICS) | {
        "core.exact_prefix_ratio", "trace.overhead_ratio", "trace.absent_metrics"}
    assert {m["name"] for m in manifest["per_layer"]} == per_layer
    e2e = run.end_to_end(
        [{"seconds": 0.1, "outcome": "correct", "digits": 10}] * 3,
        [(0.05, speed.REF_S)], 20.0)
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == {
        name: m["unit"] for name, m in e2e.items()}
