"""Correctness verdicts, against references from mpmath's own routines.

References come from ``mp.zeta``, ``mp.pi ** n`` and ``mp.log`` at the
requested digits + 30, which share no code with the Lambert-series route.
They are computed after the timed loop: mpmath caches pi, and the
program's nome exponentials use that cache too.
"""

from __future__ import annotations

import json
import re
import time
from decimal import Decimal, InvalidOperation

from mpmath import mp, mpf

REF_GUARD = 30
EXIT_CODES = {"usage": 64, "domain": 65}
SLOPE_TOLERANCE = 0.05

_BOUND_RE = re.compile(r"^error_bound < 1e(-?\d+)$", re.M)
_VALUE_RE = re.compile(r"^value = (\S+)$", re.M)
_SLOPE_RE = re.compile(r"^slope = (\S+) digits/term$", re.M)


def reference(ref: tuple, digits: int):
    """(value at digits + REF_GUARD, seconds it took)."""
    kind, arg = ref
    t0 = time.perf_counter()
    with mp.workdps(digits + REF_GUARD):
        if kind == "zeta":
            value = mp.zeta(arg)
        elif kind == "pi":
            value = mp.pi ** arg
        else:
            value = mp.log(arg)
        value = +value
    return value, time.perf_counter() - t0


def check_value(text: str, error_bound, ref_value, digits: int):
    """Verdict on a truncated decimal against the reference.

    Correct when it has `digits` significant digits and
    |value - ref| <= error_bound + one unit in its last printed place,
    the contract README documents.  Returns (correct, exact_prefix, why);
    exact_prefix is true when the digits are the leading digits of the
    reference, i.e. |value| <= |ref| < |value| + ulp.
    """
    try:
        dec = Decimal(text)
    except InvalidOperation:
        return False, False, f"unparsable value {text!r}"
    sig = dec.as_tuple()
    if len(sig.digits) != digits:
        return False, False, f"{len(sig.digits)} significant digits, asked {digits}"
    with mp.workdps(digits + REF_GUARD + 10):
        value = mpf(text)
        ulp = mpf(10) ** sig.exponent
        gap = abs(value - ref_value)
        if gap > error_bound + ulp:
            return False, False, (f"|value - ref| = {mp.nstr(gap, 3)} exceeds "
                                  f"error_bound + ulp = {mp.nstr(error_bound + ulp, 3)}")
        prefix = abs(value) <= abs(ref_value) < abs(value) + ulp
    return True, prefix, ""


def parse_compute(stdout: str):
    """(value text, error bound) from `compute` output in text or JSON."""
    if stdout.lstrip().startswith("{"):
        payload = json.loads(stdout)
        return payload["value"], mpf(10) ** int(payload["error_bound"][3:])
    value = _VALUE_RE.search(stdout)
    bound = _BOUND_RE.search(stdout)
    if value is None or bound is None:
        raise ValueError("no value or error_bound line")
    return value.group(1), mpf(10) ** int(bound.group(1))


def verdict(req, outcome, refs: dict, table_from_dict):
    """Check one request's outcome; returns (correct, exact_prefix, why).

    ``outcome`` holds ``exc`` (traceback text or None), ``code`` (exit code
    of a CLI request), ``stdout`` and ``result`` (an engine ConstantResult).
    ``refs`` maps (ref, digits) to reference values.  A traceback is always
    a failure.
    """
    if outcome["exc"] is not None:
        return False, False, "traceback: " + outcome["exc"].strip().splitlines()[-1]
    code, out = outcome.get("code", 0), outcome.get("stdout", "")
    if req.expect in EXIT_CODES:
        want = EXIT_CODES[req.expect]
        return code == want, False, "" if code == want else f"exit {code}, want {want}"
    if code != 0:
        return False, False, f"exit {code}"
    if req.expect == "value":
        if req.api == "cli":
            try:
                text, bound = parse_compute(out)
            except (ValueError, KeyError) as exc:
                return False, False, f"unparsable output: {exc}"
        else:
            text, bound = outcome["result"].decimal_value, outcome["result"].error_bound
        return check_value(text, bound, refs[(req.ref, req.digits)], req.digits)
    if req.expect == "pass":
        ok = out.rstrip().endswith("PASS")
        return ok, False, "" if ok else "no PASS line"
    if req.expect == "table":
        try:
            table = table_from_dict(json.loads(out))
        except (ValueError, KeyError, TypeError) as exc:
            return False, False, f"table does not parse back: {exc}"
        ok = table.constant == req.constant
        return ok, False, "" if ok else f"table is for {table.constant}"
    if req.expect == "slope":
        m = _SLOPE_RE.search(out)
        if m is None:
            return False, False, "no slope line"
        slope = float(m.group(1))
        ok = abs(slope - req.rate) <= SLOPE_TOLERANCE * req.rate
        return ok, False, "" if ok else f"slope {slope} vs rate {req.rate:.4f}"
    raise ValueError(f"unknown expectation {req.expect!r}")
