"""Per-layer tracing from outside the program.

The tracer replaces each layer's public function at the name its caller
looks up (for example ``coefficients.sech_series``, which
``assemble_detailed`` calls) with a wrapper that records a span: name,
start, end, parent span and request id.  Spans stay in memory until the
run ends.  A layer's self time is its spans' duration minus the time their
child spans cover.  A wrapped name that no longer exists is recorded as
missing, and every metric that depends only on missing names is reported
as absent: its value is ``ABSENT`` (-1, which no count, time or ratio can
take) rather than 0, and its name is listed.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

ABSENT = -1

MODULES = ("cli", "engine", "coefficients", "core", "series", "oracles",
           "identities")

# span name -> the (module, attribute) sites it wraps; "Class.attr" wraps a
# method.  A call goes through exactly one site, so no work is counted twice.
SITES = {
    "cli.main": [("cli", "main")],
    "engine.api": [("engine", a) for a in (
        "zeta_odd", "pi_power", "log_prime", "convergence_profile",
        "zeta3_first_order")],
    "identities.check": [("identities", a) for a in (
        "check_t1_case1", "check_t1_case2", "check_t1_case3",
        "check_lemma_p4", "check_lemma_sech", "check_zeta_free")],
    "identities.multisection": [("identities", "check_multisection")],
    "coefficients.table": [("engine", "zeta_table"), ("engine", "coeffs_pi"),
                           ("engine", "coeffs_log"), ("cli", "coeffs_pi"),
                           ("cli", "coeffs_log")],
    "coefficients.assemble": [("engine", "assemble_detailed")],
    "core.eval_exact": [("coefficients", "eval_exact"), ("core", "eval_exact")],
    "core.emit": [("engine", "truncate_digits")],
    "series.lambert": [("coefficients", "lambert_eval"),
                       ("identities", "lambert_eval"),
                       ("series", "lambert_eval"),
                       ("engine", "lambert_partial_sum")],
    "series.deriv": [("coefficients", "lambert_derivative_eval"),
                     ("series", "lambert_derivative_eval")],
    "series.sech": [("coefficients", "sech_series"),
                    ("identities", "sech_series"),
                    ("series", "sech_series")],
    "series.nome": [("series", "QSymbolic.value")],
    "oracles.pi": [("coefficients", "oracle_pi"), ("oracles", "oracle_pi")],
    "oracles.zeta": [("oracles", "oracle_zeta"), ("identities", "oracle_zeta")],
}

# per-layer metric -> (unit, how it is computed, span it needs)
LAYER_METRICS = {}
for _short, _span in (("sech", "series.sech"), ("lambert", "series.lambert"),
                      ("deriv", "series.deriv")):
    LAYER_METRICS[f"series.{_short}_calls"] = ("calls/req", "calls", _span)
    LAYER_METRICS[f"series.{_short}_s"] = ("s/req", "self", _span)
    LAYER_METRICS[f"series.{_short}_terms"] = ("terms/req", "terms", _span)
LAYER_METRICS.update({
    "series.nome_calls": ("calls/req", "calls", "series.nome"),
    "series.nome_s": ("s/req", "self", "series.nome"),
    "series.working_digits_ratio": ("ratio", "digits_ratio", "series.*"),
    "oracles.pi_calls": ("calls/req", "calls", "oracles.pi"),
    "oracles.pi_s": ("s/req", "self", "oracles.pi"),
    "oracles.zeta_s": ("s/req", "self", "oracles.zeta"),
    "coefficients.table_calls": ("calls/req", "calls", "coefficients.table"),
    "coefficients.table_s": ("s/req", "self", "coefficients.table"),
    "coefficients.assemble_calls": ("calls/req", "calls", "coefficients.assemble"),
    "coefficients.assemble_self_s": ("s/req", "self", "coefficients.assemble"),
    "core.eval_exact_calls": ("calls/req", "calls", "core.eval_exact"),
    "core.eval_exact_s": ("s/req", "self", "core.eval_exact"),
    "core.emit_calls": ("calls/req", "calls", "core.emit"),
    "core.emit_s": ("s/req", "self", "core.emit"),
    "cli.calls": ("calls/req", "calls", "cli.main"),
    "cli.self_s": ("s/req", "self", "cli.main"),
    "engine.calls": ("calls/req", "calls", "engine.api"),
    "engine.self_s": ("s/req", "self", "engine.api"),
    "identities.check_calls": ("calls/req", "calls", "identities.check"),
    "identities.check_self_s": ("s/req", "self", "identities.check"),
    "identities.multisection_s": ("s/req", "self", "identities.multisection"),
})
for _module in MODULES:
    LAYER_METRICS[f"{_module}.errors"] = ("count", "errors", _module + ".*")


def self_times(spans) -> list:
    """Self time of each span: its duration minus the union of the
    intervals its children cover, clipped to the span itself.

    ``spans`` is a sequence of (name, start, end, parent index, ...).
    """
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered, cursor = 0.0, start
        for c_start, c_end in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append(end - start - covered)
    return out


class Tracer:
    """Wraps the sites in ``SITES`` on the given modules and records spans.

    Use as a context manager; leaving it restores every original.
    """

    def __init__(self, modules: dict):
        self.modules = modules
        # [name, start, end, parent, request, raised, terms, digits ratio]
        self.spans = []
        self.request = None
        self.missing = []
        self.wrapped = set()
        self._stack = []
        self._patches = []

    def __enter__(self):
        for name, sites in SITES.items():
            for module, attr in sites:
                self._wrap(name, module, attr)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    def _wrap(self, name: str, module: str, attr: str) -> None:
        owner = self.modules.get(module)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, leaf, None) if owner is not None else None
        if not callable(original):
            self.missing.append(f"{module}.{attr}")
            return
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if stack and tracer.spans[stack[-1]][0] == name:
                return original(*args, **kwargs)  # recursion inside one layer
            span = [name, time.perf_counter(), None,
                    stack[-1] if stack else None, tracer.request, False, 0, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = original(*args, **kwargs)
            except Exception:
                span[5] = True
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            tracer._observe(span, args, kwargs, result)
            return result

        setattr(owner, leaf, wrapper)
        self._patches.append((owner, leaf, original))
        self.wrapped.add(name)

    def _observe(self, span, args, kwargs, result) -> None:
        """Series terms and working precision, kept on the span."""
        if not span[0].startswith("series.") or span[0] == "series.nome":
            return
        if hasattr(result, "terms_used"):
            span[6] = result.terms_used
            ctx = args[-1] if args else kwargs.get("ctx")
            if hasattr(ctx, "target_digits"):
                span[7] = result.precision_used / ctx.target_digits
        elif len(args) >= 3 and isinstance(args[2], int):
            span[6] = args[2]  # lambert_partial_sum(q, s, n_terms, ctx)

    def _totals(self, n_requests: int):
        """Per span name: calls, self seconds, terms and working-digit
        ratios of requests below n_requests, and per module the exceptions
        raised by any request."""
        calls, busy, terms = defaultdict(int), defaultdict(float), defaultdict(int)
        errors, ratios = defaultdict(int), []
        for span, own in zip(self.spans, self_times(self.spans)):
            if span[5]:
                errors[span[0].split(".")[0]] += 1
            if span[4] is None or span[4] >= n_requests:
                continue
            calls[span[0]] += 1
            busy[span[0]] += own
            terms[span[0]] += span[6]
            if span[7] is not None:
                ratios.append(span[7])
        return calls, busy, terms, errors, ratios

    def self_time_table(self, n_requests: int) -> list:
        """(span name, calls, total self seconds, self seconds per call) over
        requests below n_requests, largest total first; per call shows a
        hot spot that few calls hide."""
        calls, busy, *_ = self._totals(n_requests)
        return sorted(((name, calls[name], busy[name], busy[name] / calls[name])
                       for name in calls), key=lambda row: -row[2])

    def metrics(self, n_requests: int) -> tuple:
        """(metrics, absent names) over requests 0..n_requests-1, to which
        the per-request metrics are divided; errors count every request.
        Every metric of LAYER_METRICS is in the result; an absent one has
        the value ABSENT."""
        calls, busy, terms, errors, ratios = self._totals(n_requests)
        out, absent = {}, []
        for metric, (unit, how, span) in LAYER_METRICS.items():
            prefix = span[:-1] if span.endswith("*") else None
            present = (any(w.startswith(prefix) for w in self.wrapped) if prefix
                       else span in self.wrapped)
            if not present:
                value = ABSENT
            elif how == "calls":
                value = calls[span] / n_requests
            elif how == "self":
                value = busy[span] / n_requests
            elif how == "terms":
                value = terms[span] / n_requests
            elif how == "errors":
                value = errors[span[:-2]]
            elif ratios:  # digits_ratio
                value = sum(ratios) / len(ratios)
            else:
                value = ABSENT
            if value == ABSENT:
                absent.append(metric)
            out[metric] = {"value": value, "unit": unit}
        return out, absent
