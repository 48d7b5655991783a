"""Benchmark of zetaodd: certified constants, end to end and per layer.

    python3 perfbench/run.py --workload hiprec --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout and imports the package from its ``src``.
One client, one thread, closed loop: each request is sent after the
previous one returns.  The workload's requests are generated from the seed
before the clock starts (see workloads.py); the loop sends them in order,
cycling through the passes, and stops at the end of the pass nearest to
``--seconds`` of wall time.  Every answer is then checked against mpmath
(check.py).  Times are reported in reference seconds: each is scaled by a
fixed speed probe, sampled every 50 ms while the loop runs, which takes
the shared host's own changes of speed out of them (speed.py).  Requests
that fail at this commit for a known cause (the workload's probes) run
after the timed loop and are reported on their own lines, so they neither
skew nor hide in the metrics.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` the loop runs under the tracer (tracer.py), without the speed
probe, for about half the time, the same requests are replayed untraced in
a fresh process, and the last line holds the per-layer metrics with
``trace.overhead_ratio``.  Per-request records (and spans when traced) go
to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import speed
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_SAMPLES = 21

_SETUP_CODE = """\
import statistics, sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import zetaodd, zetaodd.cli
elapsed = time.perf_counter() - t0
if not zetaodd.__file__.startswith(sys.argv[1]):
    sys.exit("zetaodd imported from " + zetaodd.__file__)
sys.path.insert(0, sys.argv[2])
import speed
print(elapsed, statistics.fmean([speed.sample() for _ in range(6)][1:]))
"""


def measure_setup(samples: int) -> list:
    """(seconds, speed sample) of importing zetaodd and zetaodd.cli, each
    in a fresh interpreter, so mpmath is imported cold every time."""
    out = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(SRC), str(Path(__file__).parent)],
            capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError("importing zetaodd failed: " + proc.stderr.strip())
        out.append(tuple(map(float, proc.stdout.split())))
    return out


def load_program() -> dict:
    if not (SRC / "zetaodd" / "__init__.py").is_file():
        raise RuntimeError(f"no zetaodd package under {SRC}")
    sys.path.insert(0, str(SRC))
    import zetaodd
    if not Path(zetaodd.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"zetaodd imported from {zetaodd.__file__}, not {SRC}")
    return {m: importlib.import_module(f"zetaodd.{m}") for m in tracer.MODULES}


def call(req, program: dict) -> dict:
    """Send one request the way a user would; never raises."""
    if req.api == "cli":
        out, err = io.StringIO(), io.StringIO()
        code, exc = None, None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = program["cli"].main(list(req.args))
        except SystemExit as stop:
            code = stop.code if isinstance(stop.code, int) else 1
        except Exception:
            exc = traceback.format_exc()
        return {"code": code, "stdout": out.getvalue(), "exc": exc}
    try:
        result = getattr(program["engine"], req.api)(*req.args)
    except Exception:
        return {"code": None, "result": None, "exc": traceback.format_exc()}
    return {"code": 0, "result": result, "exc": None}


def run_loop(workload, program, seconds: float, count: int = 0, traced=None):
    """Closed loop over the workload's passes in order, cycling.  It stops
    at the end of the pass nearest to `seconds` of wall time, so that every
    run holds whole passes whatever the host's speed, or after exactly
    `count` requests when given.  Returns (timed requests as (pass,
    request, outcome, start, end), wall seconds)."""
    done = []
    t_start = time.perf_counter()
    while not count or len(done) < count:
        p, i = divmod(len(done), len(workload.passes[0]))
        # after p passes in `elapsed`, one more would end about elapsed / p later
        if not count and p and not i and (
                (time.perf_counter() - t_start) * (1 + 0.5 / p) >= seconds):
            break
        req = workload.passes[p % len(workload.passes)][i]
        if traced is not None:
            traced.request = len(done)
        t0 = time.perf_counter()
        outcome = call(req, program)
        done.append((p, req, outcome, t0, time.perf_counter()))
    return done, time.perf_counter() - t_start


def send_probes(workload, program, traced=None, first_id: int = 0) -> list:
    """The known-failure requests, after the timed loop (pass -1)."""
    sent = []
    for req in workload.probes:
        if traced is not None:
            traced.request = first_id + len(sent)
        t0 = time.perf_counter()
        sent.append((-1, req, call(req, program), t0, time.perf_counter()))
    return sent


def check_all(done, program) -> list:
    """Verdicts for every request, references computed here (after timing).
    A record's ``raw_s`` is its measured wall time; ``seconds`` starts as
    the same, and the caller scales it to reference seconds when the run
    sampled the host's speed."""
    import check
    refs, ref_s = {}, {}
    for _, req, outcome, *_ in done:
        key = (req.ref, req.digits)
        if req.expect == "value" and outcome["exc"] is None and key not in refs:
            refs[key], ref_s[key] = check.reference(req.ref, req.digits)
    from_dict = program["coefficients"].CoefficientTable.from_dict
    records = []
    for p, req, outcome, start, end in done:
        ok, prefix, why = check.verdict(req, outcome, refs, from_dict)
        records.append({
            "pass": p, "api": req.api, "args": list(req.args),
            "constant": req.constant, "method": req.method,
            "digits": req.digits, "outcome": "correct" if ok else "failed",
            "why": why, "exact_prefix": prefix, "seconds": end - start,
            "raw_s": end - start,
            "mpmath.ref_s": ref_s.get((req.ref, req.digits)),
            "known_failure": req.known_failure,
        })
    return records


def percentile_90(values: list):
    """(p90, samples beyond it); statistics' default (exclusive) method."""
    p90 = statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]
    return p90, sum(v > p90 for v in values)


def end_to_end(records, setup: list, rss_mb: float) -> dict:
    """Every time in reference seconds (speed.py).  One client sends the
    requests back to back, so the run's time is the sum of theirs."""
    lat = [r["seconds"] for r in records]
    wall = sum(lat)
    good = [r for r in records if r["outcome"] == "correct"]
    p90, _ = percentile_90(lat)
    return {
        "latency_p50_s": {"value": statistics.median(lat), "unit": "s"},
        "latency_p90_s": {"value": p90, "unit": "s"},
        "throughput_rps": {"value": len(good) / wall, "unit": "req/s"},
        "digits_per_s": {"value": sum(r["digits"] for r in good) / wall,
                         "unit": "digits/s"},
        "correct_ratio": {"value": len(good) / len(records), "unit": "ratio"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        "setup_s": {"value": statistics.median(t * speed.REF_S / s for t, s in setup),
                    "unit": "s"},
    }


def exact_prefix_ratio(records):
    values = [r for r in records if r["outcome"] == "correct"
              and r["mpmath.ref_s"] is not None]
    if not values:
        return None
    return sum(r["exact_prefix"] for r in values) / len(values)


def summarize(records, name: str, seed: int) -> None:
    lat = [r["seconds"] for r in records]
    raw = [r["raw_s"] for r in records]
    p90, beyond = percentile_90(lat)
    print(f"workload = {name}; seed = {seed}; requests = {len(records)}")
    print(f"latency_p50_s = {statistics.median(lat):.6f} s (n={len(lat)}; "
          f"unscaled {statistics.median(raw):.6f} s)")
    print(f"latency_p90_s = {p90:.6f} s (n={len(lat)}, {beyond} beyond; "
          f"unscaled {percentile_90(raw)[0]:.6f} s)")
    groups = defaultdict(list)
    for r in records:
        groups[(r["constant"], r["method"])].append(r)
    if len(groups) <= 30:
        print("by (constant, method): n, median digits, median s, median mpmath s")
        for (constant, method), rs in sorted(groups.items()):
            refs = [r["mpmath.ref_s"] for r in rs if r["mpmath.ref_s"] is not None]
            print(f"  {constant:10s} {method:14s} {len(rs):4d} "
                  f"{statistics.median(r['digits'] for r in rs):8.0f} "
                  f"{statistics.median(r['seconds'] for r in rs):10.4f} "
                  f"{statistics.median(refs) if refs else float('nan'):10.4f}")
    failed = [r for r in records if r["outcome"] != "correct"]
    for r in failed[:20]:
        print(f"failed: {r['constant']} {r['method']} digits={r['digits']} "
                  f"args={r['args']}: {r['why']}")
    if len(failed) > 20:
        print(f"failed: {len(failed) - 20} more, see the records file")


def report_probes(probe_records) -> None:
    for r in probe_records:
        state = ("still fails" if r["outcome"] == "failed" else "now passes")
        print(f"known failure {state}: {r['constant']} {r['method']} "
              f"digits={r['digits']} args={r['args']}: {r['why'] or 'correct'}"
              f" [cause at the seed: {r['known_failure']}]")


def write_jsonl(path: Path, rows) -> None:
    OUT.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row, default=str) + "\n")


def replay_wall(workload: str, seed: int, count: int) -> float:
    """Wall time of the same requests, untraced, in a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--replay", str(count)],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError("untraced replay failed: " + proc.stderr.strip())
    return json.loads(proc.stdout.splitlines()[-1])["wall_s"]


def report_speed(samples) -> None:
    values = [s for _, s in samples]
    print(f"speed samples = {len(values)}; median {statistics.median(values) * 1e3:.4f} ms, "
          f"quartiles {[round(q * 1e3, 4) for q in statistics.quantiles(values, n=4)]} ms; "
          f"reference {speed.REF_S * 1e3:.4f} ms")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--replay", type=int, default=0, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    os.environ.pop("ZETA_ODD_MAX_TERMS", None)  # the program's default cap

    try:
        setup = [] if (args.trace or args.replay) else measure_setup(SETUP_SAMPLES)
        program = load_program()
    except (RuntimeError, ImportError, subprocess.SubprocessError) as exc:
        print(f"cannot load the program: {exc}", file=sys.stderr)
        return 2
    workload = workloads.generate(args.workload, args.seed)

    if args.replay:
        _, wall = run_loop(workload, program, 0, args.replay)
        print(json.dumps({"wall_s": wall}))
        return 0

    traced = None
    if args.trace:
        traced = tracer.Tracer(program)
        with traced:
            done, wall = run_loop(workload, program, args.seconds / 2,
                                  traced=traced)
            probes = send_probes(workload, program, traced, len(done))
    else:
        with speed.Sampler() as sampler:
            done, wall = run_loop(workload, program, args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        probes = send_probes(workload, program)

    records = check_all(done, program)
    if traced is None:
        scaled = speed.scale([(start, end) for *_, start, end in done],
                             sampler.samples)
        for r, seconds in zip(records, scaled):
            r["seconds"] = seconds
    probe_records = check_all(probes, program)
    for r in records + probe_records:
        r.update(workload=args.workload, seed=args.seed)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    write_jsonl(stem.with_suffix(".records.jsonl"), records + probe_records)

    summarize(records, args.workload, args.seed)
    print(f"passes = {len(done) / len(workload.passes[0]):.2f}; wall_s = {wall:.3f}")
    report_probes(probe_records)
    failed = sum(r["outcome"] != "correct" for r in records)
    if traced is None:
        report_speed(sampler.samples)
        metrics = end_to_end(records, setup, rss_mb)
        print(f"setup_s samples (unscaled s, speed sample ms) = "
              f"{[(round(t, 4), round(s * 1e3, 4)) for t, s in setup]}")
    else:
        metrics, absent = traced.metrics(len(done))
        ratio = exact_prefix_ratio(records)
        if ratio is None:
            ratio = tracer.ABSENT
            absent.append("core.exact_prefix_ratio")
        metrics["core.exact_prefix_ratio"] = {"value": ratio, "unit": "ratio"}
        metrics["trace.absent_metrics"] = {"value": len(absent), "unit": "count"}
        metrics["trace.overhead_ratio"] = {
            "value": wall / replay_wall(args.workload, args.seed, len(done)),
            "unit": "ratio"}
        write_jsonl(stem.with_suffix(".spans.jsonl"),
                    ({"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
                      "request": s[4], "raised": s[5]} for s in traced.spans))
        print("self time by layer: span, calls, total s, s/call")
        for name, n, total, per_call in traced.self_time_table(len(done)):
            print(f"  {name:24s} {n:7d} {total:10.4f} {per_call:10.6f}")
        if traced.missing:
            print(f"wrapped names missing: {', '.join(traced.missing)}")
        if absent:
            print(f"absent metrics (value {tracer.ABSENT}): {', '.join(absent)}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
