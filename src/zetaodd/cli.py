"""Command-line interface.

Subcommands: compute (zeta / pi / log / zeta3-first-order), coeffs,
verify, bench.  stdout is byte-deterministic for a fixed argv; wall-clock
timing goes to stderr.  Exit codes: 0 ok, 2 failed verification, 64 bad
usage, 65 domain error, 69 convergence failure, 74 stdout closed early (a
reader such as `| head` left; the rest of the output is dropped, with no
traceback).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from mpmath import mp, mpf

from . import engine, identities, oracles
from .coefficients import METHODS, PI_METHODS, negative_q_rewrite
from .core import ConvergenceError, DomainError, make_context

EX_OK = 0
EX_FAIL = 2
EX_USAGE = 64
EX_DOMAIN = 65
EX_CONVERGENCE = 69
EX_IOERR = 74


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; we promise 64 with usage on stderr."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def _int_from(low: int):
    """An argparse type for --digits and --order: an int >= low, else
    argparse's usage error (exit 64)."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return integer


def _readable(parse, what: str):
    """An argparse type that rejects text `parse` cannot read (exit 64) and
    keeps the text as given, so the lines that print it keep their bytes."""
    def check(text: str) -> str:
        try:
            parse(text)
        except (ValueError, ZeroDivisionError):  # argparse misses the latter
            raise argparse.ArgumentTypeError(
                f"expects {what}, got {text!r}") from None
        return text
    return check


def _bound_exponent(err) -> int:
    """Smallest integer e with err < 10^e (so 'error_bound < 1e<e>')."""
    if err <= 0:
        return -999
    return int(mp.floor(mp.log10(err))) + 1


def _cmd_compute(args) -> int:
    if args.what == "zeta":
        res = engine.zeta_odd(args.s, args.method, args.digits)
    elif args.what == "pi":
        res = engine.pi_power(args.power, args.method, args.digits)
    else:  # log
        res = engine.log_prime(args.p, args.digits)
    e = _bound_exponent(res.error_bound)
    if args.format == "json":
        payload = {
            "constant": res.constant_id,
            "method": res.method_id,
            "digits": args.digits,
            "value": res.decimal_value,
            "error_bound": f"<1e{e}",
            "terms_used": res.terms_used,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"constant = {res.constant_id}")
        print(f"method = {res.method_id}")
        print(f"value = {res.decimal_value}")
        print(f"error_bound < 1e{e}")
        for basis, n in res.terms_used.items():
            print(f"terms_used[{basis}] = {n}")
    print(f"wall_time = {res.wall_time:.3f}s", file=sys.stderr)
    return EX_OK


def _cmd_zeta3_first_order(args) -> int:
    ctx = make_context(30)
    value = engine.zeta3_first_order(ctx)
    with ctx.workdps():
        err = value - oracles.oracle_zeta(3, ctx)
        print("constant = zeta(3)")
        print("method = first-order truncation of the sqrt15 family")
        print(f"value = {mp.nstr(value, 20)}")
        print(f"error_vs_oracle = {mp.nstr(err, 3)}")
    return EX_OK


def _cmd_coeffs(args) -> int:
    if args.constant == "zeta":
        if args.k is None:
            raise DomainError("coeffs --constant zeta needs --k")
        method = args.method or "root15"
        # the method fixes the parity; auto (or an unknown name) means zeta(4k+1)
        entry = METHODS["zeta"].get(method)
        s = 4 * args.k - (entry[1] if entry else -1)
        table = engine.zeta_table(s, method)
    elif args.constant == "pi":
        if args.power is None:
            raise DomainError("coeffs --constant pi needs --power")
        table = engine.pi_table(args.power, args.method or "auto")
    else:  # log
        if args.p is None:
            raise DomainError("coeffs --constant log needs --p")
        table = engine.coeffs_log(args.p)
    if args.rewrite_positive_q:
        table = negative_q_rewrite(table)
    print(table.to_json())
    return EX_OK


def _parse_t(text: str):
    try:
        re_s, im_s = text.split(",")
        return mp.mpc(mpf(re_s.strip()), mpf(im_s.strip()))
    except (ValueError, TypeError) as exc:
        raise DomainError(f"--t expects 're,im', got {text!r}") from exc


# identity -> (its check in `identities`, the check's flags in argument
# order); the check is looked up at call time, so a replaced one is called
_CHECKS = {
    "t1c1": ("check_t1_case1", ("t",)),
    "t1c2": ("check_t1_case2", ("k", "t")),
    "t1c3": ("check_t1_case3", ("k", "t")),
    "lemma-p4": ("check_lemma_p4", ("q", "s")),
    "lemma-sech": ("check_lemma_sech", ("q", "s")),
    "zeta-free": ("check_zeta_free", ("case", "k", "a", "t")),
}


def _cmd_verify(args) -> int:
    ctx = make_context(args.digits)
    name = args.identity
    if name == "multisection":
        mismatch = identities.check_multisection(args.p, args.s, args.order)
        print("identity = multisection")
        print(f"p = {args.p}; s = {args.s}; order = {args.order}")
        print(f"exact_mismatch = {mismatch}")
        ok = mismatch == 0
        print("PASS" if ok else "FAIL")
        return EX_OK if ok else EX_FAIL
    check, flags = _CHECKS[name]
    with ctx.workdps():
        read = {"t": _parse_t(args.t), "q": mpf(args.q), "a": Fraction(args.a)}
        res = getattr(identities, check)(*(read.get(f, getattr(args, f)) for f in flags), ctx)
        threshold = mpf(10) ** (-(args.digits - 5))
        print(f"identity = {name}")
        for f in flags:
            print(f"{f} = {getattr(args, f)}")
        print(f"rel_residual = {mp.nstr(res.rel_residual, 3)}")
        print(f"threshold = 1e-{args.digits - 5}")
        ok = res.rel_residual < threshold
    print("PASS" if ok else "FAIL")
    return EX_OK if ok else EX_FAIL


def _cmd_bench(args) -> int:
    profile = engine.convergence_profile(
        f"zeta({args.s})" if args.constant == "zeta" else args.constant,
        args.method, args.max_terms, make_context(args.digits))
    print(f"constant = {profile.constant_id}")
    print(f"method = {profile.method_id}")
    for n, d in profile.points:
        print(f"n={n} correct_digits={d}")
    print(f"slope = {profile.slope:.4f} digits/term")
    return EX_OK


@functools.cache  # once per process: building costs 20x a parse
def build_parser() -> _Parser:
    p = _Parser(prog="zetaodd",
                description="Rapidly converging Lambert-series evaluation of "
                            "zeta at odd integers, odd powers of pi, and "
                            "logs of 2, 3, 5.")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    compute = sub.add_parser("compute", help="evaluate a constant")
    csub = compute.add_subparsers(dest="what", required=True,
                                  parser_class=_Parser)

    # --digits and --format, shared by the three constant subcommands
    out = _Parser(add_help=False)
    out.add_argument("--digits", type=_int_from(1), default=50)
    out.add_argument("--format", choices=("text", "json"), default="text")

    cz = csub.add_parser("zeta", parents=[out], help="zeta(s) for odd s >= 3")
    cz.add_argument("--s", type=int, required=True)
    cz.add_argument("--method", default="auto")

    cp = csub.add_parser("pi", parents=[out], help="pi^n for odd n")
    cp.add_argument("--power", type=int, required=True)
    cp.add_argument("--method", default="auto",
                    help=f"one of {', '.join(PI_METHODS)} or auto")

    cl = csub.add_parser("log", parents=[out], help="log p for p in 2, 3, 5")
    cl.add_argument("--p", type=int, choices=(2, 3, 5), required=True)
    for sp in (cz, cp, cl):
        sp.set_defaults(func=_cmd_compute)

    cf = csub.add_parser("zeta3-first-order",
                         help="closed-form ~1e-10 approximation to zeta(3)")
    cf.set_defaults(func=_cmd_zeta3_first_order)

    co = sub.add_parser("coeffs", help="print an exact coefficient table")
    co.add_argument("--constant", choices=("zeta", "pi", "log"), required=True)
    co.add_argument("--k", type=int)
    co.add_argument("--power", type=int)
    co.add_argument("--p", type=int, choices=(2, 3, 5))
    co.add_argument("--method",
                    help="default: root15 for zeta, auto for pi")
    co.add_argument("--rewrite-positive-q", action="store_true",
                    help="rewrite Lambert terms at negative nomes via the "
                         "2-section identity")
    co.set_defaults(func=_cmd_coeffs)

    ve = sub.add_parser("verify", help="numerically check a defining identity")
    ve.add_argument("--identity", required=True,
                    choices=("t1c1", "t1c2", "t1c3", "multisection",
                             "lemma-p4", "lemma-sech", "zeta-free"))
    ve.add_argument("--k", type=int, default=1)
    ve.add_argument("--t", default="1,0", help="complex t as 're,im'")
    ve.add_argument("--p", type=int, default=2, choices=(2, 3, 5, 7))
    ve.add_argument("--a", type=_readable(Fraction, "a rational 'num/den'"),
                    default="1/2", help="rational a as 'num/den'")
    ve.add_argument("--q", type=_readable(mpf, "a real number"),
                    default="0.5", help="real nome in (0,1)")
    ve.add_argument("--s", type=int, default=-3)
    ve.add_argument("--case", type=int, default=2, choices=(1, 2))
    ve.add_argument("--order", type=_int_from(1), default=50)
    # below 6 digits the threshold 10^-(digits-5) is 1 or more: an identity
    # off by its own size would pass
    ve.add_argument("--digits", type=_int_from(6), default=30)
    ve.set_defaults(func=_cmd_verify)

    be = sub.add_parser("bench", help="convergence profile of a method")
    be.add_argument("--constant", default="zeta")
    be.add_argument("--s", type=int, default=3)
    be.add_argument("--method", default="auto")
    be.add_argument("--max-terms", type=int, default=8)
    be.add_argument("--digits", type=_int_from(1), default=50)
    be.set_defaults(func=_cmd_bench)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_DOMAIN
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_CONVERGENCE
    except BrokenPipeError:
        # the Python docs' SIGPIPE recipe: point stdout at devnull, so the
        # flush at exit has nowhere left to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EX_IOERR


if __name__ == "__main__":
    sys.exit(main())
