"""Seeded request generators, one per workload.

A generator takes the seed and returns a ``Workload``: the seed, a list of
passes (each a list of ``Request``), and the known-failure probes.  The
runner cycles through the passes in order, so a run of any length covers
each workload's input distribution evenly.  Nothing here imports zetaodd:
the program sees only the generated argv or call arguments.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass, replace

WORKLOADS = ("lowprec", "hiprec", "batch", "verify")

ZETA_4KM1 = ("corollary", "root3", "root7", "root15")
ZETA_4KP1 = ("corollary3", "p2", "p3", "p5", "root3_p", "root7_p", "root15_p")
PI_4KP1 = ("example62", "prop_pi5", "prop_pi5_fast")
PI_4KM1 = ("example63", "prop_pi3", "prop_pi3_fast")

# decay r of the slowest nome e^(-r pi) of each family; README's convergence
# rate is pi r / ln 10 digits per term
SLOWEST_NOME = {
    "corollary": 2, "root3": math.sqrt(3), "root7": math.sqrt(7),
    "root15": math.sqrt(15), "corollary3": 2, "p2": 2, "p3": 3, "p5": 4,
    "root3_p": math.sqrt(3), "root7_p": math.sqrt(7),
    "root15_p": math.sqrt(15),
}


def readme_rate(method: str) -> float:
    return math.pi * SLOWEST_NOME[method] / math.log(10)


@dataclass(frozen=True)
class Request:
    """One call into the program and what a correct answer looks like.

    ``api`` is "cli" (``args`` is argv for ``cli.main``) or the name of an
    engine function (``args`` are its positional arguments).  ``expect`` is
    "value" (a certified decimal of ``ref``), "usage" (exit 64), "domain"
    (exit 65), "pass" (verify prints PASS), "table" (coeffs JSON) or
    "slope" (bench slope within 5% of ``rate``).
    """

    api: str
    args: tuple
    constant: str
    method: str
    digits: int
    expect: str
    ref: tuple = ()
    rate: float = 0.0
    known_failure: str = ""


@dataclass
class Workload:
    name: str
    seed: int
    passes: list
    probes: list

    def to_json(self) -> str:
        return json.dumps({"workload": self.name, "seed": self.seed,
                           "passes": [[asdict(r) for r in p] for p in self.passes],
                           "probes": [asdict(r) for r in self.probes]},
                          sort_keys=True)


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _strata(rng: random.Random, n: int, lo: float, hi: float) -> list:
    """n uniform draws from [lo, hi), one in each of n equal strata, in
    random order (a Latin-hypercube sample)."""
    return [lo + (hi - lo) * (k + rng.random()) / n for k in rng.sample(range(n), n)]


def _cli_compute(rng, what: str, flag: str, arg: int, method, digits: int,
                 constant: str, ref: tuple) -> Request:
    argv = ["compute", what, flag, str(arg)]
    if method is not None:
        argv += ["--method", method]
    argv += ["--digits", str(digits), "--format", rng.choice(("text", "json"))]
    return Request("cli", tuple(argv), constant, method or "auto", digits,
                   "value", ref)


# -- lowprec ----------------------------------------------------------------

LOWPREC_PASS = {"zeta_small": 30, "zeta_large": 30, "pi": 15, "log": 10,
                "coeffs": 10, "invalid": 5}
LOWPREC_COEFFS = {"zeta": 5, "pi": 3, "log": 2}
ODD_S = tuple(range(3, 202, 2))
PI_POWERS = tuple(range(1, 42, 2))


def _deck(rng, items):
    """Endless draws that use every item once per round, in seeded order."""
    items = list(items)
    while True:
        yield from rng.sample(items, len(items))


def _zeta_method(deck, s: int, auto: bool):
    """Next valid method for zeta(s); None means the CLI default."""
    k = (s - 1) // 4
    while True:
        method = next(deck["zeta", s % 4, auto])
        if not (method == "root3_p" and k % 3 == 0):
            return method


def _pi_method(deck, n: int, auto: bool):
    while True:
        method = next(deck["pi", n % 4, auto])
        if n >= 5 or method in (None, "example62", "example63"):
            return method


def _coeffs(rng, flags: list, constant: str, method: str) -> Request:
    if rng.random() < 0.3:
        flags.append("--rewrite-positive-q")
    return Request("cli", ("coeffs", *flags), constant, method, 0, "table")


def _lowprec_invalid(rng, kind: str) -> Request:
    if kind == "even_s":
        s = 2 * rng.randint(2, 100)
        return Request("cli", ("compute", "zeta", "--s", str(s), "--digits", "30"),
                       f"zeta({s})", "auto", 0, "domain")
    if kind == "parity":
        s = 2 * rng.randint(1, 50) + 1
        # bare root3/root7/root15 serve both parities, so only `corollary`
        # is wrong for zeta(4k+1)
        method = rng.choice(ZETA_4KP1) if s % 4 == 3 else "corollary"
        return Request("cli", ("compute", "zeta", "--s", str(s), "--method",
                               method, "--digits", "30"),
                       f"zeta({s})", method, 0, "domain")
    if kind == "root3_p":
        s = 12 * rng.randint(1, 16) + 1
        return Request("cli", ("compute", "zeta", "--s", str(s), "--method",
                               "root3_p", "--digits", "30"),
                       f"zeta({s})", "root3_p", 0, "domain")
    return Request("cli", ("compute", "log", "--p", "7", "--digits", "30"),
                   "log(7)", "auto", 0, "usage")


def _lowprec_pass(rng, deck) -> list:
    def digits(kind):  # log-uniform over 10-500, stratified per kind
        return [round(10 * 50 ** u) for u in _strata(rng, LOWPREC_PASS[kind], 0, 1)]

    def pick(n, values):  # one of the sorted values from each of n strata
        return [values[int(i)] for i in _strata(rng, n, 0, len(values))]

    out = []
    for kind, values in (("zeta_small", None), ("zeta_large", ODD_S[5:])):
        s_values = (pick(LOWPREC_PASS[kind], values) if values
                    else [next(deck["small_s"]) for _ in range(LOWPREC_PASS[kind])])
        for s, d in zip(s_values, digits(kind)):
            out.append(_cli_compute(rng, "zeta", "--s", s, _zeta_method(deck, s, True),
                                    d, f"zeta({s})", ("zeta", s)))
    for n, d in zip(pick(LOWPREC_PASS["pi"], PI_POWERS), digits("pi")):
        out.append(_cli_compute(rng, "pi", "--power", n, _pi_method(deck, n, True),
                                d, f"pi^{n}", ("pi", n)))
    for d in digits("log"):
        p = next(deck["p"])
        out.append(_cli_compute(rng, "log", "--p", p, None, d, f"log({p})", ("log", p)))
    for s in pick(LOWPREC_COEFFS["zeta"], ODD_S):
        method = _zeta_method(deck, s, False)
        k = (s + 1) // 4 if s % 4 == 3 else (s - 1) // 4
        out.append(_coeffs(rng, ["--constant", "zeta", "--method", method, "--k", str(k)],
                           f"zeta({s})", method))
    for n in pick(LOWPREC_COEFFS["pi"], PI_POWERS):
        method = _pi_method(deck, n, False)
        out.append(_coeffs(rng, ["--constant", "pi", "--method", method, "--power", str(n)],
                           f"pi^{n}", method))
    for _ in range(LOWPREC_COEFFS["log"]):
        p = next(deck["p"])
        out.append(_coeffs(rng, ["--constant", "log", "--p", str(p)], f"log({p})", "log"))
    kinds = ["even_s", "parity", "root3_p", "p7"]
    kinds.append(rng.choice(kinds))
    out.extend(_lowprec_invalid(rng, k) for k in kinds[:LOWPREC_PASS["invalid"]])
    rng.shuffle(out)
    return out


def lowprec(seed: int, n_passes: int = 40) -> Workload:
    """CLI requests at 10-500 digits: table generation, argparse and digit
    emission dominate; zeta(s) near 1 for large s probes digit boundaries.
    Each pass has a fixed mix; s, powers and digits are stratified and
    methods dealt from shuffled decks, so the mix is even in every run."""
    rng = _rng("lowprec", seed)
    deck = {"small_s": _deck(rng, ODD_S[:5]), "p": _deck(rng, (2, 3, 5))}
    for auto in (True, False):
        extra = (None,) if auto else ()
        deck["zeta", 3, auto] = _deck(rng, extra + ZETA_4KM1)
        deck["zeta", 1, auto] = _deck(rng, extra + ZETA_4KP1)
        deck["pi", 3, auto] = _deck(rng, extra + PI_4KM1)
        deck["pi", 1, auto] = _deck(rng, extra + PI_4KP1)
    passes = [_lowprec_pass(rng, deck) for _ in range(n_passes)]
    probes = []
    for digits in (0, -rng.randint(1, 100)):
        s = rng.choice(range(3, 12, 2))
        probes.append(Request(
            "cli", ("compute", "zeta", "--s", str(s), "--digits", str(digits)),
            f"zeta({s})", "auto", digits, "usage",
            known_failure="make_context raises ValueError, so the CLI shows a "
                          "traceback instead of exit 64 (ROADMAP item 3)"))
    return Workload("lowprec", seed, passes, probes)


# -- hiprec -----------------------------------------------------------------

HIPREC_PAIRS = (
    [("zeta_odd", 3, m) for m in ZETA_4KM1]
    + [("zeta_odd", 5, m) for m in ZETA_4KP1]
    + [("pi_power", 3, m) for m in PI_4KM1]
    + [("log_prime", 2, None)]
)
HIPREC_DIGITS = (1000, 2000)
# each pass sends its requests in this order of digit strata, low and high
# alternating, so a run that stops inside a pass has still sampled both
# ends of the range
HIPREC_ORDER = (0, 14, 7, 3, 11, 1, 13, 5, 9, 2, 12, 6, 8, 4, 10)


def _api_request(func: str, arg: int, method, digits: int) -> Request:
    if func == "zeta_odd":
        constant, ref = f"zeta({arg})", ("zeta", arg)
    elif func == "pi_power":
        constant, ref = f"pi^{arg}", ("pi", arg)
    else:
        constant, ref = f"log({arg})", ("log", arg)
    method = method or "auto"
    args = (arg, digits) if func == "log_prime" else (arg, method, digits)
    return Request(func, args, constant, method, digits, "value", ref)


def hiprec(seed: int) -> Workload:
    """The north-star set (15 constant/method pairs) at 1000-2000 digits,
    where the series dominate.  Pass p gives pair i the log-digit stratum
    (4i + p) mod 15, a Latin square: any few passes cover every pair at
    low and high precision, and the seed moves digits within strata.
    Digits differ for every request, so pi caches keyed by precision stay
    cold."""
    rng = _rng("hiprec", seed)
    n = len(HIPREC_PAIRS)
    lo, hi = HIPREC_DIGITS
    used = set()
    passes = []
    for p in range(n):
        by_stratum = {}
        for i, (func, arg, method) in enumerate(HIPREC_PAIRS):
            stratum = (4 * i + p) % n
            d = round(lo * (hi / lo) ** ((stratum + rng.random()) / n))
            while d in used:
                d += 1
            used.add(d)
            by_stratum[stratum] = _api_request(func, arg, method, d)
        passes.append([by_stratum[k] for k in HIPREC_ORDER])
    probe = _api_request("zeta_odd", 5, "p5", rng.randint(4301, 4400))
    probe = replace(probe, known_failure=(
        "truncate_digits converts a >4300-digit int with str(), so emission "
        "raises ValueError (ROADMAP item 3)"))
    return Workload("hiprec", seed, passes, [probe])


# -- batch ------------------------------------------------------------------

BATCH_S = tuple(range(3, 52, 2))
BATCH_DIGITS = (950, 1050)


def batch(seed: int, n_passes: int = 32) -> Workload:
    """zeta(3), zeta(5), ..., zeta(51) with `auto` at one precision per pass:
    the constants share nomes and working precision, so cross-call reuse
    has something to reuse.  Passes alternate between the lower and the
    upper half of 950-1050 digits, and the seed places each precision
    inside its half: a run holds only two or three passes, and cost grows
    as digits^2.5, so a wider range would make the passes a run happens to
    hold dominate its figures."""
    rng = _rng("batch", seed)
    lo, hi = BATCH_DIGITS
    passes = []
    for p in range(n_passes):
        d = round(lo + (hi - lo) * (p % 2 + rng.random()) / 2)
        passes.append([_api_request("zeta_odd", s, None, d) for s in BATCH_S])
    return Workload("batch", seed, passes, [])


# -- verify -----------------------------------------------------------------

IDENTITIES = ("t1c1", "t1c2", "t1c3", "zeta-free", "lemma-p4", "lemma-sech",
              "multisection")
VERIFY_PASS = {"identity": 6, "bench": 10}  # identity: per kind
BENCH_METHODS = ("corollary", "root3", "root7", "root15", "corollary3", "p2",
                 "p3", "p5", "root7_p", "root15_p")


def _verify_identities(rng, deck, name: str, n: int) -> list:
    """n checks of one identity; digits and the continuous parameters are
    stratified over their ranges."""
    digits = [round(d) for d in _strata(rng, n, 30, 200)]
    re_t = _strata(rng, n, 0.3, 3)
    q = _strata(rng, n, 0.05, 0.5)
    order = [round(o) for o in _strata(rng, n, 100, 1000)]
    out = []
    for j in range(n):
        argv = ["verify", "--identity", name]
        if name in ("t1c1", "t1c2", "t1c3", "zeta-free"):
            argv += ["--t", f"{re_t[j]:.4f},{rng.uniform(-1, 1):.4f}"]
            if name != "t1c1":
                argv += ["--k", str(next(deck["k"]))]
            if name == "zeta-free":
                argv += ["--case", str(next(deck["case"])),
                         "--a", f"{rng.randint(1, 5)}/{rng.randint(1, 5)}"]
            argv += ["--digits", str(digits[j])]
        elif name in ("lemma-p4", "lemma-sech"):
            argv += ["--q", f"{q[j]:.4f}", "--s", str(next(deck["lemma_s"])),
                     "--digits", str(digits[j])]
        else:
            argv += ["--p", str(next(deck["p"])), "--s", str(next(deck["sigma_s"])),
                     "--order", str(order[j])]
            digits[j] = 0
        out.append(Request("cli", tuple(argv), name, name, digits[j], "pass"))
    return out


def _verify_pass(rng, deck) -> list:
    out = []
    for name in IDENTITIES:
        out += _verify_identities(rng, deck, name, VERIFY_PASS["identity"])
    for _ in range(VERIFY_PASS["bench"]):
        method = next(deck["bench"])
        s = rng.choice((3, 7, 11) if method in ZETA_4KM1 else (5, 9, 13))
        terms = next(deck["terms"])
        rate = readme_rate(method)
        digits = math.ceil(rate * terms) + 15
        out.append(Request("cli", ("bench", "--s", str(s), "--method", method,
                                   "--max-terms", str(terms), "--digits", str(digits)),
                           f"zeta({s})", method, digits, "slope", rate=rate))
    rng.shuffle(out)
    return out


def verify(seed: int, n_passes: int = 40) -> Workload:
    """Identity checks and convergence profiles through the CLI: the only
    workload that exercises `identities`, and the one that drives `series`
    with complex nomes, exact divisor sums and per-term partial sums."""
    rng = _rng("verify", seed)
    deck = {"k": _deck(rng, range(1, 7)), "case": _deck(rng, (1, 2)),
            "lemma_s": _deck(rng, (-1, -3, -5, -7)), "p": _deck(rng, (2, 3, 5, 7)),
            "sigma_s": _deck(rng, (-1, -3, -5, -7, -9)),
            "bench": _deck(rng, BENCH_METHODS), "terms": _deck(rng, range(8, 13))}
    return Workload("verify", seed, [_verify_pass(rng, deck) for _ in range(n_passes)], [])


GENERATORS = {"lowprec": lowprec, "hiprec": hiprec, "batch": batch,
              "verify": verify}


def generate(name: str, seed: int) -> Workload:
    return GENERATORS[name](seed)
