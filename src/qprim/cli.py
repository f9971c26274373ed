"""Command-line surface.

Subcommands: streak, pi, prstats, maxstreak, density, hlconst, lvalue, mstat,
charsum, tau, search, criteria, verify.  Default output is text; --format
json emits a single RunReport document, --format csv a flat key,value table.
Exit codes: 0 success, 1 computation error or failed verification, 2 usage
error.  An option that only some modes read names them in its --help, with
each one's default, and any other mode refuses it.

Seven commands take --long-run.  pi past x = 2e6, prstats past n_cap = 1e6,
maxstreak and search over more than 2000 k values, and lvalue and hlconst
past |D| = 1e7 (their sums run over |D| terms: about 2 s there, 20 s at
1e8) exit 1 without it; verify walks the full record streaks, not a fast
prefix, only with it.
streak has no gate.  maxstreak and search sweep in one process: --workers
has no effect.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
import time
from dataclasses import asdict, dataclass, fields, is_dataclass
from fractions import Fraction
from typing import Any

from . import __version__
from .arith import primes_up_to
from .charsums import (
    admissible_discriminants,
    char_average,
    complete_char_sum,
    inert_proportion,
    jacobsthal_sum,
    local_average,
)
from .criteria import (
    chebyshev_criterion,
    excluded_index_primes,
    extended_chebyshev,
    fueter_criterion,
    lehmer_index_coprimality,
)
from .densities import (
    asymptotic_max_estimate,
    bateman_horn_constant,
    dirichlet_l,
    expected_max_streak,
    harmonic_max_estimate,
    hardy_littlewood_constant,
    lehmer_corrected_density,
    lehmer_naive_density,
    pr_density,
    pr_density_simple,
    simulate_max_streak,
    totient_ratio_constant,
    totient_ratio_product,
)
from .poly import QuadraticPoly, parse_poly
from .search import SearchConfig, candidate_poly, sweep
from .streaks import (
    empirical_max_streak,
    pr_stats,
    prime_count,
    streak,
    verify_primitive_root_prefix,
)

LONG_RUN_NCAP = 1_000_000
LONG_RUN_KMAX = 2_000
LONG_RUN_DISC = 10_000_000


@dataclass(frozen=True)
class RunReport:
    command: str
    inputs: dict
    outputs: dict
    elapsed_ms: float
    version: str
    seed: int | None = None


@dataclass(frozen=True)
class Preset:
    """A streak preset sets g, its expected count and failing prime, and the
    n_cap of its full walk; a count preset sets pi_checks instead."""

    name: str
    poly: QuadraticPoly
    note: str
    g: int | None = None
    expected_count: int | None = None
    expected_failing_prime: int | None = None
    pi_checks: tuple[tuple[int, int], ...] = ()
    default_prefix: int | None = None  # None: verify the full streak by default
    long_run_n_cap: int = 0


_D_A = 4472988326827347533  # non-residue-rich: (d/p) = -1 for p = 3..283
_D_B = 9828323860172600203  # (-d/p) = -1 for p = 3..277


def preset_registry() -> dict[str, Preset]:
    """Named reproduction instances binding exact coefficients and bases."""
    presets = [
        Preset(
            name="lehmer",
            poly=QuadraticPoly(a=326, b=0, c=3),
            g=326,
            expected_count=206,
            expected_failing_prime=1838843753,
            long_run_n_cap=4_000,
            note="base 326; streak ends at n=2375 with residual index 83",
        ),
        Preset(
            name="griffin",
            poly=QuadraticPoly(a=10, b=0, c=7),
            g=10,
            expected_count=16,
            expected_failing_prime=7297,
            long_run_n_cap=2_000,
            note="decimal periods of 1/p for p = 10n^2+7",
        ),
        Preset(
            name="euler41",
            poly=QuadraticPoly(a=1, b=1, c=41),
            pi_checks=((39, 40), (10**6, 261081)),
            note="prime-producing quadratic; the published 1e6 count (261080) drops the n=0 term",
        ),
        Preset(
            name="beeger27941",
            poly=QuadraticPoly(a=1, b=1, c=27941),
            pi_checks=((39, 30), (10**6, 286129)),
            note="denser prime producer than euler41 in the long run; published 1e6 count (286128) drops n=0",
        ),
        Preset(
            name="example1",
            poly=candidate_poly(SearchConfig(d=_D_A, d1=252017, alpha=2, sign=-1, shift=8393)),
            g=170363492,
            expected_count=22779,
            expected_failing_prime=432050978399143373,
            default_prefix=500,
            long_run_n_cap=800_000,
            note="positive-discriminant record family, quality ~0.999453",
        ),
        Preset(
            name="example2",
            poly=candidate_poly(SearchConfig(d=_D_A, d1=230849, alpha=6, sign=-1, shift=728069)),
            g=66715361,
            expected_count=25581,
            expected_failing_prime=20224247350881408449,
            default_prefix=300,
            long_run_n_cap=4_000_000,
            note="largest known streak for positive discriminant",
        ),
        Preset(
            name="example2-g24",
            poly=candidate_poly(SearchConfig(d=_D_A, d1=230849, alpha=6, sign=-1, shift=56943)),
            g=24,
            expected_count=21690,
            expected_failing_prime=2364119521193107649,
            default_prefix=300,
            long_run_n_cap=4_000_000,
            note="record streak for a base below 100",
        ),
        Preset(
            name="example3",
            poly=candidate_poly(SearchConfig(d=_D_B, d1=54151, alpha=4, sign=1, shift=0)),
            g=23731350844,
            expected_count=18176,
            expected_failing_prime=656972232441600833,
            default_prefix=300,
            long_run_n_cap=2_000_000,
            note="negative-discriminant family, unshifted",
        ),
        Preset(
            name="example3-f1",
            poly=candidate_poly(SearchConfig(d=_D_B, d1=54151, alpha=4, sign=1, shift=599206)),
            g=72922,
            expected_count=29083,
            expected_failing_prime=3836199196047168449,
            default_prefix=300,
            long_run_n_cap=2_000_000,
            note="shifted variant of example3",
        ),
        Preset(
            name="example3-f2",
            poly=candidate_poly(SearchConfig(d=_D_B, d1=54151, alpha=0, sign=1, shift=1484224)),
            g=17431902,
            expected_count=31082,
            expected_failing_prime=1196918237285051573,
            default_prefix=200,
            long_run_n_cap=5_000_000,
            note="largest known streak overall, quality ~0.999535",
        ),
    ]
    return {p.name: p for p in presets}


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _plain(value: Any, text: bool) -> Any:
    """value as nested dicts, lists and scalars: the one serialization walk.
    A Fraction becomes "n/d" in text output and {num, den} in json and csv."""
    if isinstance(value, Fraction):
        if text:
            return f"{value.numerator}/{value.denominator}"
        return {"num": value.numerator, "den": value.denominator}
    if is_dataclass(value) and not isinstance(value, type):
        return {k: _plain(v, text) for k, v in asdict(value).items()}
    if isinstance(value, dict):
        return {str(k): _plain(v, text) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v, text) for v in value]
    return value


def _flatten(prefix: str, value: Any, rows: list[tuple[str, str]]) -> None:
    """Rows of dotted key and value for the output of _plain."""
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}" if prefix else k, v, rows)
    elif isinstance(value, list):
        if any(isinstance(v, (dict, list)) for v in value):
            for i, v in enumerate(value):
                _flatten(f"{prefix}.{i}" if prefix else str(i), v, rows)
        else:
            rows.append((prefix, " ".join(map(str, value))))
    else:
        rows.append((prefix, str(value)))


def _emit(report: RunReport, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(_plain(report, text=False)))
        return
    rows: list[tuple[str, str]] = []
    _flatten("", _plain(report.outputs, text=fmt == "text"), rows)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["key", "value"])
        writer.writerows(rows)
        sys.stdout.write(buf.getvalue())
        return
    width = max((len(k) for k, _ in rows), default=0)
    for k, v in rows:
        print(f"{k.ljust(width)}  {v}")
    print(f"[{report.command} finished in {report.elapsed_ms:.1f} ms]")


# ---------------------------------------------------------------------------
# handlers: each returns the outputs of its command
# ---------------------------------------------------------------------------


def _require_long_run(args, what: str) -> None:
    if not args.long_run:
        raise ValueError(f"{what} needs --long-run (a minutes-scale computation)")


def _handle_streak(args) -> dict:
    f = parse_poly(args.poly)
    res = streak(f, args.g, args.n_cap)
    return {**asdict(res), "poly": str(f), "complete": res.n_at_failure is not None}


def _handle_pi(args) -> dict:
    f = parse_poly(args.poly)
    if args.x > 2_000_000:
        _require_long_run(args, f"pi up to {args.x}")
    return {"poly": str(f), "x": args.x, "count": prime_count(f, args.x)}


def _handle_prstats(args) -> dict:
    f = parse_poly(args.poly)
    if args.n_cap > LONG_RUN_NCAP:
        _require_long_run(args, f"prstats to n_cap={args.n_cap}")
    st = pr_stats(f, args.g, args.n_cap)
    fr = st.primes_with_g_pr / st.primes_total if st.primes_total else None
    return {
        "primes_total": st.primes_total,
        "primes_with_g_pr": st.primes_with_g_pr,
        "fraction": fr,
        "histogram": st.histogram,
        "n_cap": st.n_cap,
    }


def _handle_maxstreak(args) -> dict:
    f = parse_poly(args.poly)
    if args.k_max > LONG_RUN_KMAX:
        _require_long_run(args, f"maxstreak to k_max={args.k_max}")
    k_best, c_best = empirical_max_streak(args.g_base, f, args.k_max, n_cap=args.n_cap, workers=args.workers)
    return {"k_best": k_best, "g_best": k_best * k_best * args.g_base, "c_best": c_best}


def _handle_density(args) -> dict:
    if args.lehmer_naive:
        return {"kind": "lehmer_naive", **asdict(lehmer_naive_density())}
    if args.lehmer_corrected:
        return {"kind": "lehmer_corrected", **asdict(lehmer_corrected_density())}
    if args.totient_constant:
        return {"kind": "totient_ratio_constant", **asdict(totient_ratio_constant(args.cutoff))}
    if args.q_product:
        primes = [int(p) for p in args.q_product.split(",")]
        return {"kind": "totient_ratio_product", "value": totient_ratio_product(primes)}
    if args.bateman_horn:
        return {"kind": "bateman_horn", **asdict(bateman_horn_constant(parse_poly(args.bateman_horn), args.cutoff))}
    if args.simple:
        return {"kind": "simplified_quality", **asdict(pr_density_simple(*args.simple))}
    if not args.poly:
        raise ValueError("density needs --poly or one of the named product modes")
    f = parse_poly(args.poly)
    rep = pr_density(f, args.cutoff, accelerate=not args.no_accelerate)
    return {"kind": "quality", "poly": str(f), **asdict(rep)}


def _require_long_run_past_disc(args) -> None:
    if abs(args.disc) > LONG_RUN_DISC:
        _require_long_run(args, f"{args.command} with |--disc| above {LONG_RUN_DISC}")


def _handle_hlconst(args) -> dict:
    _require_long_run_past_disc(args)
    return asdict(hardy_littlewood_constant(args.disc, tol=args.tol))


def _handle_lvalue(args) -> dict:
    _require_long_run_past_disc(args)
    lv = dirichlet_l(args.s, args.disc)
    return {"s": lv.s, "disc": lv.D.D, "value": lv.value, "abs_error": lv.abs_error}


def _handle_mstat(args) -> dict:
    out: dict[str, Any] = {
        "expected_max": expected_max_streak(args.p1, args.s),
        "harmonic_estimate": harmonic_max_estimate(args.p1, args.s),
        "asymptotic_estimate": asymptotic_max_estimate(args.p1, args.s),
    }
    if args.simulate:
        mean, stderr = simulate_max_streak(args.p1, args.s, args.trials, args.seed)
        out.update(simulated_mean=mean, simulated_stderr=stderr, trials=args.trials)
    return out


def _handle_charsum(args) -> dict:
    if args.mode == "jacobsthal":
        return {"value": jacobsthal_sum(args.a, args.p), "a": args.a, "p": args.p}
    f = parse_poly(args.poly)
    if args.mode == "complete":
        return {"value": complete_char_sum(f, args.p), "p": args.p}
    if args.mode == "local":
        return {"value": local_average(f, args.p), "p": args.p}
    # mode == "average": composite odd squarefree modulus
    return {"value": char_average(f, args.d), "d": args.d}


def _handle_tau(args) -> dict:
    f = parse_poly(args.poly)
    if args.admissible:
        discs = admissible_discriminants(f, bound=args.bound)
        return {"admissible_discriminants": [fd.D for fd in discs], "bound": args.bound}
    if args.disc is None:
        raise ValueError("tau needs --disc (or --admissible)")
    return {"value": inert_proportion(f, args.disc), "disc": args.disc}


def _handle_search(args) -> dict:
    cfg = SearchConfig(**{f.name: getattr(args, f.name) for f in fields(SearchConfig)})
    if args.k_hi - args.k_lo + 1 > LONG_RUN_KMAX:
        _require_long_run(args, f"sweep over {args.k_hi - args.k_lo + 1} k values")
    best = sweep(cfg, checkpoint_path=args.checkpoint, workers=args.workers, resume=not args.fresh)
    return {
        "poly": str(candidate_poly(cfg)),
        "best_k": best.k,
        "best_g": best.g,
        "best_c": best.c,
        "failing_prime": best.failing_prime,
        "certified": best.certified,
        "config_hash": best.config_hash,
    }


def _handle_criteria(args) -> dict:
    scans = {
        "classic": chebyshev_criterion,
        "extended": lambda p: extended_chebyshev(args.g, p),
        "fueter": fueter_criterion,
    }
    if args.mode in scans:
        if args.max < 2:
            raise ValueError("--max must be >= 2")
        applicable = sum(map(scans[args.mode], primes_up_to(args.max)))
        head = {"mode": args.mode, "g": args.g} if args.mode == "extended" else {"mode": args.mode}
        tally = "disagreements" if args.mode == "fueter" else "violations"
        return {**head, "max": args.max, "applicable": applicable, tally: 0}
    if args.mode == "prop2":
        ok = lehmer_index_coprimality(args.k, args.n_cap)
        return {"mode": "prop2", "k": args.k, "n_cap": args.n_cap, "all_coprime": ok}
    excluded = excluded_index_primes(args.alpha, args.d1, args.d2, args.q_max)
    return {"mode": "lemma1", "excluded_primes": excluded}


def _handle_verify(args) -> dict:
    registry = preset_registry()
    if args.preset not in registry:
        raise ValueError(f"unknown preset {args.preset!r}; known: {sorted(registry)}")
    preset = registry[args.preset]
    if preset.g is None and args.n_cap is not None:
        raise ValueError(f"preset {preset.name!r} only counts primes; --n-cap applies to streak presets")
    checks: list[dict] = []
    if preset.g is not None:
        if args.long_run or preset.default_prefix is None:
            n_cap = preset.long_run_n_cap if args.n_cap is None else args.n_cap
            res = streak(preset.poly, preset.g, n_cap)
            checks.append(
                {
                    "check": "streak",
                    "count": res.count,
                    "expected_count": preset.expected_count,
                    "failing_prime": res.failing_prime,
                    "expected_failing_prime": preset.expected_failing_prime,
                    "ok": res.count == preset.expected_count
                    and res.failing_prime == preset.expected_failing_prime,
                }
            )
        else:
            prefix = preset.default_prefix
            cap = {} if args.n_cap is None else {"n_cap": args.n_cap}  # else the walk's own cap
            ok = verify_primitive_root_prefix(preset.poly, preset.g, prefix, **cap)
            checks.append({"check": "prefix", "prefix": prefix, "expected_count": preset.expected_count, "ok": ok})
    for x, expected in preset.pi_checks:
        count = prime_count(preset.poly, x)
        checks.append({"check": "pi", "x": x, "count": count, "expected": expected, "ok": count == expected})
    return {
        "preset": preset.name,
        "poly": str(preset.poly),
        "g": preset.g,
        "note": preset.note,
        "checks": checks,
        "ok": all(c["ok"] for c in checks),
    }


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _int_pair(text: str) -> tuple[int, int]:
    """argparse type for A,B: two comma-separated integers."""
    try:
        a, b = map(int, text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A,B (two integers), got {text!r}") from None
    return a, b


_POLY_HELP = (
    "polynomial: three comma-separated integers are quadratic a,b,c "
    "(leading first); any other count is constant-first c0,c1,...,ck"
)


class _Parser(argparse.ArgumentParser):
    """argparse takes "-1,0,1" for an unknown option: only plain numbers such
    as -5 may start with a dash as values.  No qprim option starts with a dash
    and a digit, so every such token is a value here, for instance a negative
    coefficient list after --poly or --bateman-horn.  Subparsers inherit the
    class."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\d")


# command -> its mode-scoped options -> each mode that reads the option, with
# the default filled in when it is left out (None: the mode needs it).
# Any other mode refuses the option.  A mode is a flag of its command
# (density, mstat, tau) or a value of --mode (criteria, charsum).
_MODE_OPTIONS = {
    "density": {
        "cutoff": {"poly": 10_000, "totient_constant": 10_000_000, "bateman_horn": 100_000},
        "no_accelerate": {"poly": False},
    },
    "mstat": {"trials": {"simulate": 2000}, "seed": {"simulate": 20260810}},
    "criteria": {
        "max": dict.fromkeys(("classic", "extended", "fueter"), 10_000),
        "g": {"extended": 3},
        "k": {"prop2": 1},
        "n_cap": {"prop2": 2000},
        **{option: {"lemma1": d} for option, d in (("alpha", 1), ("d1", 163), ("d2", 1), ("q_max", 40))},
    },
    "charsum": {
        "a": {"jacobsthal": None},
        "d": {"average": None},
        "poly": dict.fromkeys(("complete", "local", "average"), None),
        "p": dict.fromkeys(("complete", "local", "jacobsthal"), None),
    },
    "tau": {"bound": {"admissible": 2000}},
}


def _build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="qprim", description=__doc__)
    top.add_argument("--version", action="version", version=f"qprim {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json", "csv"), default="text")
    gated = argparse.ArgumentParser(add_help=False)
    gated.add_argument("--long-run", action="store_true", help="allow minutes-scale computations")
    poly = argparse.ArgumentParser(add_help=False)
    poly.add_argument("--poly", required=True, help=_POLY_HELP)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("streak", parents=[common, poly], help="primitive-root streak of a base over the primes f(n)")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--n-cap", type=int, default=100_000)
    p.set_defaults(func=_handle_streak)

    p = sub.add_parser("pi", parents=[common, gated, poly], help="count n <= x with f(n) prime")
    p.add_argument("--x", type=int, required=True)
    p.set_defaults(func=_handle_pi)

    p = sub.add_parser("prstats", parents=[common, gated, poly], help="residual-index histogram over the primes f(n)")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--n-cap", type=int, default=100_000)
    p.set_defaults(func=_handle_prstats)

    p = sub.add_parser("maxstreak", parents=[common, gated, poly], help="max streak of k^2*g over k <= k_max")
    p.add_argument("--g-base", type=int, required=True)
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--n-cap", type=int, default=200_000)
    p.add_argument("--workers", type=int, default=1, help="no effect: the k-sweep runs in one process (must be >= 1)")
    p.set_defaults(func=_handle_maxstreak)

    p = sub.add_parser("density", parents=[common], help="quality densities and named Euler products")
    p.add_argument("--cutoff", type=int)
    p.add_argument("--no-accelerate", action="store_true", default=None)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--poly", help=_POLY_HELP)
    mode.add_argument("--simple", metavar="A,B", type=_int_pair, help="simplified quality of A*X^2+B")
    for flag in ("--lehmer-naive", "--lehmer-corrected", "--totient-constant"):
        mode.add_argument(flag, action="store_true", default=None)
    mode.add_argument("--q-product", metavar="P1,P2,...", help="prod (p-1)/phi(p-1)")
    mode.add_argument("--bateman-horn", metavar="POLY")
    p.set_defaults(func=_handle_density)

    p = sub.add_parser(
        "hlconst", parents=[common, gated], help="prime-density constant for a negative fundamental discriminant"
    )
    p.add_argument("--disc", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=_handle_hlconst)

    p = sub.add_parser("lvalue", parents=[common, gated], help="Dirichlet L(s, chi_D) at s = 1 or 2")
    p.add_argument("--s", type=int, required=True, choices=(1, 2))
    p.add_argument("--disc", type=int, required=True)
    p.set_defaults(func=_handle_lvalue)

    p = sub.add_parser("mstat", parents=[common], help="expected maximum of s geometric streaks")
    p.add_argument("--p1", type=float, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--simulate", action="store_true", default=None)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_handle_mstat)

    p = sub.add_parser("charsum", parents=[common], help="complete character sums and averages (exact rationals)")
    p.add_argument("--mode", choices=("complete", "local", "average", "jacobsthal"), default="complete")
    p.add_argument("--poly", help=_POLY_HELP)
    p.add_argument("--p", type=int, help="odd prime modulus")
    p.add_argument("--d", type=int, help="odd squarefree modulus")
    p.add_argument("--a", type=int, help="shift")
    p.set_defaults(func=_handle_charsum)

    p = sub.add_parser("tau", parents=[common, poly], help="inert proportion of the primes f(n) in a quadratic field")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--disc", type=int, help="fundamental discriminant")
    mode.add_argument("--admissible", action="store_true", default=None, help="list discriminants with tau = 1")
    p.add_argument("--bound", type=int)
    p.set_defaults(func=_handle_tau)

    p = sub.add_parser("search", parents=[common, gated], help="checkpointed k-sweep for record streaks")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--d1", type=int, required=True)
    p.add_argument("--alpha", type=int, default=0)
    p.add_argument("--sign", type=int, default=1, choices=(1, -1))
    p.add_argument("--shift", type=int, default=0)
    p.add_argument("--r1", type=int, default=1)
    p.add_argument("--r2", type=int, default=1)
    p.add_argument("--g-base", type=int, required=True)
    p.add_argument("--k-lo", type=int, default=1)
    p.add_argument("--k-hi", type=int, required=True)
    p.add_argument("--n-cap", type=int, default=100_000)
    p.add_argument("--checkpoint", help="append-only JSON-lines checkpoint; resumable")
    p.add_argument("--fresh", action="store_true", help="replace an existing checkpoint")
    p.add_argument("--workers", type=int, default=1, help="no effect: the k-sweep runs in one process (must be >= 1)")
    p.set_defaults(func=_handle_search)

    p = sub.add_parser("criteria", parents=[common], help="primitive-root criteria scans")
    p.add_argument("--mode", choices=("classic", "extended", "fueter", "prop2", "lemma1"), required=True)
    p.add_argument("--max", type=int, help="scan bound")
    p.add_argument("--g", type=int, help="base")
    p.add_argument("--k", type=int, help="multiplier")
    p.add_argument("--n-cap", type=int, help="scan bound")
    for option in ("--alpha", "--d1", "--d2", "--q-max"):
        p.add_argument(option, type=int)
    p.set_defaults(func=_handle_criteria)

    p = sub.add_parser("verify", parents=[common, gated], help="run a named reproduction preset")
    p.add_argument("--preset", required=True)
    p.add_argument("--n-cap", type=int, help="walk a streak preset's primes to this n")
    p.set_defaults(func=_handle_verify)

    for command, options in _MODE_OPTIONS.items():
        actions = {a.dest: a for a in sub.choices[command]._actions}
        for option, modes in options.items():
            read = ", ".join(
                f"{_mode_flag(actions, m)} ({'required' if d is None else f'default {d}'})"
                for m, d in modes.items()
            )
            actions[option].help = "; ".join(filter(None, (actions[option].help, f"read by {read}")))
    return top


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _mode_flag(dests, mode: str) -> str:
    """A mode as it is given: a flag of its command, or a value of --mode."""
    return _flag(mode) if mode in dests else f"--mode {mode}"


def _fill_mode_options(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Set each mode-scoped option that args leaves out to its mode's default
    in _MODE_OPTIONS.  An option given under a mode that does not read it is a
    usage error of its command (exit 2); a required one left out is a ValueError."""
    table = _MODE_OPTIONS.get(args.command, {})
    mode = {
        option: next((m for m in modes if getattr(args, m, None) or getattr(args, "mode", None) == m), None)
        for option, modes in table.items()
    }
    for option, modes in table.items():
        if mode[option] is None and getattr(args, option) is not None:
            named = ", ".join(_mode_flag(vars(args), m) for m in modes)
            commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
            commands.choices[args.command].error(f"{args.command} {_flag(option)} applies only with {named}")
    for option, m in mode.items():
        if m is not None and getattr(args, option) is None:
            if table[option][m] is None:
                raise ValueError(f"{args.command} {_mode_flag(vars(args), m)} needs {_flag(option)}")
            setattr(args, option, table[option][m])


def main(argv: list[str] | None = None) -> int:
    """Run one command and emit its RunReport.  The report echoes the options
    given and those with an argparse default as its inputs, so any report can
    be rerun from its JSON."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    drop = ("command", "func", "format")
    inputs = {k: v for k, v in vars(args).items() if k not in drop and v is not None}
    start = time.perf_counter()
    try:
        _fill_mode_options(parser, args)
        outputs = args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = RunReport(
        command=args.command,
        inputs=inputs,
        outputs=outputs,
        elapsed_ms=(time.perf_counter() - start) * 1000.0,
        version=__version__,
        seed=getattr(args, "seed", None),  # mstat's, set only with --simulate
    )
    _emit(report, args.format)
    return 0 if outputs.get("ok", True) else 1


if __name__ == "__main__":
    sys.exit(main())
