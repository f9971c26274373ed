"""Command-line surface.

Subcommands: streak, pi, prstats, maxstreak, density, hlconst, lvalue, mstat,
charsum, tau, search, criteria, verify.  Default output is text; --format
json emits a single RunReport document, --format csv a flat key,value table.
Exit codes: 0 success, 1 computation error or failed verification, 2 usage
error.

Five commands take --long-run.  pi past x = 2e6, prstats past n_cap = 1e6,
and maxstreak and search over more than 2000 k values exit 1 without it;
verify walks the full record streaks, not a fast prefix, only with it.
streak has no gate: it walks to whatever --n-cap it is given.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
import time
from dataclasses import asdict, dataclass, fields, is_dataclass
from fractions import Fraction
from typing import Any

from . import __version__
from .arith import primes_up_to
from .charsums import (
    FundamentalDiscriminant,
    admissible_discriminants,
    brute_char_average,
    char_average,
    complete_char_sum,
    inert_proportion,
    jacobsthal_sum,
    local_char_average,
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
from .poly import QuadraticPoly, as_polyz, parse_poly
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
    name: str
    poly: QuadraticPoly
    g: int | None
    expected_count: int | None
    expected_failing_prime: int | None
    pi_checks: tuple[tuple[int, int], ...]
    default_prefix: int | None  # None: verify the full streak by default
    long_run_n_cap: int
    note: str


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
            pi_checks=(),
            default_prefix=None,
            long_run_n_cap=4_000,
            note="base 326; streak ends at n=2375 with residual index 83",
        ),
        Preset(
            name="griffin",
            poly=QuadraticPoly(a=10, b=0, c=7),
            g=10,
            expected_count=16,
            expected_failing_prime=7297,
            pi_checks=(),
            default_prefix=None,
            long_run_n_cap=2_000,
            note="decimal periods of 1/p for p = 10n^2+7",
        ),
        Preset(
            name="euler41",
            poly=QuadraticPoly(a=1, b=1, c=41),
            g=None,
            expected_count=None,
            expected_failing_prime=None,
            pi_checks=((39, 40), (10**6, 261081)),
            default_prefix=None,
            long_run_n_cap=10**6,
            note="prime-producing quadratic; the published 1e6 count (261080) drops the n=0 term",
        ),
        Preset(
            name="beeger27941",
            poly=QuadraticPoly(a=1, b=1, c=27941),
            g=None,
            expected_count=None,
            expected_failing_prime=None,
            pi_checks=((39, 30), (10**6, 286129)),
            default_prefix=None,
            long_run_n_cap=10**6,
            note="denser prime producer than euler41 in the long run; published 1e6 count (286128) drops n=0",
        ),
        Preset(
            name="example1",
            poly=candidate_poly(SearchConfig(d=_D_A, d1=252017, alpha=2, sign=-1, shift=8393)),
            g=170363492,
            expected_count=22779,
            expected_failing_prime=432050978399143373,
            pi_checks=(),
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
            pi_checks=(),
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
            pi_checks=(),
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
            pi_checks=(),
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
            pi_checks=(),
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
            pi_checks=(),
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
    if isinstance(value, FundamentalDiscriminant):
        return value.D
    if isinstance(value, QuadraticPoly):
        return {"a": value.a, "b": value.b, "c": value.c}
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


def _default_workers(args) -> int:
    if args.workers:
        return args.workers
    env = os.environ.get("QPRIM_THREADS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def _filled(args, **defaults) -> argparse.Namespace:
    """args with each option left at None set to its default.  Options that
    only some modes read default to None, so a report echoes only those given
    and reruns from its inputs."""
    unset = {k: v for k, v in defaults.items() if getattr(args, k) is None}
    return argparse.Namespace(**{**vars(args), **unset})


def _require_long_run(args, what: str) -> None:
    if not args.long_run:
        raise ValueError(f"{what} needs --long-run (a minutes-scale computation)")


def _handle_streak(args) -> dict:
    f = parse_poly(args.poly)
    res = streak(f, args.g, args.n_cap)
    return {**asdict(res), "poly": str(as_polyz(f)), "complete": res.n_at_failure is not None}


def _handle_pi(args) -> dict:
    f = parse_poly(args.poly)
    if args.x > 2_000_000:
        _require_long_run(args, f"pi up to {args.x}")
    return {"poly": str(as_polyz(f)), "x": args.x, "count": prime_count(f, args.x)}


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
    k_best, c_best = empirical_max_streak(
        args.g_base, f, args.k_max, n_cap=args.n_cap, workers=_default_workers(args)
    )
    return {"k_best": k_best, "g_best": k_best * k_best * args.g_base, "c_best": c_best}


def _handle_density(args) -> dict:
    if args.lehmer_naive:
        return {"kind": "lehmer_naive", **asdict(lehmer_naive_density())}
    if args.lehmer_corrected:
        return {"kind": "lehmer_corrected", **asdict(lehmer_corrected_density())}
    if args.totient_constant:
        rep = totient_ratio_constant(args.cutoff or 10_000_000)
        return {"kind": "totient_ratio_constant", **asdict(rep)}
    if args.q_product:
        primes = [int(p) for p in args.q_product.split(",")]
        return {"kind": "totient_ratio_product", "value": totient_ratio_product(primes)}
    if args.bateman_horn:
        rep = bateman_horn_constant(parse_poly(args.bateman_horn), cutoff=args.cutoff or 100_000)
        return {"kind": "bateman_horn", **asdict(rep)}
    if args.simple:
        return {"kind": "simplified_quality", **asdict(pr_density_simple(*args.simple))}
    if not args.poly:
        raise ValueError("density needs --poly or one of the named product modes")
    f = parse_poly(args.poly)
    rep = pr_density(f, cutoff=args.cutoff or 10_000, accelerate=not args.no_accelerate)
    return {"kind": "quality", "poly": str(as_polyz(f)), **asdict(rep)}


def _handle_hlconst(args) -> dict:
    return asdict(hardy_littlewood_constant(args.disc, tol=args.tol))


def _handle_lvalue(args) -> dict:
    lv = dirichlet_l(args.s, args.disc, tol=args.tol)
    return {"s": lv.s, "disc": lv.D.D, "value": lv.value, "abs_error": lv.abs_error}


def _handle_mstat(args) -> dict:
    out: dict[str, Any] = {
        "expected_max": expected_max_streak(args.p1, args.s),
        "harmonic_estimate": harmonic_max_estimate(args.p1, args.s),
        "asymptotic_estimate": asymptotic_max_estimate(args.p1, args.s),
    }
    if args.simulate:
        trials = 2000 if args.trials is None else args.trials
        mean, stderr = simulate_max_streak(args.p1, args.s, trials, _simulation_seed(args))
        out["simulated_mean"] = mean
        out["simulated_stderr"] = stderr
        out["trials"] = trials
    return out


def _simulation_seed(args) -> int:
    return 20260810 if args.seed is None else args.seed


def _handle_charsum(args) -> dict:
    if args.mode == "jacobsthal":
        if args.a is None or args.p is None:
            raise ValueError("--mode jacobsthal needs --a and --p")
        return {"value": jacobsthal_sum(args.a, args.p), "a": args.a, "p": args.p}
    if not args.poly:
        raise ValueError(f"--mode {args.mode} needs --poly")
    f = parse_poly(args.poly)
    if args.mode in ("complete", "local") and args.p is None:
        raise ValueError(f"--mode {args.mode} needs --p")
    if args.mode == "complete":
        if not isinstance(f, QuadraticPoly):
            raise ValueError("the complete sum closed form needs a quadratic (a,b,c)")
        return {"value": complete_char_sum(f, args.p), "p": args.p}
    if args.mode == "local":
        if isinstance(f, QuadraticPoly):
            val = local_char_average(f, args.p)
        else:
            val = brute_char_average(f, args.p)
        return {"value": val, "p": args.p}
    # mode == "average": composite odd squarefree modulus
    if args.d is None:
        raise ValueError("--mode average needs --d")
    if not isinstance(f, QuadraticPoly):
        raise ValueError("the multiplicative average needs a quadratic (a,b,c)")
    return {"value": char_average(f, args.d), "d": args.d}


def _handle_tau(args) -> dict:
    f = parse_poly(args.poly)
    args = _filled(args, bound=2000)
    if args.admissible:
        if not isinstance(f, QuadraticPoly):
            raise ValueError("admissible-discriminant scans need a quadratic (a,b,c)")
        discs = admissible_discriminants(f, bound=args.bound)
        return {"admissible_discriminants": [fd.D for fd in discs], "bound": args.bound}
    if args.disc is None:
        raise ValueError("tau needs --disc (or --admissible)")
    return {"value": inert_proportion(f, args.disc), "disc": args.disc}


def _handle_search(args) -> dict:
    cfg = SearchConfig(**{f.name: getattr(args, f.name) for f in fields(SearchConfig)})
    if args.k_hi - args.k_lo + 1 > LONG_RUN_KMAX:
        _require_long_run(args, f"sweep over {args.k_hi - args.k_lo + 1} k values")
    best = sweep(
        cfg,
        checkpoint_path=args.checkpoint,
        workers=_default_workers(args),
        resume=not args.fresh,
    )
    return {
        "poly": str(candidate_poly(cfg).as_poly()),
        "best_k": best.k,
        "best_g": best.g,
        "best_c": best.c,
        "failing_prime": best.failing_prime,
        "certified": best.certified,
        "config_hash": best.config_hash,
    }


def _handle_criteria(args) -> dict:
    args = _filled(args, max=10_000, g=3, k=1, n_cap=2000, alpha=1, d1=163, d2=1, q_max=40)
    scans = {
        "classic": chebyshev_criterion,
        "extended": lambda p: extended_chebyshev(args.g, p),
        "fueter": fueter_criterion,
    }
    if args.mode in scans:
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
    if preset.g is None and args.n_cap:
        raise ValueError(f"preset {preset.name!r} only counts primes; --n-cap applies to streak presets")
    checks: list[dict] = []
    if preset.g is not None:
        if args.long_run or preset.default_prefix is None:
            res = streak(preset.poly, preset.g, args.n_cap or preset.long_run_n_cap)
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
            cap = {"n_cap": args.n_cap} if args.n_cap else {}  # else the walk's own cap
            ok = verify_primitive_root_prefix(preset.poly, preset.g, prefix, **cap)
            checks.append(
                {"check": "prefix", "prefix": prefix, "expected_count": preset.expected_count, "ok": ok}
            )
    for x, expected in preset.pi_checks:
        count = prime_count(preset.poly, x)
        checks.append({"check": "pi", "x": x, "count": count, "expected": expected, "ok": count == expected})
    return {
        "preset": preset.name,
        "poly": str(preset.poly.as_poly()),
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
    p.add_argument("--workers", type=int, default=0, help="0: QPRIM_THREADS or cpu count")
    p.set_defaults(func=_handle_maxstreak)

    p = sub.add_parser("density", parents=[common], help="quality densities and named Euler products")
    p.add_argument("--cutoff", type=int, help="read by --poly, --totient-constant and --bateman-horn")
    p.add_argument("--no-accelerate", action="store_true", default=None, help="read by --poly")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--poly", help=_POLY_HELP)
    mode.add_argument("--simple", metavar="A,B", type=_int_pair, help="simplified quality of A*X^2+B")
    mode.add_argument("--lehmer-naive", action="store_true", default=None)
    mode.add_argument("--lehmer-corrected", action="store_true", default=None)
    mode.add_argument("--totient-constant", action="store_true", default=None)
    mode.add_argument("--q-product", metavar="P1,P2,...", help="prod (p-1)/phi(p-1)")
    mode.add_argument("--bateman-horn", metavar="POLY")
    p.set_defaults(func=_handle_density)

    p = sub.add_parser("hlconst", parents=[common], help="prime-density constant for a negative fundamental discriminant")
    p.add_argument("--disc", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=_handle_hlconst)

    p = sub.add_parser("lvalue", parents=[common], help="Dirichlet L(s, chi_D) at s = 1 or 2")
    p.add_argument("--s", type=int, required=True, choices=(1, 2))
    p.add_argument("--disc", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=_handle_lvalue)

    p = sub.add_parser("mstat", parents=[common], help="expected maximum of s geometric streaks")
    p.add_argument("--p1", type=float, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--simulate", action="store_true", default=None)
    p.add_argument("--trials", type=int, help="read by --simulate (default 2000)")
    p.add_argument("--seed", type=int, help="read by --simulate (default 20260810)")
    p.set_defaults(func=_handle_mstat)

    p = sub.add_parser("charsum", parents=[common], help="complete character sums and averages (exact rationals)")
    p.add_argument("--mode", choices=("complete", "local", "average", "jacobsthal"), default="complete")
    p.add_argument("--poly", help=_POLY_HELP)
    p.add_argument("--p", type=int, help="odd prime modulus")
    p.add_argument("--d", type=int, help="odd squarefree modulus for --mode average")
    p.add_argument("--a", type=int, help="shift for --mode jacobsthal")
    p.set_defaults(func=_handle_charsum)

    p = sub.add_parser("tau", parents=[common, poly], help="inert proportion of the primes f(n) in a quadratic field")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--disc", type=int, help="fundamental discriminant")
    mode.add_argument("--admissible", action="store_true", default=None, help="list discriminants with tau = 1")
    p.add_argument("--bound", type=int, help="read by --admissible (default 2000)")
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
    p.add_argument("--workers", type=int, default=0, help="0: QPRIM_THREADS or cpu count")
    p.set_defaults(func=_handle_search)

    p = sub.add_parser("criteria", parents=[common], help="primitive-root criteria scans")
    p.add_argument("--mode", choices=("classic", "extended", "fueter", "prop2", "lemma1"), required=True)
    p.add_argument("--max", type=int, help="scan bound for classic/extended/fueter (default 10000)")
    p.add_argument("--g", type=int, help="base for --mode extended (default 3)")
    p.add_argument("--k", type=int, help="multiplier for --mode prop2 (default 1)")
    p.add_argument("--n-cap", type=int, help="scan bound for --mode prop2 (default 2000)")
    p.add_argument("--alpha", type=int, help="for --mode lemma1 (default 1)")
    p.add_argument("--d1", type=int, help="for --mode lemma1 (default 163)")
    p.add_argument("--d2", type=int, help="for --mode lemma1 (default 1)")
    p.add_argument("--q-max", type=int, help="for --mode lemma1 (default 40)")
    p.set_defaults(func=_handle_criteria)

    p = sub.add_parser("verify", parents=[common, gated], help="run a named reproduction preset")
    p.add_argument("--preset", required=True)
    p.add_argument("--n-cap", type=int, default=0, help="walk a streak preset's primes to this n")
    p.set_defaults(func=_handle_verify)

    return top


# (command, option, the modes that read it): any other mode refuses the option.
# A mode is a flag of its command (density, mstat, tau) or a value of --mode.
_MODE_OPTIONS = (
    ("density", "cutoff", ("poly", "totient_constant", "bateman_horn")),
    ("density", "no_accelerate", ("poly",)),
    ("mstat", "trials", ("simulate",)),
    ("mstat", "seed", ("simulate",)),
    ("criteria", "max", ("classic", "extended", "fueter")),
    ("criteria", "g", ("extended",)),
    ("criteria", "k", ("prop2",)),
    ("criteria", "n_cap", ("prop2",)),
    *(("criteria", option, ("lemma1",)) for option in ("alpha", "d1", "d2", "q_max")),
    ("charsum", "a", ("jacobsthal",)),
    ("charsum", "d", ("average",)),
    ("charsum", "poly", ("complete", "local", "average")),
    ("charsum", "p", ("complete", "local", "jacobsthal")),
    ("tau", "bound", ("admissible",)),
)


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def main(argv: list[str] | None = None) -> int:
    """Run one command and emit its RunReport.  The report echoes every parsed
    option as its inputs, so any report can be rerun from its JSON."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    for command, option, modes in _MODE_OPTIONS:
        given = args.command == command and getattr(args, option) is not None
        if given and not any(getattr(args, m, None) or getattr(args, "mode", None) == m for m in modes):
            named = ", ".join(_flag(m) if hasattr(args, m) else f"--mode {m}" for m in modes)
            parser.error(f"{command} {_flag(option)} applies only with {named}")
    start = time.perf_counter()
    try:
        outputs = args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    drop = ("command", "func", "format")
    report = RunReport(
        command=args.command,
        inputs={k: v for k, v in vars(args).items() if k not in drop and v is not None},
        outputs=outputs,
        elapsed_ms=(time.perf_counter() - start) * 1000.0,
        version=__version__,
        seed=_simulation_seed(args) if getattr(args, "simulate", False) else None,
    )
    _emit(report, args.format)
    return 0 if outputs.get("ok", True) else 1


if __name__ == "__main__":
    sys.exit(main())
