"""Command-line surface.

Subcommands: analyze, compare-netting, advantage, advantage-table,
mc-check, hilbert-eval. Exit code 0 on success, 1 on validation, parsing
or usage problems or a closed stdout, 2 on numeric failure.
"""

import argparse
import math
import os
import sys
from dataclasses import fields

from .advantage import ccp_advantage, min_participants_table
from .exposure import expected_market
from .io import ParseError, format_report, parse_market
from .laws import DEFAULT_TOL, LAWS, ROUTES, MomentError, TruncationError
from .market import Bilateral, Custom, MarketError, Multilateral

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NUMERIC = 2
_MAX_POWER = 1000  # hilbert-eval; more ran for minutes or out of memory


def __getattr__(name: str):
    """The Monte Carlo entry points, bound on first access (PEP 562); read
    through the module, so the benchmark's wrapped binding is seen."""
    if name not in ("mc_expected_exposure", "mc_market_totals"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import mc
    return globals().setdefault(name, getattr(mc, name))


def _dist_from_args(args):
    law = LAWS[args.dist]
    return law(*(getattr(args, f.name) for f in fields(law)))


def _add_dist_args(parser):
    parser.add_argument("--dist", required=True, choices=list(LAWS))
    laws_of = {}  # each law field, in catalog order, and the laws using it
    for name, law in LAWS.items():
        for f in fields(law):
            laws_of.setdefault(f.name, []).append(name)
    for param, laws in laws_of.items():
        parser.add_argument("--" + param.replace("_", "-"), type=float,
                            default=1.0,
                            help=f"law parameter ({'/'.join(laws)})")


def _convention_from_arg(text: str):
    if text == "bilateral":
        return Bilateral()
    kind, _, cls = text.partition(":")
    if kind == "multilateral":
        try:
            return Multilateral(cls=int(cls))
        except ValueError:
            pass
    raise ParseError(f"unknown convention {text!r} "
                     "(use bilateral or multilateral:<class>)")


def _load(args):
    mf = parse_market(args.market)
    convention = mf.convention
    if getattr(args, "convention", None):
        convention = _convention_from_arg(args.convention)
    if convention is None:
        convention = Bilateral()
    dist = mf.dist
    if dist is None:
        raise ParseError(f"{args.market}: no distribution in the file "
                         "(add a top-level \"dist\" object)")
    return mf.market, convention, dist


def _cmd_analyze(args) -> int:
    market, convention, dist = _load(args)
    report = expected_market(market, dist, convention, tol=args.tol)
    print(format_report(report, args.format))
    return EXIT_OK


def _cmd_compare(args) -> int:
    market, _, dist = _load(args)
    result = ccp_advantage(market, dist, args.cls, tol=args.tol)
    print(f"bilateral total:          {result.without_ccp:.8f}")
    print(f"with CCP in class {result.cls}:     {result.with_ccp:.8f}")
    verdict = "tie" if result.tie else (
        "advantageous" if result.advantageous else "not advantageous")
    print(f"central clearing is {verdict}")
    return EXIT_OK


def _cmd_advantage_table(args) -> int:
    dist = _dist_from_args(args)
    table = min_participants_table(dist, args.kmax)
    print("classes  minimal participants")
    for k, n in enumerate(table, start=1):
        print(f"{k:>7}  {n}")
    return EXIT_OK


def _cmd_mc_check(args) -> int:
    market, convention, dist = _load(args)
    cli = sys.modules[__name__]
    report = expected_market(market, dist, convention, tol=args.tol)
    estimates = cli.mc_expected_exposure(market, convention, dist,
                                         args.samples, args.seed)
    # printed once every z-score exists: a numeric failure prints nothing
    lines = [f"{'owner':<10} {'links':<14} {'analytic':>12} {'mc':>12} "
             f"{'stderr':>10} {'z':>7}"]
    worst = 0.0
    for e in report.per_netting_set:
        mc = estimates[(e.owner, e.links)]
        z = mc.z_score(e.value)
        worst = max(worst, abs(z))
        links = ",".join(str(i) for i in e.links)
        lines.append(f"{e.owner:<10} {links:<14} {e.value:>12.8f} "
                     f"{mc.estimate:>12.8f} {mc.stderr:>10.2e} {z:>7.2f}")
    if isinstance(convention, Custom):
        lines.append(f"market total: analytic {report.market_total:.8f} "
                     "(no independent Monte Carlo total for a custom "
                     "partition)")
    else:
        ccp = convention.cls if isinstance(convention, Multilateral) else None
        mc = cli.mc_market_totals(market, dist, args.samples, args.seed,
                                  ccp)
        label = "market total" + (f" (pooled class {ccp})" if ccp else "")
        z = mc.z_score(report.market_total)
        worst = max(worst, abs(z))
        lines.append(f"{label}: analytic {report.market_total:.8f} "
                     f"mc {mc.estimate:.8f} z {z:+.2f}")
    lines.append(f"max |z| = {worst:.2f} over {args.samples} samples "
                 f"(seed {args.seed})")
    print("\n".join(lines))
    return EXIT_OK


def _cmd_hilbert_eval(args) -> int:
    from .charfn import cf_product, charfn_of
    from .transforms import hilbert_eval, neg_abs_cf, pos_abs_cf
    base = charfn_of(_dist_from_args(args))
    if args.side == "pos":
        base = pos_abs_cf(base)
    elif args.side == "neg":
        base = neg_abs_cf(base)
    f = cf_product([base] * args.power)
    result = hilbert_eval(f, args.omega, tol=args.tol, method=args.method)
    value = result.value
    print(f"H{{phi^{args.power}}}({args.omega:g}) = "
          f"{value.real:+.12g}{value.imag:+.12g}i")
    print(f"method: {result.method}")
    print(f"error estimate: {result.error:.2e}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="netexposure",
        description="Expected counterparty exposure of financial networks "
                    "via characteristic functions and Hilbert transforms.",
        epilog=f"exit codes: {EXIT_OK} ok, {EXIT_INVALID} invalid input, "
               f"{EXIT_NUMERIC} numeric failure")
    parser.add_argument("--tol", type=float, default=DEFAULT_TOL,
                        help="absolute tolerance for numeric paths")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="expected exposure report")
    p.add_argument("--market", required=True)
    p.add_argument("--convention", default=None,
                   help="bilateral or multilateral:<class> "
                        "(default: from the file)")
    p.add_argument("--format", choices=["json", "table"], default="table")
    p.set_defaults(func=_cmd_analyze)

    for name in ("compare-netting", "advantage"):
        p = sub.add_parser(name, help="bilateral vs CCP comparison")
        p.add_argument("--market", required=True)
        p.add_argument("--class", dest="cls", type=int, required=True)
        p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("advantage-table",
                       help="minimal market size for a CCP to help, per "
                            "class count (complete graph)")
    _add_dist_args(p)
    p.add_argument("--kmax", type=int, default=10)
    p.set_defaults(func=_cmd_advantage_table)

    p = sub.add_parser("mc-check",
                       help="analytic values against Monte Carlo")
    p.add_argument("--market", required=True)
    p.add_argument("--convention", default=None)
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=_cmd_mc_check)

    p = sub.add_parser("hilbert-eval",
                       help="transform of a catalog c.f. power")
    _add_dist_args(p)
    p.add_argument("--power", type=int, default=1)
    p.add_argument("--omega", type=float, required=True)
    p.add_argument("--side", choices=["pos", "neg"], default=None,
                   help="use the signed absolute value of the law")
    p.add_argument("--method", choices=["auto", *ROUTES], default="auto")
    p.set_defaults(func=_cmd_hilbert_eval)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 on help
        if exc.code != 2:
            raise
        return EXIT_INVALID
    try:
        if not 0 < args.tol < math.inf:
            raise ParseError("--tol must be positive and finite, "
                             f"got {args.tol:g}")
        if getattr(args, "samples", 2) < 2:
            raise ParseError("--samples must be at least 2 (the standard "
                             f"error needs two draws), got {args.samples}")
        if not 1 <= getattr(args, "power", 1) <= _MAX_POWER:
            bound = "at least 1" if args.power < 1 else f"at most {_MAX_POWER}"
            raise ParseError(f"--power must be {bound}, got {args.power}")
        if not math.isfinite(getattr(args, "omega", 0.0)):
            raise ParseError(f"--omega must be finite, got {args.omega:g}")
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:  # e.g. `| head -1`; exit's own flush must pass
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return EXIT_INVALID
    except (RuntimeError, MomentError, TruncationError, MemoryError) as exc:
        empty = "out of memory" if isinstance(exc, MemoryError) else ""
        print(f"numeric failure: {str(exc) or empty}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ParseError, MarketError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
