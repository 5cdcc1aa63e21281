"""Command-line surface.

Subcommands: analyze, compare-netting, advantage, advantage-table,
mc-check, hilbert-eval. Exit code 0 on success, 1 on validation or
parsing problems, 2 on numeric failure.
"""

import argparse
import math
import sys
from dataclasses import fields

from .advantage import ccp_advantage, min_participants_table
from .charfn import (
    LAWS,
    MomentError,
    charfn_of,
    cf_product,
    neg_abs_cf,
    pos_abs_cf,
)
from .exposure import expected_market
from .transforms import ToleranceError, TruncationError, hilbert_eval
from .io import ParseError, format_report, parse_market
from .market import Bilateral, MarketError, Multilateral
from .mc import mc_expected_exposure, mc_market_totals

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NUMERIC = 2


def _dist_from_args(args):
    law = LAWS[args.dist]
    return law(*(getattr(args, f.name) for f in fields(law)))


def _add_dist_args(parser):
    parser.add_argument("--dist", required=True, choices=list(LAWS))
    parser.add_argument("--scale", type=float, default=1.0,
                        help="scale parameter (laplace/gamma/exponential)")
    parser.add_argument("--sigma", type=float, default=1.0,
                        help="standard deviation (normal)")
    parser.add_argument("--half-width", dest="half_width", type=float,
                        default=1.0, help="support half width (uniform)")
    parser.add_argument("--shape", type=float, default=1.0,
                        help="shape parameter (gamma)")


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
    report = expected_market(market, dist, convention, tol=args.tol)
    estimates = mc_expected_exposure(market, convention, dist,
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
    ccp = convention.cls if isinstance(convention, Multilateral) else None
    totals = mc_market_totals(market, dist, args.samples, args.seed,
                              ccp_class=ccp)
    if ccp is not None and totals.multilateral is not None:
        label, mc = f"market total (pooled class {ccp})", totals.multilateral
    else:
        label, mc = "market total", totals.bilateral
    z = mc.z_score(report.market_total)
    worst = max(worst, abs(z))
    lines.append(f"{label}: analytic {report.market_total:.8f} "
                 f"mc {mc.estimate:.8f} z {z:+.2f}")
    lines.append(f"max |z| = {worst:.2f} over {args.samples} samples "
                 f"(seed {args.seed})")
    print("\n".join(lines))
    return EXIT_OK


def _cmd_hilbert_eval(args) -> int:
    dist = _dist_from_args(args)
    base = charfn_of(dist)
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
    parser.add_argument("--tol", type=float, default=1e-7,
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
    p.add_argument("--method",
                   choices=["auto", "residue", "dawson", "onesided", "pv"],
                   default="auto")
    p.set_defaults(func=_cmd_hilbert_eval)

    args = parser.parse_args(argv)
    try:
        if not 0 < args.tol < math.inf:
            raise ParseError("--tol must be positive and finite, "
                             f"got {args.tol:g}")
        if getattr(args, "samples", 2) < 2:
            raise ParseError("--samples must be at least 2 (the standard "
                             f"error needs two draws), got {args.samples}")
        if getattr(args, "power", 1) < 1:
            raise ParseError(f"--power must be at least 1, got {args.power}")
        if not math.isfinite(getattr(args, "omega", 0.0)):
            raise ParseError(f"--omega must be finite, got {args.omega:g}")
        return args.func(args)
    except (ToleranceError, MomentError, TruncationError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ParseError, MarketError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except RuntimeError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
