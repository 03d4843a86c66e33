"""Command-line front end: tables, series expansions, verification runs.

All results go to standard out and are byte-identical across repeated
invocations; diagnostics (timing) go to standard error.  Exit codes:
0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import combinatorics, duality, ffield, verify

K_LIMIT = 32
N_LIMIT = 64

SERIES_FAMILIES = tuple(duality.FAMILIES)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="confpoly",
        description=(
            "Poincare polynomials (standard and virtual) of configuration "
            "spaces of the plane with k punctures, with cross-verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser("table", help="print value tables")
    table_sub = table.add_subparsers(dest="subject", required=True)

    pyr = table_sub.add_parser("pyramidal", help="table of pyramidal numbers")
    pyr.add_argument("--max-k", type=int, default=3)
    pyr.add_argument("--max-i", type=int, default=4)
    pyr.add_argument("--format", choices=("csv", "latex"), default="csv")
    pyr.set_defaults(run=_cmd_table_pyramidal, parser=pyr)

    betti = table_sub.add_parser("betti", help="Betti numbers / virtual polynomials")
    betti.add_argument("--space", choices=("unordered", "ordered"), default="unordered")
    betti.add_argument("--kind", choices=("standard", "virtual"), default="standard")
    betti.add_argument("-k", type=int, required=True, help="number of punctures")
    betti.add_argument("--max-n", type=int, required=True)
    betti.add_argument("--format", choices=("csv", "json", "latex"), default="csv")
    betti.set_defaults(run=_cmd_table_betti, parser=betti)

    series = sub.add_parser("series", help="print generating-series coefficients")
    series.add_argument("--family", choices=SERIES_FAMILIES, required=True)
    series.add_argument("-k", type=int, required=True)
    series.add_argument("--order", type=int, required=True)
    series.set_defaults(run=_cmd_series, parser=series)

    ver = sub.add_parser("verify", help="run cross-verification suites")
    ver.add_argument(
        "suite_pos", nargs="?", metavar="suite",
        choices=("all",) + verify.SUITES, help="suite to run (default: all)",
    )
    ver.add_argument("--suite", choices=("all",) + verify.SUITES)
    ver.add_argument("-k", type=int, default=None, help="restrict to a single k")
    ver.add_argument("--max-k", type=int, default=None)
    ver.add_argument("--max-n", type=int, default=None)
    ver.add_argument(
        "--space", choices=("unordered", "ordered", "both"), default="both"
    )
    ver.add_argument(
        "--primes",
        default=",".join(map(str, verify.DEFAULT_PRIMES)),
        help="comma-separated primes",
    )
    ver.set_defaults(run=_cmd_verify, parser=ver)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.run(args.parser, args)


# -- table ------------------------------------------------------------


def _require(parser: argparse.ArgumentParser, ok: bool, message: str) -> None:
    if not ok:
        parser.error(message)  # exits with status 2


def _cmd_table_pyramidal(parser, args) -> int:
    _require(parser, -1 <= args.max_k <= K_LIMIT, f"--max-k must be in [-1, {K_LIMIT}]")
    _require(parser, 0 <= args.max_i <= N_LIMIT, f"--max-i must be in [0, {N_LIMIT}]")
    table = combinatorics.PyramidalTable.build(args.max_k, args.max_i)
    if args.format == "csv":
        for row in table.rows:
            print(",".join(str(v) for v in row))
    else:
        cols = "c|" + "c" * (args.max_i + 1)
        print(rf"\begin{{tabular}}{{{cols}}}")
        header = " & ".join(str(i) for i in range(args.max_i + 1))
        print(rf"$k \backslash i$ & {header} \\")
        print(r"\midrule")
        body = []
        for k, row in zip(range(-1, args.max_k + 1), table.rows):
            body.append(f"{k} & " + " & ".join(str(v) for v in row))
        print(" \\\\\n".join(body))
        print(r"\end{tabular}")
    return 0


def _cmd_table_betti(parser, args) -> int:
    _require(parser, 0 <= args.k <= K_LIMIT, f"-k must be in [0, {K_LIMIT}]")
    _require(parser, 0 <= args.max_n <= N_LIMIT, f"--max-n must be in [0, {N_LIMIT}]")
    k, standard = args.k, args.kind == "standard"
    polys = duality.FAMILIES[f"{args.kind}-{args.space}"](k, args.max_n)

    def coeffs(n, poly):
        # standard rows list the ranks of degrees 0..n, virtual rows the
        # coefficients of x^0..x^2n
        return [poly.coefficient(e) for e in range(n + 1 if standard else 2 * n + 1)]

    if args.format == "csv":
        for n, poly in enumerate(polys):
            print(",".join(str(c) for c in coeffs(n, poly)) if standard else poly)
    elif args.format == "json":
        payload = [
            {
                "k": k,
                "n": n,
                "ranks" if standard else "coeffs": [str(c) for c in coeffs(n, poly)],
                "poly": str(poly),
            }
            for n, poly in enumerate(polys)
        ]
        print(json.dumps(payload, indent=2))
    else:
        print(r"\begin{tabular}{r|l}")
        print(r"$n$ & polynomial \\")
        print(r"\midrule")
        print(" \\\\\n".join(f"{n} & ${poly}$" for n, poly in enumerate(polys)))
        print(r"\end{tabular}")
    return 0


# -- series -----------------------------------------------------------


def _cmd_series(parser, args) -> int:
    _require(parser, 0 <= args.k <= K_LIMIT, f"-k must be in [0, {K_LIMIT}]")
    _require(parser, 0 <= args.order <= N_LIMIT, f"--order must be in [0, {N_LIMIT}]")
    for coeff in duality.FAMILIES[args.family](args.k, args.order):
        print(coeff)
    return 0


# -- verify -----------------------------------------------------------


def _parse_primes(parser, raw: str) -> tuple[int, ...]:
    try:
        primes = tuple(int(p) for p in raw.split(",") if p.strip())
    except ValueError:
        parser.error(f"--primes must be comma-separated integers, got {raw!r}")
    _require(parser, bool(primes), "--primes must name at least one prime")
    for q in primes:
        try:
            ffield.PrimeField(q)
        except ValueError as exc:
            parser.error(f"--primes: {exc}")
    return primes


def _format_check(c: verify.CheckResult) -> str:
    status = "PASS" if c.passed else "FAIL"
    line = f"{status} suite={c.suite} space={c.space} k={c.k} n={c.n}"
    if c.detail:
        line += f" | {c.detail}"
    return line


def _cmd_verify(parser, args) -> int:
    suite = args.suite_pos or args.suite or "all"
    if args.suite_pos and args.suite and args.suite_pos != args.suite:
        parser.error(f"conflicting suites: {args.suite_pos} vs {args.suite}")
    if args.k is not None:
        _require(parser, 0 <= args.k <= K_LIMIT, f"-k must be in [0, {K_LIMIT}]")
    if args.max_k is not None:
        _require(parser, 0 <= args.max_k <= K_LIMIT, f"--max-k must be in [0, {K_LIMIT}]")
    if args.max_n is not None:
        _require(parser, 0 <= args.max_n <= N_LIMIT, f"--max-n must be in [0, {N_LIMIT}]")
    spaces = ("unordered", "ordered") if args.space == "both" else (args.space,)
    primes = _parse_primes(parser, args.primes)
    if suite in ("all", "pointcount"):
        size = verify.pointcount_size(primes, args.max_n)
        _require(
            parser, size <= ffield.ENUMERATION_BUDGET,
            f"pointcount would enumerate {size} polynomials, over the budget of "
            f"{ffield.ENUMERATION_BUDGET}; lower --max-n or drop primes from --primes",
        )

    summary, results = verify.run_suites(
        [suite],
        only_k=args.k,
        max_k=args.max_k,
        max_n=args.max_n,
        spaces=spaces,
        primes=primes,
    )

    if suite == "all":
        for name in summary.suites:
            group = [r for r in results if r.suite == name]
            bad = sum(1 for r in group if not r.passed)
            print(f"suite {name}: {len(group)} checks, {bad} failed")
    for r in results:
        if suite != "all" or not r.passed:
            print(_format_check(r))

    print(
        f"summary: suites={','.join(summary.suites)} "
        f"passed={summary.passed} failed={summary.failed}"
    )
    if summary.first_failure is not None:
        print(f"first failure: {_format_check(summary.first_failure)}")
    print(f"result: {'PASS' if summary.ok else 'FAIL'}")
    print(f"verified in {summary.duration:.2f}s", file=sys.stderr)
    return 0 if summary.ok else 1


if __name__ == "__main__":
    sys.exit(main())
