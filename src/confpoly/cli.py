"""Command-line front end: tables, series expansions, verification runs.

All results go to standard out and are byte-identical across repeated
invocations; diagnostics (timing) go to standard error.  Exit codes:
0 success, 1 verification failure, 2 usage error, 141 standard out closed
by its reader (as ``| head`` does).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import TYPE_CHECKING, Callable, Iterable, Optional

# verify, and through it ffield, the point-count oracle, are imported by
# the one command that runs them, so a table or series call loads neither
from . import DEFAULT_PRIMES, SUITES, TooLargeError, combinatorics, duality, virtual

if TYPE_CHECKING:
    from . import verify

K_LIMIT = 32
N_LIMIT = 64

SERIES_FAMILIES = tuple(duality.FAMILIES)


def _within(lo: int, hi: int) -> Callable[[str], int]:
    """The argparse type of a flag limited to the integers in [lo, hi]."""

    def check(text: str) -> int:
        value = int(text)  # other text is argparse's "invalid int value" error
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"must be in [{lo}, {hi}]")
        return value

    check.__name__ = "int"  # argparse names the type by it
    return check


@functools.cache
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
    pyr.add_argument("--max-k", type=_within(-1, K_LIMIT), default=3)
    pyr.add_argument("--max-i", type=_within(0, N_LIMIT), default=4)
    pyr.add_argument("--format", choices=("csv", "latex"), default="csv")
    pyr.set_defaults(run=_cmd_table_pyramidal)

    betti = table_sub.add_parser("betti", help="Betti numbers / virtual polynomials")
    betti.add_argument("--space", choices=virtual.SPACES, default="unordered")
    betti.add_argument("--kind", choices=("standard", "virtual"), default="standard")
    betti.add_argument(
        "-k", type=_within(0, K_LIMIT), required=True, help="number of punctures"
    )
    betti.add_argument("--max-n", type=_within(0, N_LIMIT), required=True)
    betti.add_argument("--format", choices=("csv", "json", "latex"), default="csv")
    betti.set_defaults(run=_cmd_table_betti)

    series = sub.add_parser("series", help="print generating-series coefficients")
    series.add_argument("--family", choices=SERIES_FAMILIES, required=True)
    series.add_argument("-k", type=_within(0, K_LIMIT), required=True)
    series.add_argument("--order", type=_within(0, N_LIMIT), required=True)
    series.set_defaults(run=_cmd_series)

    ver = sub.add_parser("verify", help="run cross-verification suites")
    ver.add_argument(
        "suite_pos", nargs="?", metavar="suite",
        choices=("all",) + SUITES, help="suite to run (default: all)",
    )
    ver.add_argument("--suite", choices=("all",) + SUITES)
    one_k = ver.add_mutually_exclusive_group()
    one_k.add_argument("-k", type=_within(0, K_LIMIT), help="restrict to a single k")
    one_k.add_argument("--max-k", type=_within(0, K_LIMIT))
    ver.add_argument("--max-n", type=_within(0, N_LIMIT))
    ver.add_argument("--space", choices=virtual.SPACES + ("both",), default="both")
    ver.add_argument(
        "--primes",
        default=",".join(map(str, DEFAULT_PRIMES)),
        help="comma-separated primes",
    )
    # the one handler that reports usage errors of its own, through its parser
    ver.set_defaults(run=_cmd_verify, parser=ver)
    return parser


def _write(lines: Iterable[str]) -> None:
    """Write the lines, each ended by a newline, to standard out 4096
    characters (4 KB of ASCII) at a time.  The buffer of a pipe's standard
    out is 4 KB (its st_blksize on Linux); a larger write goes past it in
    one system call, which comes out short, and loses bytes, when a signal
    handler interrupts it (CPython 3.11).  The lines are joined first, so
    an answer costs a few writes, not one a line."""
    text = "\n".join(lines) + "\n"
    for start in range(0, len(text), 4096):
        sys.stdout.write(text[start : start + 4096])


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.run(args)
        sys.stdout.flush()  # inside the guard, so a closed pipe fails here
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to the null device,
        # so the interpreter's exit-time flush stays quiet, and exit as a
        # shell reports a process ended by SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


# -- table ------------------------------------------------------------


def _cmd_table_pyramidal(args) -> int:
    rows = combinatorics.pyramidal_rows(args.max_k, args.max_i)
    if args.format == "csv":
        _write(",".join(str(v) for v in row) for row in rows)
    else:
        _print_latex_table(
            "c|" + "c" * (args.max_i + 1),
            r"$k \backslash i$ & " + " & ".join(str(i) for i in range(args.max_i + 1)),
            (f"{k} & " + " & ".join(str(v) for v in row)
             for k, row in zip(range(-1, args.max_k + 1), rows)),
        )
    return 0


def _cmd_table_betti(args) -> int:
    k, standard = args.k, args.kind == "standard"
    polys = duality.FAMILIES[f"{args.kind}-{args.space}"](k, args.max_n)

    def width(n):
        # standard rows list the ranks of degrees 0..n, virtual rows the
        # coefficients of x^0..x^2n
        return n + 1 if standard else 2 * n + 1

    if args.format == "csv":
        _write(
            ",".join(poly.decimals(width(n))) if standard else str(poly)
            for n, poly in enumerate(polys)
        )
    elif args.format == "json":
        rows = ((n, *poly.decimal_row(width(n))) for n, poly in enumerate(polys))
        _print_json_table(k, "ranks" if standard else "coeffs", rows)
    else:
        _print_latex_table(
            "r|l", "$n$ & polynomial", (f"{n} & ${poly}$" for n, poly in enumerate(polys))
        )
    return 0


def _print_latex_table(cols: str, header: str, rows: Iterable[str]) -> None:
    """Print a LaTeX tabular: column spec, header row, a rule, the rows."""
    _write((
        rf"\begin{{tabular}}{{{cols}}}", rf"{header} \\", r"\midrule",
        " \\\\\n".join(rows), r"\end{tabular}",
    ))


def _print_json_table(k: int, key: str, rows: Iterable[tuple[int, list[str], str]]) -> None:
    """Print what ``print(json.dumps(payload, indent=2))`` prints for the
    payload ``[{"k": k, "n": n, key: cells, "poly": poly} for n, cells, poly
    in rows]``, ``rows`` and every ``cells`` nonempty.  Each string is made
    of digits, signs, ``x`` and ``^``, which JSON writes as they are."""
    objects = ",\n".join(
        f'  {{\n    "k": {k},\n    "n": {n},\n    "{key}": [\n      "'
        + '",\n      "'.join(cells)
        + f'"\n    ],\n    "poly": "{poly}"\n  }}'
        for n, cells, poly in rows
    )
    _write(("[", objects, "]"))


# -- series -----------------------------------------------------------


def _cmd_series(args) -> int:
    _write(map(str, duality.FAMILIES[args.family](args.k, args.order)))
    return 0


# -- verify -----------------------------------------------------------


def _parse_primes(parser, raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in raw.split(",") if p.strip())
    except ValueError:
        parser.error(f"--primes must be comma-separated integers, got {raw!r}")


def _format_check(c: "verify.CheckResult") -> str:
    status = "PASS" if c.passed else "FAIL"
    line = f"{status} suite={c.suite} space={c.space} k={c.k} n={c.n}"
    if c.detail:
        line += f" | {c.detail}"
    return line


def _cmd_verify(args) -> int:
    from . import verify

    parser = args.parser
    suite = args.suite_pos or args.suite or "all"
    if args.suite_pos and args.suite and args.suite_pos != args.suite:
        parser.error(f"conflicting suites: {args.suite_pos} vs {args.suite}")
    spaces = virtual.SPACES if args.space == "both" else (args.space,)
    primes = _parse_primes(parser, args.primes)
    try:
        scope = verify.Scope(args.max_k, args.max_n, args.k, spaces, primes)
    except ValueError as exc:
        parser.error(str(exc))

    try:
        summary, results = verify.run_suites([suite], scope)
    except TooLargeError as exc:
        parser.error(f"{exc}; lower --max-n or drop primes from --primes")

    lines = []
    if suite == "all":
        for name in summary.suites:
            group = [r for r in results if r.suite == name]
            bad = sum(1 for r in group if not r.passed)
            lines.append(f"suite {name}: {len(group)} checks, {bad} failed")
    lines += [_format_check(r) for r in results if suite != "all" or not r.passed]
    lines.append(
        f"summary: suites={','.join(summary.suites)} "
        f"passed={summary.passed} failed={summary.failed}"
    )
    if summary.first_failure is not None:
        lines.append(f"first failure: {_format_check(summary.first_failure)}")
    lines.append(f"result: {'PASS' if summary.ok else 'FAIL'}")
    _write(lines)
    per_suite = ", ".join(
        f"{name} {seconds:.2f}s" for name, seconds in zip(summary.suites, summary.suite_durations)
    )
    print(f"verified in {summary.duration:.2f}s ({per_suite})", file=sys.stderr)
    return 0 if summary.ok else 1


if __name__ == "__main__":
    sys.exit(main())
