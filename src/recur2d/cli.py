"""Command-line front end.

Subcommands (all take a problem JSON file; output is byte-deterministic):

    fill <spec> [--out ascii|tsv|json]   propagate and print the window; exit 0
                                         whether the result is complete, partial,
                                         or inconsistent (partiality is a result,
                                         not an error)
    validate <spec>                      classify the linear system; exit 0 if it
                                         pins a unique solution, 2 if
                                         underdetermined, 3 if inconsistent
    basis <spec> --at r,c [--out ...]    print the basis array for one layout cell
    check-support <spec>                 empirically test claimed vanishing regions
    series <spec>                        nonzero cells as TSV rows "r<TAB>c<TAB>value"
    oracle-diff <spec>                   compare fill against the algebraic solver;
                                         exit 0 on agreement, 4 on any difference

Malformed spec files (JSON, schema, or template syntax) exit 1 with the
diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .errors import EngineError
from .fill import basis_array, check_support_cases, fill
from .oracle import (INCONSISTENT, UNDERDETERMINED, UNIQUE, oracle_equals_fill,
                     solve_problem)
from .problem import ProblemSpec, load_problem
from .window import ArrayWindow, emit_series_terms

_OUT_CHOICES = ("ascii", "tsv", "json")


def _parse_at(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'r,c', got {text!r}")
    try:
        return int(parts[0].strip()), int(parts[1].strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers 'r,c', got {text!r}") from None


def _print_window(window: ArrayWindow, out: str, extra: dict | None = None) -> None:
    extra = extra or {}
    if out == "ascii":
        sys.stdout.write(window.to_ascii())
        for key in sorted(extra):
            sys.stdout.write(f"{key}: {extra[key]}\n")
    elif out == "tsv":
        sys.stdout.write(window.to_tsv())
    else:
        obj = {"window": window.to_json_obj(), **extra}
        sys.stdout.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _cmd_fill(spec: ProblemSpec, args: argparse.Namespace) -> int:
    result = fill(spec.overlay, spec.layout, spec.window)
    extra: dict = {"status": result.status}
    if args.out == "json":
        extra["unfilled"] = [list(c) for c in result.unfilled]
        extra["witness"] = list(result.witness) if result.witness else None
    elif result.witness:
        extra["witness"] = f"({result.witness[0]},{result.witness[1]})"
    _print_window(result.window, args.out, extra)
    return 0


def _cmd_validate(spec: ProblemSpec, args: argparse.Namespace) -> int:
    result = solve_problem(spec.overlay, spec.layout, spec.window)
    if result.kind == UNIQUE:
        sys.stdout.write("unique\n")
        return 0
    if result.kind == UNDERDETERMINED:
        w = result.free_witness
        sys.stdout.write(f"underdetermined: free cell ({w[0]},{w[1]})\n")
        return 2
    assert result.kind == INCONSISTENT
    sys.stdout.write("inconsistent\n")
    return 3


def _cmd_basis(spec: ProblemSpec, args: argparse.Namespace) -> int:
    window = basis_array(spec.overlay, spec.layout, args.at, spec.window)
    _print_window(window, args.out)
    return 0


def _cmd_check_support(spec: ProblemSpec, args: argparse.Namespace) -> int:
    report = check_support_cases(spec.overlay, spec.layout, spec.window)
    sys.stdout.write(report.to_text())
    return 0


def _cmd_series(spec: ProblemSpec, args: argparse.Namespace) -> int:
    result = fill(spec.overlay, spec.layout, spec.window)
    for r, c, v in emit_series_terms(result.window):
        sys.stdout.write(f"{r}\t{c}\t{v.render()}\n")
    return 0


def _cmd_oracle_diff(spec: ProblemSpec, args: argparse.Namespace) -> int:
    fill_result = fill(spec.overlay, spec.layout, spec.window)
    oracle_result = solve_problem(spec.overlay, spec.layout, spec.window)
    agree, diffs = oracle_equals_fill(oracle_result, fill_result)
    if agree:
        sys.stdout.write(f"agree: fill {fill_result.status}, "
                         f"oracle {oracle_result.kind}\n")
        return 0
    sys.stdout.write(f"disagree: fill {fill_result.status}, "
                     f"oracle {oracle_result.kind}\n")
    for line in diffs:
        sys.stdout.write(line + "\n")
    return 4


@functools.cache
def build_arg_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; each subcommand's ``run``
    default is its handler."""
    parser = argparse.ArgumentParser(
        prog="recur2d",
        description="Exact two-dimensional linear recurrences: fill windows, "
                    "verify against a linear-algebra oracle, and inspect bases.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help_text: str, run, at: bool = False, out: bool = False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("spec")
        if at:
            p.add_argument("--at", required=True, type=_parse_at, metavar="r,c")
        if out:
            p.add_argument("--out", choices=_OUT_CHOICES, default="ascii")
        p.set_defaults(run=run)

    command("fill", "propagate the recurrence over the window", _cmd_fill, out=True)
    command("validate", "classify the layout's linear system", _cmd_validate)
    command("basis", "fill with an indicator at one layout cell", _cmd_basis,
            at=True, out=True)
    command("check-support", "test claimed zero regions of basis arrays",
            _cmd_check_support)
    command("series", "nonzero cells as TSV terms", _cmd_series)
    command("oracle-diff", "compare fill with the exact solver", _cmd_oracle_diff)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        return args.run(load_problem(args.spec), args)
    except EngineError as e:
        sys.stderr.write(f"error: {e}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
