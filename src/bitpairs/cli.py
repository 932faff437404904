"""Command-line interface.

Subcommands: count, table, triangle, verify, enumerate, bijection.

Exit status contract: 0 on success and for `--help`, 1 when `verify` finds
mismatches, 2 on usage or domain errors (reported as one line on stderr).
All output is newline-terminated, decimal and locale-free, with every digit
of every count printed, however many there are.

`run` parses only the subcommand it runs.  When the first argument names
one, that subcommand's own parser reads the rest.  It is built on first use
and cached, one per subcommand; argparse keeps no parse state on it, so no
call sees another's arguments.  It is built from the same table entry, with
the same prog, as the subparser that `build_parser` hangs under `bitpairs`,
so its help, messages and exit codes are the nested route's.  The full
parser is built only for the calls that name no subcommand: no argument,
`--help`, an unknown command or a leading option.  Importing this module
builds nothing.  Only `counting` is imported with this module; each
subcommand imports `tables` or `enumeration` when it runs, so a `count`
process loads neither.

`run` changes no interpreter-wide setting, so calls may overlap across
threads as far as the package goes (each writes to the process's one
`sys.stdout` and `sys.stderr`).  Counts of any size print through
`counting.decimal_digits`, which needs no lifted int <-> str digit limit.

A closed stdout ends a command-line process quietly, as it ends any Unix
filter: `main`, behind the console script and `python -m bitpairs`,
restores the default SIGPIPE action where the platform has one, so
`bitpairs enumerate ... | head -1` prints its line and the process dies of
SIGPIPE (status 141 in a shell) with nothing on stderr.  `run` installs no
handler: called in-process, or where there is no SIGPIPE, it reports a
failed write like any OSError, one line on stderr and status 2.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from typing import Optional

from .counting import (
    TRIANGLE_FORMATS,
    VERIFY_MODES,
    Z_TABLE_FORMATS,
    _check_length,
    decimal_digits,
    s_circular,
    s_circular_oracle,
    z_auto,
    z_closed_m0,
    z_oracle,
    z_recur_firstone,
    z_recur_split,
    z_reduce_to_m0,
)

METHODS = ("auto", "oracle", "split", "first-one", "reduce", "closed")

# the z routes behind --method; s_circular counts the ring from any of them
_ROUTES = {"auto": z_auto, "split": z_recur_split, "first-one": z_recur_firstone,
           "reduce": z_reduce_to_m0}


class _Parser(argparse.ArgumentParser):
    # one-line diagnostics on stderr instead of argparse's usage dump
    def error(self, message: str) -> None:
        raise ValueError(message)


def _nonneg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative: {text}")
    return value


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _cmd_count(args: argparse.Namespace) -> int:
    n, k, m, method = args.n, args.k, args.m, args.method
    if not args.circular:
        _check_length(n, circular=False)
    if method == "closed":
        if args.circular:
            raise ValueError("method 'closed' does not apply to circular adjacency")
        if m != 0:
            raise ValueError("method 'closed' requires m = 0")
        value = z_closed_m0(n, k)
    elif method == "oracle":
        value = (s_circular_oracle if args.circular else z_oracle)(n, k, m)
    else:
        route = _ROUTES[method]
        value = s_circular(n, k, m, z=route) if args.circular else route(n, k, m)
    print(decimal_digits(value))
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    from .tables import render_z_table

    mode = "circular" if args.circular else "linear"
    _emit(render_z_table(args.n, mode, args.format), args.out)
    return 0


def _cmd_triangle(args: argparse.Namespace) -> int:
    from .tables import render_terquem_triangle

    _emit(render_terquem_triangle(args.rows, args.format), args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .tables import verify_all

    report = verify_all(args.max_n, args.mode)
    print(report.summary())
    return 0 if report.success else 1


def _cmd_enumerate(args: argparse.Namespace) -> int:
    from .enumeration import enumerate_circular, enumerate_Z

    listing = enumerate_circular if args.circular else enumerate_Z
    for b in listing(args.n, args.k, args.m):
        print(b)
    return 0


def _parse_sequence(text: str) -> tuple[int, ...]:
    body = text.strip()
    if not body:
        return ()
    try:
        return tuple(int(x) for x in body.split(","))
    except ValueError:
        raise ValueError(
            f"invalid sequence: {text!r} (expected comma-separated integers)"
        ) from None


def _cmd_bijection(args: argparse.Namespace) -> int:
    from .enumeration import from_terquem, to_terquem

    if args.string is not None:
        if args.n is not None:
            raise ValueError("--n applies only to --sequence")
        print(",".join(str(i) for i in to_terquem(args.string)))
        return 0
    if args.n is None:
        raise ValueError("--n is required with --sequence")
    print(from_terquem(_parse_sequence(args.sequence), args.n))
    return 0


def _count_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=_nonneg, required=True, help="string length")
    p.add_argument("--k", type=_nonneg, required=True, help="number of 0-pairs")
    p.add_argument("--m", type=_nonneg, required=True, help="number of 1-pairs")
    p.add_argument("--circular", action="store_true", help="wraparound adjacency")
    p.add_argument("--method", choices=METHODS, default="auto")


def _table_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=_nonneg, required=True)
    p.add_argument("--circular", action="store_true")
    p.add_argument("--format", choices=Z_TABLE_FORMATS, default="csv")
    p.add_argument("--out", default=None, help="write to a file instead of stdout")


def _triangle_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rows", type=_nonneg, required=True)
    p.add_argument("--format", choices=TRIANGLE_FORMATS, default="csv")
    p.add_argument("--out", default=None, help="write to a file instead of stdout")


def _verify_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-n", type=_nonneg, required=True, dest="max_n")
    p.add_argument("--mode", choices=VERIFY_MODES, default="both")


def _enumerate_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=_nonneg, required=True)
    p.add_argument("--k", type=_nonneg, required=True)
    p.add_argument("--m", type=_nonneg, required=True)
    p.add_argument("--circular", action="store_true")


def _bijection_arguments(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--string", default=None, help="string to map to positions")
    group.add_argument("--sequence", default=None, help="comma-separated positions to map back")
    p.add_argument("--n", type=_nonneg, default=None, help="target length (with --sequence)")


# subcommand -> (help line, add-arguments function, handler), in help order
_COMMANDS = {
    "count": ("print one exact count", _count_arguments, _cmd_count),
    "table": ("all counts for one length as a table", _table_arguments, _cmd_table),
    "triangle": ("rows of the A046854 triangle", _triangle_arguments, _cmd_triangle),
    "verify": ("cross-check all methods against the oracles", _verify_arguments, _cmd_verify),
    "enumerate": ("list the counted strings, one per line", _enumerate_arguments, _cmd_enumerate),
    "bijection": ("map a 1-pair-free string to its 0-pair positions, or back",
                  _bijection_arguments, _cmd_bijection),
}


def _add_command(p: argparse.ArgumentParser, command: str) -> None:
    _, add_arguments, func = _COMMANDS[command]
    add_arguments(p)
    p.set_defaults(func=func, command=command)


def build_parser() -> argparse.ArgumentParser:
    """The full parser: every subcommand under `bitpairs`."""
    parser = _Parser(
        prog="bitpairs",
        description="Count and enumerate binary strings by their adjacent "
        "0-pair and 1-pair statistics, linear or circular.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_line, _, _) in _COMMANDS.items():
        _add_command(sub.add_parser(command, help=help_line), command)
    return parser


@cache
def _parser(command: str) -> argparse.ArgumentParser:
    # what build_parser's subparser for `command` is, standing alone
    parser = _Parser(prog=f"bitpairs {command}")
    _add_command(parser, command)
    return parser


def run(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in _COMMANDS:
        parser, argv = _parser(argv[0]), argv[1:]
    else:  # no argument, help, an option or an unknown command
        parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except SystemExit:  # only --help exits; every parse error raises ValueError
        return 0


def main() -> None:
    import signal

    if hasattr(signal, "SIGPIPE"):  # a closed stdout ends the process quietly
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run())


if __name__ == "__main__":
    main()
