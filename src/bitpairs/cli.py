"""Command-line interface.

Subcommands: count, table, triangle, verify, enumerate, bijection.

Exit status contract: 0 on success and for `--help`, 1 when `verify` finds
mismatches, 2 on usage or domain errors (reported as one line on stderr).
All output is newline-terminated, decimal and locale-free, with every digit
of every count printed, however many there are.

The parser is built once per process, on the first call of `run`, and
reused: argparse keeps no parse state on it, so no call sees another's
arguments, and importing this module builds nothing.  Only `counting` is
imported with this module; each subcommand imports `tables` or
`enumeration` when it runs, so a `count` process loads neither.

Calls of `run` must not overlap across threads.  Each call lifts CPython's
int <-> str digit limit and restores it when it returns, and that limit is
process-wide, like the `sys.stdout` and `sys.stderr` it writes to: a call
that returns while another runs puts the limit back under it, and the other
can then fail on a count beyond 4300 digits or restore a lifted limit.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from typing import Optional

from .counting import (
    DEFAULT_ORACLE_LIMIT,
    TRIANGLE_FORMATS,
    VERIFY_MODES,
    Z_TABLE_FORMATS,
    _check_length,
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
        value = (s_circular_oracle if args.circular else z_oracle)(n, k, m, limit=args.oracle_limit)
    else:
        route = _ROUTES[method]
        value = s_circular(n, k, m, z=route) if args.circular else route(n, k, m)
    print(value)
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

    report = verify_all(args.max_n, args.mode, limit=args.oracle_limit)
    print(report.summary())
    return 0 if report.success else 1


def _cmd_enumerate(args: argparse.Namespace) -> int:
    from .enumeration import enumerate_circular, enumerate_Z

    listing = enumerate_circular if args.circular else enumerate_Z
    for b in listing(args.n, args.k, args.m, limit=args.oracle_limit):
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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bitpairs",
        description="Count and enumerate binary strings by their adjacent "
        "0-pair and 1-pair statistics, linear or circular.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_limit(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--oracle-limit",
            type=_nonneg,
            default=DEFAULT_ORACLE_LIMIT,
            help=f"max n for exhaustive enumeration (default {DEFAULT_ORACLE_LIMIT})",
        )

    p = sub.add_parser("count", help="print one exact count")
    p.add_argument("--n", type=_nonneg, required=True, help="string length")
    p.add_argument("--k", type=_nonneg, required=True, help="number of 0-pairs")
    p.add_argument("--m", type=_nonneg, required=True, help="number of 1-pairs")
    p.add_argument("--circular", action="store_true", help="wraparound adjacency")
    p.add_argument("--method", choices=METHODS, default="auto")
    add_limit(p)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("table", help="all counts for one length as a table")
    p.add_argument("--n", type=_nonneg, required=True)
    p.add_argument("--circular", action="store_true")
    p.add_argument("--format", choices=Z_TABLE_FORMATS, default="csv")
    p.add_argument("--out", default=None, help="write to a file instead of stdout")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("triangle", help="rows of the A046854 triangle")
    p.add_argument("--rows", type=_nonneg, required=True)
    p.add_argument("--format", choices=TRIANGLE_FORMATS, default="csv")
    p.add_argument("--out", default=None, help="write to a file instead of stdout")
    p.set_defaults(func=_cmd_triangle)

    p = sub.add_parser("verify", help="cross-check all methods against the oracles")
    p.add_argument("--max-n", type=_nonneg, required=True, dest="max_n")
    p.add_argument("--mode", choices=VERIFY_MODES, default="both")
    add_limit(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("enumerate", help="list the counted strings, one per line")
    p.add_argument("--n", type=_nonneg, required=True)
    p.add_argument("--k", type=_nonneg, required=True)
    p.add_argument("--m", type=_nonneg, required=True)
    p.add_argument("--circular", action="store_true")
    add_limit(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("bijection", help="map a 1-pair-free string to its 0-pair positions, or back")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--string", default=None, help="string to map to positions")
    group.add_argument("--sequence", default=None, help="comma-separated positions to map back")
    p.add_argument("--n", type=_nonneg, default=None, help="target length (with --sequence)")
    p.set_defaults(func=_cmd_bijection)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def run(argv: Optional[list[str]] = None) -> int:
    parser = _parser()
    # Counts are exact at any size, so lift CPython's cap on int <-> decimal
    # conversion (4300 digits by default, where it exists) for this command only.
    set_digits = getattr(sys, "set_int_max_str_digits", None)
    if set_digits is not None:
        old_digits = sys.get_int_max_str_digits()
        set_digits(0)
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except SystemExit:  # only --help exits; every parse error raises ValueError
        return 0
    finally:
        if set_digits is not None:
            set_digits(old_digits)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
