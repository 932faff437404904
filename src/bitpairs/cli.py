"""Command-line interface.

Subcommands: count, table, triangle, verify, enumerate, bijection.

Exit status contract: 0 on success and for `--help`, 1 when `verify` finds
mismatches, 2 on usage or domain errors and when memory runs out (reported
as one line on stderr).
All output is newline-terminated, decimal and locale-free, with every digit
of every count printed, however many there are.

Each subcommand's options are one table in `_COMMANDS`: flag, dest, kind,
default and help.  Both the argparse parser and `run`'s plain-form reader
are built from it.  When the first argument names a subcommand and the rest
is in the plain form, `run` reads it without argparse and builds the
namespace argparse would return, defaults and `func` included.  The plain
form: each token an exact long option of the subcommand, given once; each
value a token of its own that does not start with `-` and passes the same
`_nonneg` or choices check argparse runs; every required option given, and
for `bijection` exactly one of `--string` and `--sequence`.  Every argv the
plain form refuses is read by the full parser, built per call: help,
abbreviations, `--n=5`, repeats, `--`, and every value argparse refuses.
So each help text, error line and exit code is argparse's own.

Importing this module builds nothing, and of the package it imports only
`counting`.  argparse is imported only when the parser is built, so a
plain-form call never loads it.  The choices of `table`, `triangle` and
`verify` are `tables` constants, loaded by those commands and by the
parser; `enumerate` and `bijection` import `enumeration` when they run.  A
plain-form `count` process loads neither.  It loads `bitpairs.cli`,
`bitpairs.counting` and the standard modules `counting` imports at its top;
`array` only when the prime-power kernel takes a binomial, and `_decimal`
only past the int -> str digit limit.  No plain-form process, whatever its
command, loads `typing`, `signal`, `argparse` or `__future__`: the
annotations are spelled with builtins and `collections.abc`, or quoted where
they name argparse, and the record types are `collections.namedtuple`s.

`run` changes no interpreter-wide setting, so calls may overlap across
threads as far as the package goes (each writes to the process's one
`sys.stdout` and `sys.stderr`).  Counts of any size print through
`counting.decimal_digits`, which needs no lifted int <-> str digit limit.

A closed stdout ends a command-line process quietly, as it ends any Unix
filter: `main`, behind the console script and `python -m bitpairs`,
restores the default SIGPIPE action where the platform has one.  It does
so through `_signal`, which the interpreter loads at start and on which
`signal` itself is built; `signal` would add three enum classes on import.
So `bitpairs enumerate ... | head -1` prints its line and the process dies of
SIGPIPE (status 141 in a shell) with nothing on stderr.  `run` installs no
handler: called in-process, or where there is no SIGPIPE, it reports a
failed write like any OSError, one line on stderr and status 2.
"""

import sys
from types import SimpleNamespace

from .counting import (
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


def _nonneg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 0:
        from argparse import ArgumentTypeError  # argparse reports every value refused here

        raise ArgumentTypeError(
            f"not an integer: {text!r}" if value is None else f"must be nonnegative: {text}"
        )
    return value


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _cmd_count(args: "argparse.Namespace") -> int:
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


def _cmd_table(args: "argparse.Namespace") -> int:
    from .tables import render_z_table

    mode = "circular" if args.circular else "linear"
    _emit(render_z_table(args.n, mode, args.format), args.out)
    return 0


def _cmd_triangle(args: "argparse.Namespace") -> int:
    from .tables import render_terquem_triangle

    _emit(render_terquem_triangle(args.rows, args.format), args.out)
    return 0


def _cmd_verify(args: "argparse.Namespace") -> int:
    from .tables import verify_all

    report = verify_all(args.max_n, args.mode)
    print(report.summary())
    return 0 if report.success else 1


def _cmd_enumerate(args: "argparse.Namespace") -> int:
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


def _cmd_bijection(args: "argparse.Namespace") -> int:
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


# markers in an option's default column
_REQUIRED = object()  # every call gives the option
_ONE_OF = object()  # every call gives exactly one option so marked; the rest are None

# an option's kind: _nonneg, str, bool (a switch), a tuple of choices, or the
# name of the `tables` constant that holds its choices
_PROFILE = {  # flag: (dest, kind, default, help)
    "--n": ("n", _nonneg, _REQUIRED, "string length"),
    "--k": ("k", _nonneg, _REQUIRED, "number of 0-pairs"),
    "--m": ("m", _nonneg, _REQUIRED, "number of 1-pairs"),
    "--circular": ("circular", bool, False, "wraparound adjacency"),
}
_OUT = ("out", str, None, "write to a file instead of stdout")

# subcommand -> (help line, option table, handler), in help order
_COMMANDS = {
    "count": ("print one exact count",
              {**_PROFILE, "--method": ("method", METHODS, "auto", None)}, _cmd_count),
    "table": ("all counts for one length as a table", {
        "--n": ("n", _nonneg, _REQUIRED, None),
        "--circular": ("circular", bool, False, None),
        "--format": ("format", "Z_TABLE_FORMATS", "csv", None),
        "--out": _OUT,
    }, _cmd_table),
    "triangle": ("rows of the A046854 triangle", {
        "--rows": ("rows", _nonneg, _REQUIRED, None),
        "--format": ("format", "TRIANGLE_FORMATS", "csv", None),
        "--out": _OUT,
    }, _cmd_triangle),
    "verify": ("cross-check all methods against the oracles", {
        "--max-n": ("max_n", _nonneg, _REQUIRED, None),
        "--mode": ("mode", "VERIFY_MODES", "both", None),
    }, _cmd_verify),
    "enumerate": ("list the counted strings, one per line", _PROFILE, _cmd_enumerate),
    "bijection": ("map a 1-pair-free string to its 0-pair positions, or back", {
        "--string": ("string", str, _ONE_OF, "string to map to positions"),
        "--sequence": ("sequence", str, _ONE_OF, "comma-separated positions to map back"),
        "--n": ("n", _nonneg, None, "target length (with --sequence)"),
    }, _cmd_bijection),
}


def _choices(kind: object) -> tuple[str, ...] | None:
    if isinstance(kind, str):  # loaded only by the commands that run tables
        from . import tables

        return getattr(tables, kind)
    return kind if isinstance(kind, tuple) else None


def _add_command(p: "argparse.ArgumentParser", command: str) -> None:
    _, options, func = _COMMANDS[command]
    group = None
    for flag, (dest, kind, default, help_line) in options.items():
        if kind is bool:
            spec = {"action": "store_true"}
        else:
            choices = _choices(kind)
            spec = {"type": kind} if choices is None else {"choices": choices}
        target = p
        if default is _REQUIRED:
            spec["required"] = True
        elif default is _ONE_OF:
            if group is None:
                group = p.add_mutually_exclusive_group(required=True)
            target = group
        else:
            spec["default"] = default
        target.add_argument(flag, dest=dest, help=help_line, **spec)
    p.set_defaults(func=func)


def _read_plain(argv: list[str]) -> SimpleNamespace | None:
    """What `build_parser()` returns for `argv` in the plain form (see the
    module docstring), less its `command`, read without argparse; None for
    any other `argv`."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, options, func = _COMMANDS[argv[0]]
    given = {}
    tokens = iter(argv[1:])
    for flag in tokens:
        if flag not in options or flag in given:
            return None
        kind = options[flag][1]
        if kind is bool:
            given[flag] = True
            continue
        token = next(tokens, "-")  # a value left out goes to argparse too
        if token.startswith("-"):
            return None
        choices = _choices(kind)
        if choices is None:
            try:
                given[flag] = kind(token)
            except Exception:  # _nonneg's refusal, which argparse reports
                return None
        elif token in choices:
            given[flag] = token
        else:
            return None
    values, group = {}, []
    for flag, (dest, _, default, _) in options.items():
        if default is _ONE_OF:
            group.append(flag in given)
        elif default is _REQUIRED and flag not in given:
            return None
        values[dest] = given.get(flag, None if default is _ONE_OF else default)
    if group and sum(group) != 1:
        return None
    return SimpleNamespace(**values, func=func)


def build_parser() -> "argparse.ArgumentParser":
    """The full parser: every subcommand under `bitpairs`."""
    import argparse

    class Parser(argparse.ArgumentParser):  # the subparsers inherit it
        # one-line diagnostics on stderr instead of argparse's usage dump
        def error(self, message: str) -> None:
            raise ValueError(message)

    parser = Parser(
        prog="bitpairs",
        description="Count and enumerate binary strings by their adjacent "
        "0-pair and 1-pair statistics, linear or circular.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_line, _, _) in _COMMANDS.items():
        _add_command(sub.add_parser(command, help=help_line), command)
    return parser


def run(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _read_plain(argv) or build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError:  # every handler builds its output before it writes
        print("error: out of memory", file=sys.stderr)
        return 2
    except SystemExit:  # only --help exits; every parse error raises ValueError
        return 0


def main() -> None:
    import _signal as signal  # already loaded; `signal` adds enum classes on top

    if hasattr(signal, "SIGPIPE"):  # a closed stdout ends the process quietly
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run())


if __name__ == "__main__":
    main()
