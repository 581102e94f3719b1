"""Command-line front end: tables, identity verification, dissection, coefficients.

Payloads go to stdout in JSON (default) or CSV; diagnostics go to stderr.
Exit codes: 0 success / identity verified, 1 identity verifiably fails,
2 usage error, 141 stdout closed early (what a shell reports for SIGPIPE).
Output for fixed inputs is byte-stable: timing information never enters
the payload.  Big counts and coefficients are serialized as decimal
strings since they outgrow 64-bit integers quickly.  JSON is written by
the function ``_json``, byte for byte as ``json.dumps(record, sort_keys=True,
indent=2)`` would write it.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING

# the C escaper json.encoder uses, imported without loading the json package
from _json import encode_basestring_ascii as _quote

from .identities import (
    FIFTH_ROOTS,
    VerificationReport,
    verify_2_dissection,
    verify_3_dissection,
    verify_5_dissection,
    verify_component_4_vanishing,
    verify_congruence,
    verify_crank_columns,
    verify_crank_gf,
    verify_equidistribution,
    verify_rank_columns,
    verify_rank_gf,
)
from .memo import largest
from .partitions import TABLE_CAP, partition_count, stat_table
from .series import crank_gf, euler_product

if TYPE_CHECKING:
    import argparse

FORMAT_VERSION = "1"

# identity name -> (default order / n_max, accepts perturb-power, runner)
IDENTITIES = {
    "crank-gf": (40, True, lambda o, r, p: verify_crank_gf(o, perturb_power=p)),
    "rank-gf": (40, True, lambda o, r, p: verify_rank_gf(o, perturb_power=p)),
    "crank-columns": (100, True, lambda o, r, p: verify_crank_columns(o, perturb_power=p)),
    "rank-columns": (100, True, lambda o, r, p: verify_rank_columns(o, perturb_power=p)),
    "congruence-5-4": (20, False, lambda o, r, p: verify_congruence(5, o)),
    "congruence-7-5": (15, False, lambda o, r, p: verify_congruence(7, o)),
    "congruence-11-6": (10, False, lambda o, r, p: verify_congruence(11, o)),
    # the largest orders the table cap allows
    "equidist-crank-5": (59, False, lambda o, r, p: verify_equidistribution("crank", 5, o)),
    "equidist-crank-7": (42, False, lambda o, r, p: verify_equidistribution("crank", 7, o)),
    "equidist-crank-11": (26, False, lambda o, r, p: verify_equidistribution("crank", 11, o)),
    "equidist-rank-5": (59, False, lambda o, r, p: verify_equidistribution("rank", 5, o)),
    "equidist-rank-7": (42, False, lambda o, r, p: verify_equidistribution("rank", 7, o)),
    # recognized so the refusal is explained, but always a usage error:
    # the rank does not equidistribute modulo 11
    "equidist-rank-11": (3, False, lambda o, r, p: verify_equidistribution("rank", 11, o)),
    "dissection-2": (80, True, lambda o, r, p: verify_2_dissection(o, perturb_power=p)),
    "dissection-3": (81, True, lambda o, r, p: verify_3_dissection(o, perturb_power=p)),
    "dissection-5": (100, True, lambda o, r, p: verify_5_dissection(o, root_power=r, perturb_power=p)),
    "component-4-vanishing": (100, False, lambda o, r, p: verify_component_4_vanishing(o)),
}


class _Text(str):
    """The JSON text of one value, written at depth 0: _json writes it at any
    depth by indenting its lines, never quoting it as it would a str."""

    __slots__ = ()


def _render_rows(kind: str, n_max: int) -> tuple[list, list, list]:
    if kind in ("p", "euler"):
        counts = ([partition_count(n) for n in range(n_max + 1)] if kind == "p"
                  else euler_product(n_max).coefficients)
        values = [f'"{c}"' for c in counts]
        objects = [f'{{\n  "count": {v},\n  "n": {n}\n}}' for n, v in enumerate(values)]
        lines = [f"{n},{c}\n" for n, c in enumerate(counts)]
    else:
        rows = ([p._terms for p in crank_gf(n_max).coefficients] if kind == "crank"
                else stat_table(kind, n_max).rows[:n_max + 1])
        # a member sorts as its key does: '"' sorts before "-" and the digits;
        # no row is empty, since row n counts the p(n) >= 1 partitions of n
        values = ["{\n  " + ",\n  ".join(sorted([f'"{m}": "{c}"' for m, c in row.items()]))
                  + "\n}" for row in rows]
        objects = ['{\n  "coefficients": ' + v.replace("\n", "\n  ") + f',\n  "n": {n}\n}}'
                   for n, v in enumerate(values)]
        lines = ["".join([f"{n},{m},{c}\n" for m, c in sorted(row.items())])
                 for n, row in enumerate(rows)]
    return objects, values, lines


def _held_rows(kind: str, n_max: int) -> tuple[list, list, list]:
    """Rows 0..N, N >= n_max, of the p, crank, rank or euler table as text:
    each row's object and each row's value written at depth 0 (the value is
    the quoted integer for p and euler, the coefficient object for crank and
    rank), and each row's CSV lines.  A process renders a row once, whichever
    command asks; past TABLE_CAP the rows are rendered for the one request
    and not held, so what a process holds stays bounded."""
    if n_max > TABLE_CAP:
        return _render_rows(kind, n_max)
    return largest(("rows", kind), n_max, lambda n: _render_rows(kind, n))


def _list_text(items) -> _Text:
    """The JSON list of items, each the text of one value at depth 0."""
    return _Text(("[\n" + ",\n".join(items)).replace("\n", "\n  ") + "\n]")


def _emit_rows(command: str, params: dict, kind: str, n_max: int) -> None:
    objects, _, lines = _held_rows(kind, n_max)
    if params["format"] == "csv":
        header = "n,count\n" if kind == "p" else "n,exponent,coefficient\n"
        sys.stdout.write(header + "".join(lines[:n_max + 1]))
    else:
        _emit_json(command, params, {"rows": _list_text(objects[:n_max + 1])})


def _json(value, newline: str = "\n") -> str:
    """value as json.dumps(value, sort_keys=True, indent=2) writes it, for
    str, int, bool, None, list and dict with str keys; any other type raises
    TypeError.  A _Text is written as the value it holds, indented to the
    depth newline gives.  The stdlib's pure-Python encoder runs whenever
    indent is set, and it was the largest single cost of a small request."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = newline + "  "
        # str and int members are written in place; keys sort faster alone than
        # as items, and a loop skips the call a comprehension makes
        members = []
        for key in sorted(value):
            item = value[key]
            text = (_quote(item) if type(item) is str else
                    repr(item) if type(item) is int else _json(item, inner))
            members.append(f"{_quote(key)}: {text}")    # _quote refuses a non-str key
        return "{" + inner + ("," + inner).join(members) + newline + "}"
    if kind is _Text:
        return value.replace("\n", newline)
    if kind is list:
        if not value:
            return "[]"
        inner = newline + "  "
        return ("[" + inner + ("," + inner).join([
            _quote(item) if type(item) is str else repr(item) if type(item) is int
            else _json(item, inner) for item in value]) + newline + "]")
    if kind is int:
        return repr(value)
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    raise TypeError(f"{kind.__name__} is not a JSON payload type")


def _emit_json(command: str, parameters: dict, payload) -> None:
    record = {
        "format_version": FORMAT_VERSION,
        "command": command,
        "parameters": parameters,
        "payload": payload,
    }
    sys.stdout.write(_json(record) + "\n")


def _emit_csv(header: tuple[str, ...], rows: list[tuple]) -> None:
    """header, then rows, as CSV lines in one write.  No field needs quoting:
    they are ints, names, pass/fail and witness strings made by str of ints,
    LaurentPoly and QuotientElem, none with a comma, quote or newline.  One
    %-format per row costs less than joining the str() of each field."""
    line = ",".join(["%s"] * len(header)) + "\n"
    sys.stdout.write("".join([line % row for row in (header, *rows)]))


def _report_payload(report: VerificationReport) -> dict:
    witness = None
    if report.failure_witness is not None:
        w = report.failure_witness
        witness = {"power": w.power, "expected": w.expected, "actual": w.actual, "ring": w.ring}
    return {
        "identity": report.identity,
        "order": report.order,
        "status": report.status,
        "failure_witness": witness,
    }


def _cmd_tables(args) -> int:
    params = {"kind": args.kind, "n_max": args.n_max, "modulo": args.modulo,
              "format": args.format}
    if args.n_max < 0:
        raise ValueError("--n-max must be >= 0")
    if args.kind == "p":
        if args.modulo is not None:
            raise ValueError("--modulo applies to crank/rank tables only")
        _emit_rows("tables", params, "p", args.n_max)
        return 0

    if args.modulo is not None and args.modulo < 1:
        raise ValueError("--modulo must be >= 1")
    # statistic values lie in -n_max..n_max, so past 2*n_max + 1 classes
    # each class holds at most one value
    if args.modulo is not None and args.modulo > 2 * args.n_max + 1:
        raise ValueError(f"--modulo must be <= 2*n_max + 1 = {2 * args.n_max + 1}")
    table = stat_table(args.kind, args.n_max)     # refuses n_max past the table cap
    if args.modulo is None:
        _emit_rows("tables", params, args.kind, args.n_max)
        return 0
    # folds are not held: their key space grows with the modulus
    rows = [enumerate(table.count_mod(args.modulo, n)) for n in range(args.n_max + 1)]
    if args.format == "json":
        _emit_json("tables", params, {"rows": [
            {"n": n, "classes": {str(m): str(c) for m, c in row}} for n, row in enumerate(rows)]})
    else:
        _emit_csv(("n", "residue", "count"),
                  [(n, m, c) for n, row in enumerate(rows) for m, c in row])
    return 0


def _cmd_verify(args) -> int:
    default_order, allows_perturb, runner = IDENTITIES[args.identity]
    order = args.order if args.order is not None else default_order
    if args.n_root is not None and args.identity != "dissection-5":
        raise ValueError("--n-root applies to dissection-5 only")
    if args.perturb_power is not None and not allows_perturb:
        raise ValueError(f"--perturb-power is not supported for {args.identity}")
    n_root = args.n_root if args.n_root is not None else 1
    report = runner(order, n_root, args.perturb_power)
    print(f"{report.identity}: {report.status} "
          f"(order {report.order}, {report.elapsed:.2f}s)", file=sys.stderr)
    params = {"identity": args.identity, "order": order, "format": args.format}
    if args.identity == "dissection-5":
        params["n_root"] = n_root
    if args.perturb_power is not None:
        params["perturb_power"] = args.perturb_power
    if args.format == "json":
        _emit_json("verify", params, _report_payload(report))
    else:
        w = report.failure_witness
        _emit_csv(
            ("identity", "order", "status", "witness_power", "witness_expected",
             "witness_actual", "witness_ring"),
            [(report.identity, report.order, report.status) + (
                ("", "", "", "") if w is None else (w.power, w.expected, w.actual, w.ring))],
        )
    return 0 if report.passed else 1


def _cmd_dissect(args) -> int:
    if args.m < 1:
        raise ValueError("--m must be >= 1")
    if args.order < 0:
        raise ValueError("--order must be >= 0")
    # past order + 1 components each one holds at most one coefficient
    if args.m > args.order + 1:
        raise ValueError(f"--m must be <= order + 1 = {args.order + 1}")
    params = {"series": args.series, "m": args.m, "order": args.order,
              "format": args.format}
    # row n of the crank, p or euler rows is the series' coefficient of q^n
    kind = {"crank-gf": "crank", "partition-gf": "p", "euler": "euler"}[args.series]
    _, values, lines = _held_rows(kind, args.order)
    m, stop = args.m, args.order + 1
    if args.format == "json":
        _emit_json("dissect", params, {"components": [
            {"component": k, "coefficients": _list_text(values[k:stop:m])} for k in range(m)]})
        return 0
    # row n's lines start "n,"; component k, index j holds row n = j*m + k
    out = ["component,index,exponent,coefficient\n" if kind == "crank"
           else "component,index,coefficient\n"]
    for k in range(m):
        for j, n in enumerate(range(k, stop, m)):
            old, new = f"{n},", f"{k},{j},"
            out.append(new + lines[n][len(old):].replace("\n" + old, "\n" + new))
    sys.stdout.write("".join(out))
    return 0


def _cmd_coeffs(args) -> int:
    if args.count < 1:
        raise ValueError("--count must be >= 1")
    if args.count > TABLE_CAP + 1:
        raise ValueError(f"--count must be <= {TABLE_CAP + 1}: coefficient "
                         f"q^{args.count - 1} is past the table cap {TABLE_CAP}")
    _emit_rows("coeffs", {"count": args.count, "format": args.format}, "crank", args.count - 1)
    return 0


_FORMAT = {"dest": "format", "choices": ("json", "csv"), "default": "json"}

# The one declaration of the command line: subcommand -> (handler, help,
# {flag: add_argument keywords, dest always given}).  build_parser() turns
# it into the argparse parser, which writes --help and every usage error;
# _fast_args() reads it directly for the well-formed requests that make up
# nearly all traffic, so that they never import or run argparse.
_COMMANDS = {
    "tables": (_cmd_tables, "emit p(n), crank or rank counting tables", {
        "--kind": {"dest": "kind", "choices": ("p", "crank", "rank"), "required": True},
        "--n-max": {"dest": "n_max", "type": int, "required": True},
        "--modulo": {"dest": "modulo", "type": int, "default": None,
                     "help": "fold statistic values into residue classes mod t"},
        "--format": _FORMAT,
    }),
    "verify": (_cmd_verify, "run one identity verifier", {
        "--identity": {"dest": "identity", "choices": sorted(IDENTITIES), "required": True},
        "--order": {"dest": "order", "type": int, "default": None,
                    "help": "truncation order (congruence/equidistribution: max n); "
                            "defaults depend on the identity"},
        "--n-root": {"dest": "n_root", "type": int, "default": None, "choices": FIFTH_ROOTS,
                     "help": "which primitive 5th root powers the symbol (dissection-5)"},
        "--perturb-power": {"dest": "perturb_power", "type": int, "default": None,
                            "help": "self-test: corrupt one comparison coefficient at "
                                    "this power of q; the verifier must then fail"},
        "--format": _FORMAT,
    }),
    "dissect": (_cmd_dissect, "split a named series by exponent residue", {
        "--series": {"dest": "series", "choices": ("partition-gf", "crank-gf", "euler"),
                     "required": True},
        "--m": {"dest": "m", "type": int, "required": True},
        "--order": {"dest": "order", "type": int, "default": 20},
        "--format": _FORMAT,
    }),
    "coeffs": (_cmd_coeffs, "crank generating function coefficients", {
        "--count": {"dest": "count", "type": int, "default": 21,
                    "help": "number of coefficients, starting at q^0"},
        "--format": _FORMAT,
    }),
}


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser declared by _COMMANDS."""
    import argparse     # only help and usage errors pay for argparse and gettext

    parser = argparse.ArgumentParser(
        prog="qdissect",
        description="Exact q-series tables, dissections and identity verification "
                    "for partition statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, options) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flag, option in options.items():
            command.add_argument(flag, **option)
        command.set_defaults(func=func)
    return parser


def _fast_args(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse would give for argv, if argv has the strict form
    of a well-formed request; otherwise None.

    The strict form is a subcommand, then exact ``--flag value`` pairs of
    that subcommand, each flag at most once, no value starting with "-",
    every value accepted by the option's converter and choices, and every
    required flag present.  Everything else (help, abbreviations,
    ``--flag=value``, repeats, negative numbers, bad input) is left to
    argparse, which parses it or writes the usage error.
    """
    if len(argv) % 2 == 0:
        return None
    entry = _COMMANDS.get(argv[0])
    if entry is None:
        return None
    func, _, options = entry
    given = dict(zip(argv[1::2], argv[2::2]))
    if len(given) != len(argv) // 2:        # a flag given twice
        return None
    values = {"command": argv[0], "func": func}
    for flag, option in options.items():
        text = given.pop(flag, None)
        if text is None:
            if option.get("required"):
                return None
            values[option["dest"]] = option.get("default")
            continue
        if text[:1] == "-":
            return None
        convert = option.get("type")
        try:
            value = text if convert is None else convert(text)
        except ValueError:
            return None
        choices = option.get("choices")
        if choices is not None and value not in choices:
            return None
        values[option["dest"]] = value
    if given:                               # a flag this subcommand does not have
        return None
    return SimpleNamespace(**values)


def _run(argv: list[str]) -> int:
    """Parse argv and run its subcommand; the exit code."""
    args = _fast_args(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:          # argparse handles its own usage errors
            return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    """Serve one request (default: the process's arguments); the exit code."""
    try:
        code = _run(sys.argv[1:] if argv is None else list(argv))
        sys.stdout.flush()      # a closed pipe raises here, not at interpreter exit
    except BrokenPipeError:
        # the reader went away (``qdissect ... | head``): point stdout at
        # devnull so that the flush at exit cannot raise again, and exit as a
        # shell reports a process killed by SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


if __name__ == "__main__":
    sys.exit(main())
