"""Command-line front end: tables, identity verification, dissection, coefficients.

Payloads go to stdout in JSON (default) or CSV; diagnostics go to stderr.
Exit codes: 0 success / identity verified, 1 identity verifiably fails,
2 usage error, 141 stdout closed early (what a shell reports for SIGPIPE).
Output for fixed inputs is byte-stable: timing information never enters
the payload.  Big counts and coefficients are serialized as decimal
strings since they outgrow 64-bit integers quickly.  Every payload has a
fixed shape, and its JSON is written from text by ``_object`` and
``_list_text``, each value at the depth where it lands, byte for byte as
``json.dumps(record, sort_keys=True, indent=2)`` would write it.
"""

from __future__ import annotations

import gc
import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING

# the C escaper json.encoder uses, imported without loading the json package
from _json import encode_basestring_ascii as _quote

from .identities import (
    FIFTH_ROOTS,
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
    # (2000 - r) // m: the largest orders whose n = m*order + r stays <= 2000
    "equidist-crank-5": (399, False, lambda o, r, p: verify_equidistribution("crank", 5, o)),
    "equidist-crank-7": (285, False, lambda o, r, p: verify_equidistribution("crank", 7, o)),
    "equidist-crank-11": (181, False, lambda o, r, p: verify_equidistribution("crank", 11, o)),
    "equidist-rank-5": (399, False, lambda o, r, p: verify_equidistribution("rank", 5, o)),
    "equidist-rank-7": (285, False, lambda o, r, p: verify_equidistribution("rank", 7, o)),
    # recognized so the refusal is explained, but always a usage error:
    # the rank does not equidistribute modulo 11
    "equidist-rank-11": (3, False, lambda o, r, p: verify_equidistribution("rank", 11, o)),
    "dissection-2": (80, True, lambda o, r, p: verify_2_dissection(o, perturb_power=p)),
    "dissection-3": (81, True, lambda o, r, p: verify_3_dissection(o, perturb_power=p)),
    "dissection-5": (100, True, lambda o, r, p: verify_5_dissection(o, root_power=r, perturb_power=p)),
    "component-4-vanishing": (100, False, lambda o, r, p: verify_component_4_vanishing(o)),
}


# the newline and indent that start a line at depth 0..6 of a payload
_PAD = tuple("\n" + "  " * depth for depth in range(7))


def _list_text(items, pad: str, brackets: str = "[]") -> str:
    """The JSON list of items, each the text of a value written for the depth
    below pad, with its closing bracket at the start of the line pad starts;
    with brackets "{}", the JSON object of items that are member texts.  No
    payload list or object is empty."""
    inner = pad + "  "
    return brackets[0] + inner + ("," + inner).join(items) + pad + brackets[1]


def _object(members, pad: str) -> str:
    """The JSON object of members, (str key, value text) pairs in sorted key
    order, as _list_text writes it."""
    return _list_text([f"{_quote(key)}: {text}" for key, text in members], pad, "{}")


def _render_rows(kind: str, n_max: int, start: int = 0) -> tuple[list, list, list]:
    """Rows start..n_max of the text _held_rows describes.  The euler rows
    have no objects: no command writes them (``tables`` has no euler kind)."""
    if kind in ("p", "euler"):
        counts = ([partition_count(n) for n in range(start, n_max + 1)] if kind == "p"
                  else euler_product(n_max).coefficients[start:])
        values = [f'"{c}"' for c in counts]
        template = _object((("count", "%s"), ("n", "%d")), _PAD[3])
        objects = [] if kind == "euler" else [
            template % (v, n) for n, v in enumerate(values, start)]
        lines = [f"{n},{c}\n" for n, c in enumerate(counts, start)]
    else:
        rows = ([p._terms for p in crank_gf(n_max).coefficients[start:]] if kind == "crank"
                else stat_table(kind, n_max).rows[start:n_max + 1])
        # a member sorts as its key does: '"' sorts before "-" and the digits;
        # no row is empty, since row n counts the p(n) >= 1 partitions of n
        members = [sorted([f'"{m}": "{c}"' for m, c in row.items()]) for row in rows]
        values = [_list_text(row, _PAD[5], "{}") for row in members]
        template = _object((("coefficients", "%s"), ("n", "%d")), _PAD[3])
        objects = [template % (_list_text(row, _PAD[4], "{}"), n)
                   for n, row in enumerate(members, start)]
        lines = ["".join([f"{n},{m},{c}\n" for m, c in sorted(row.items())])
                 for n, row in enumerate(rows, start)]
    return objects, values, lines


def _held_rows(kind: str, n_max: int) -> tuple[list, list, list]:
    """Rows 0..N, N >= n_max, of the p, crank, rank or euler table as text:
    each row's object, written at depth 3 as ``tables`` and ``coeffs`` write
    it, each row's value, written at depth 5 as ``dissect`` writes it (the
    quoted integer for p and euler, the coefficient object for crank and
    rank), and each row's CSV lines.  A process renders a row once, whichever
    command asks: a request past the held rows renders only the rows after
    them, and the held lists are replaced by new ones, never extended, so a
    render that raises leaves them as they were.  Past TABLE_CAP the rows are
    rendered for the one request and not held, so what a process holds stays
    bounded."""
    if n_max > TABLE_CAP:
        return _render_rows(kind, n_max)
    return largest(("rows", kind), n_max, lambda n: _render_rows(kind, n),
                   lambda held_n, held, n: tuple(
                       old + new for old, new in zip(held, _render_rows(kind, n, held_n + 1))))


def _emit_rows(command: str, params: dict, kind: str, n_max: int) -> None:
    objects, _, lines = _held_rows(kind, n_max)
    if params["format"] == "csv":
        header = "n,count\n" if kind == "p" else "n,exponent,coefficient\n"
        sys.stdout.write(header + "".join(lines[:n_max + 1]))
    else:
        _emit_json(command, params, (("rows", _list_text(objects[:n_max + 1], _PAD[2])),))


def _emit_json(command: str, params: dict, payload) -> None:
    """The record of one request: its parameters, str, int or None each, and
    its payload, the members of an object at depth 1."""
    parameters = [(key, "null" if value is None else _quote(value) if type(value) is str
                   else str(value)) for key, value in sorted(params.items())]
    sys.stdout.write(_object((
        ("command", _quote(command)),
        ("format_version", _quote(FORMAT_VERSION)),
        ("parameters", _object(parameters, _PAD[1])),
        ("payload", _object(payload, _PAD[1])),
    ), _PAD[0]) + "\n")


def _cmd_tables(args) -> int:
    params = {"kind": args.kind, "n_max": args.n_max, "modulo": args.modulo,
              "format": args.format}
    t = args.modulo
    if args.n_max < 0:
        raise ValueError("--n-max must be >= 0")
    if t is not None:
        if args.kind == "p":
            raise ValueError("--modulo applies to crank/rank tables only")
        if t < 1:
            raise ValueError("--modulo must be >= 1")
        # statistic values lie in -n_max..n_max, so past 2*n_max + 1 classes
        # each class holds at most one value
        if t > 2 * args.n_max + 1:
            raise ValueError(f"--modulo must be <= 2*n_max + 1 = {2 * args.n_max + 1}")
    if args.kind != "p":
        table = stat_table(args.kind, args.n_max)     # refuses n_max past the table cap
    if t is None:
        _emit_rows("tables", params, args.kind, args.n_max)
        return 0
    # folds are not held: their key space grows with the modulus
    folds = [table.count_mod(t, n) for n in range(args.n_max + 1)]
    if args.format == "csv":
        sys.stdout.write("n,residue,count\n" + "".join([
            f"{n},{m},{c}\n" for n, fold in enumerate(folds) for m, c in enumerate(fold)]))
        return 0
    # one template for every row, its classes in the string order of their keys
    order = sorted(range(t), key=str)
    template = _object((("classes", _list_text([f'"{m}": "%d"' for m in order], _PAD[4], "{}")),
                        ("n", "%d")), _PAD[3])
    rows = [template % (*map(fold.__getitem__, order), n) for n, fold in enumerate(folds)]
    _emit_json("tables", params, (("rows", _list_text(rows, _PAD[2])),))
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
    w = report.failure_witness
    if args.format == "json":
        witness = "null" if w is None else _object((
            ("actual", _quote(w.actual)), ("expected", _quote(w.expected)),
            ("power", str(w.power)), ("ring", _quote(w.ring))), _PAD[2])
        _emit_json("verify", params, (
            ("failure_witness", witness), ("identity", _quote(report.identity)),
            ("order", str(report.order)), ("status", _quote(report.status))))
    else:
        # no field needs quoting: names, ints, pass/fail, and witnesses that
        # are str of ints, LaurentPoly and QuotientElem, with no comma, quote
        # or newline
        sys.stdout.write(
            "identity,order,status,witness_power,witness_expected,witness_actual,witness_ring\n"
            f"{report.identity},{report.order},{report.status},"
            + (",,," if w is None else f"{w.power},{w.expected},{w.actual},{w.ring}") + "\n")
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
        components = [_object((("coefficients", _list_text(values[k:stop:m], _PAD[4])),
                               ("component", str(k))), _PAD[3]) for k in range(m)]
        _emit_json("dissect", params, (("components", _list_text(components, _PAD[2])),))
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


def entry() -> int:
    """The process entry (``python -m qdissect.cli`` and the ``qdissect``
    script): main() after gc.freeze(), which moves every object made so far,
    the whole import-time heap, into the collector's permanent generation.
    Neither the request's own collections nor the ones at interpreter exit
    then walk that heap, which a process that ends after one request never
    needs collected.  A caller that serves many requests in one process
    calls main(), which leaves the collector as it is."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
