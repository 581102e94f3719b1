"""Command-line front end: tables, identity verification, dissection, coefficients.

Payloads go to stdout in JSON (default) or CSV; diagnostics go to stderr.
Exit codes: 0 success / identity verified, 1 identity verifiably fails,
2 usage error, 141 stdout closed early (what a shell reports for SIGPIPE).
Output for fixed inputs is byte-stable: timing information never enters
the payload.  Big counts and coefficients are serialized as decimal
strings since they outgrow 64-bit integers quickly.  The JSON text is
written by :mod:`qdissect.jsontext`; the row commands (``tables``,
``dissect``, ``coeffs``) live in :mod:`qdissect.rows`.

Each identity is one row of plain data in IDENTITIES, and run_identity()
is the one call of a verifier.  A handler reaches its module as an
attribute of the package when its request runs (the verifier a row names
in ``qdissect.identities``, ``qdissect.rows.<name>``), in every process,
so a caller that rebinds a verifier finds it.  An importer (``import
qdissect.cli``: the tests, ``perfbench/child.py``,
``scripts/verify_all.py``) may serve many requests, so the import loads
every module a request can reach (``qdissect._REQUEST_MODULES``) and no
request imports anything.  A ``python -m qdissect.cli`` process, and the
installed ``qdissect`` script, which runs this module as ``__main__`` the
same way (``qdissect._script``), serve one request, and without cached
bytecode such a process compiles every module it loads, so it loads only
what its request runs (``scripts/request_nodes.py`` lists it): the JSON writer,
:mod:`qdissect.partitions` and :mod:`qdissect.memo` always;
:mod:`qdissect.identities` for a verify request, with the route it checks
(:mod:`qdissect.products` for ``crank-gf``/``rank-gf``,
:mod:`qdissect.recurrences` for ``crank-columns``/``rank-columns``,
:mod:`qdissect.dissections` with :mod:`qdissect.series` for a dissection,
all three for ``component-4-vanishing``); :mod:`qdissect.rows` for a row
command, with :mod:`qdissect.series` for the euler rows.  No request loads
:mod:`qdissect.ring`, in either kind of process (the crank and rank rows
are the statistic table's), so not even an importer compiles it.
"""

from __future__ import annotations

import gc
import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING

import qdissect

from .jsontext import _PAD, _emit_json, _object, _quote
from .partitions import FIFTH_ROOTS

if TYPE_CHECKING:
    import argparse

# identity name -> (default order / n_max, the name of its verifier in
# qdissect.identities, the verifier's arguments before the order, the
# options it takes after the order, in its order).  A new identity is one row.
IDENTITIES = {
    "crank-gf": (40, "verify_crank_gf", (), ("perturb_power",)),
    "rank-gf": (40, "verify_rank_gf", (), ("perturb_power",)),
    "crank-columns": (100, "verify_crank_columns", (), ("perturb_power",)),
    "rank-columns": (100, "verify_rank_columns", (), ("perturb_power",)),
    "congruence-5-4": (20, "verify_congruence", (5,), ()),
    "congruence-7-5": (15, "verify_congruence", (7,), ()),
    "congruence-11-6": (10, "verify_congruence", (11,), ()),
    # (2000 - r) // m: the largest orders whose n = m*order + r stays <= 2000
    "equidist-crank-5": (399, "verify_equidistribution", ("crank", 5), ()),
    "equidist-crank-7": (285, "verify_equidistribution", ("crank", 7), ()),
    "equidist-crank-11": (181, "verify_equidistribution", ("crank", 11), ()),
    "equidist-rank-5": (399, "verify_equidistribution", ("rank", 5), ()),
    "equidist-rank-7": (285, "verify_equidistribution", ("rank", 7), ()),
    # recognized so that the verifier explains the refusal, and no order of
    # it is valid: the rank does not equidistribute modulo 11
    "equidist-rank-11": (None, "verify_equidistribution", ("rank", 11), ()),
    "dissection-2": (80, "verify_2_dissection", (), ("perturb_power",)),
    "dissection-3": (81, "verify_3_dissection", (), ("perturb_power",)),
    "dissection-5": (100, "verify_5_dissection", (), ("n_root", "perturb_power")),
    "component-4-vanishing": (100, "verify_component_4_vanishing", (), ()),
}


def run_identity(identity: str, order: int | None, **given):
    """The report of identity's verifier at order, passed the given values
    of the options its row takes (None for one not given).  The verifier is
    looked up in qdissect.identities when the call runs."""
    _, verifier, leading, options = IDENTITIES[identity]
    return getattr(qdissect.identities, verifier)(*leading, order, *map(given.get, options))


def _cmd_verify(args) -> int:
    default_order, _, _, options = IDENTITIES[args.identity]
    order = args.order if args.order is not None else default_order
    if args.n_root is not None and "n_root" not in options:
        raise ValueError("--n-root applies to dissection-5 only")
    if args.perturb_power is not None and "perturb_power" not in options:
        raise ValueError(f"--perturb-power is not supported for {args.identity}")
    n_root = args.n_root if args.n_root is not None else 1
    report = run_identity(args.identity, order, n_root=n_root, perturb_power=args.perturb_power)
    print(f"{report.identity}: {report.status} "
          f"(order {report.order}, {report.elapsed:.2f}s)", file=sys.stderr)
    params = {"identity": args.identity, "order": order, "format": args.format}
    if "n_root" in options:
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
        # are str of ints or partitions._format_terms/_format_vector text,
        # with no comma, quote or newline
        sys.stdout.write(
            "identity,order,status,witness_power,witness_expected,witness_actual,witness_ring\n"
            f"{report.identity},{report.order},{report.status},"
            + (",,," if w is None else f"{w.power},{w.expected},{w.actual},{w.ring}") + "\n")
    return 0 if report.passed else 1


# An importer loads every module a request can reach now, so that no
# request loads one; a one-shot process loads each when its request first
# reaches it as an attribute of the package, where every handler finds it.
if __name__ != "__main__":
    from importlib import import_module
    for _name in qdissect._REQUEST_MODULES:
        import_module(f"{__package__}.{_name}")


_FORMAT = {"dest": "format", "choices": ("json", "csv"), "default": "json"}

# The one declaration of the command line: subcommand -> (handler, help,
# {flag: add_argument keywords, dest always given}).  build_parser() turns
# it into the argparse parser, which writes --help and every usage error;
# _fast_args() reads it directly for the well-formed requests that make up
# nearly all traffic, so that they never import or run argparse.
_COMMANDS = {
    "tables": (lambda args: qdissect.rows.tables(args),
               "emit p(n), crank or rank counting tables", {
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
    "dissect": (lambda args: qdissect.rows.dissect(args),
                "split a named series by exponent residue", {
        "--series": {"dest": "series", "choices": ("partition-gf", "crank-gf", "euler"),
                     "required": True},
        "--m": {"dest": "m", "type": int, "required": True},
        "--order": {"dest": "order", "type": int, "default": 20},
        "--format": _FORMAT,
    }),
    "coeffs": (lambda args: qdissect.rows.coeffs(args), "crank generating function coefficients", {
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
    """The process entry (``python -m qdissect.cli``, and the ``qdissect``
    script, which runs this module as ``__main__`` the same way): main()
    after gc.freeze(), which moves every object made so far, the whole
    import-time heap, into the collector's permanent generation.
    Neither the request's own collections nor the ones at interpreter exit
    then walk that heap, which a process that ends after one request never
    needs collected.  A caller that serves many requests in one process
    calls main(), which leaves the collector as it is."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
