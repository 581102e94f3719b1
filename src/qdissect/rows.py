"""The row commands of the CLI: ``tables``, ``dissect`` and ``coeffs``.

Each writes rows of the p, crank, rank or euler table, held as the text
the CLI writes (``_held_rows``), or folds of a statistic table.
``qdissect.cli`` declares the commands and parses their options; a
``python -m qdissect.cli`` process loads this module only for a request
that is one of them.  So this module does not import ``qdissect.cli``:
under ``-m`` that would compile and run ``cli.py`` a second time.  The
crank and rank rows are the rows of the held statistic table, the dicts
``partitions.stat_table`` keeps, read alike; no row is a ring object.  The
p and euler kernels are called as ``partitions.partition_count`` and
``qdissect.series.euler_product``, where a caller that rebinds those names
(perfbench's tracer) finds them; the series are reached as an attribute
of the package, so only the euler rows load :mod:`qdissect.series`, and
no row command loads :mod:`qdissect.ring`.
"""

from __future__ import annotations

import sys

import qdissect

from . import partitions
from .jsontext import _PAD, _emit_json, _list_text, _object
from .memo import largest
from .partitions import ORDER_CAP, TABLE_CAP, _check_order, stat_table


def _render_rows(kind: str, n_max: int, start: int = 0) -> tuple[list, list, list]:
    """Rows start..n_max of the text _held_rows describes.  The euler rows
    have no objects: no command writes them (``tables`` has no euler kind)."""
    if kind in ("p", "euler"):
        counts = ([partitions.partition_count(n) for n in range(start, n_max + 1)]
                  if kind == "p" else qdissect.series.euler_product(n_max).coefficients[start:])
        values = [f'"{c}"' for c in counts]
        template = _object((("count", "%s"), ("n", "%d")), _PAD[3])
        objects = [] if kind == "euler" else [
            template % (v, n) for n, v in enumerate(values, start)]
        lines = [f"{n},{c}\n" for n, c in enumerate(counts, start)]
    else:
        rows = stat_table(kind, n_max).rows[start:n_max + 1]
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
    render that raises leaves them as they were.  Every row is held, past
    TABLE_CAP too: the p and euler rows stop at ORDER_CAP, so what a process
    holds stays bounded."""
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


def tables(args) -> int:
    params = {"kind": args.kind, "n_max": args.n_max, "modulo": args.modulo,
              "format": args.format}
    # the p rows need no table, so the order cap bounds them, not the table cap
    _check_order("n_max", args.n_max, cap=ORDER_CAP if args.kind == "p" else TABLE_CAP)
    t = args.modulo
    if t is None:
        _emit_rows("tables", params, args.kind, args.n_max)
        return 0
    if args.kind == "p":
        raise ValueError("--modulo applies to crank/rank tables only")
    # statistic values lie in -n_max..n_max, so past 2*n_max + 1 classes
    # each class holds at most one value
    if t > 2 * args.n_max + 1:
        raise ValueError(f"--modulo must be <= 2*n_max + 1 = {2 * args.n_max + 1}")
    _check_order("--modulo", t, 1)
    table = stat_table(args.kind, args.n_max)
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


def dissect(args) -> int:
    # row n of the crank, p or euler rows is the series' coefficient of q^n
    kind = {"crank-gf": "crank", "partition-gf": "p", "euler": "euler"}[args.series]
    _check_order("order", args.order, cap=TABLE_CAP if kind == "crank" else ORDER_CAP)
    # past order + 1 components each one holds at most one coefficient
    if args.m > args.order + 1:
        raise ValueError(f"--m must be <= order + 1 = {args.order + 1}")
    # its cap is not the order cap, which m = order + 1 may pass
    _check_order("--m", args.m, 1, cap=args.order + 1)
    params = {"series": args.series, "m": args.m, "order": args.order,
              "format": args.format}
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


def coeffs(args) -> int:
    if args.count > TABLE_CAP + 1:
        raise ValueError(f"--count must be <= {TABLE_CAP + 1}: coefficient "
                         f"q^{args.count - 1} is past the table cap {TABLE_CAP}")
    _check_order("--count", args.count, 1)
    _emit_rows("coeffs", {"count": args.count, "format": args.format}, "crank", args.count - 1)
    return 0
