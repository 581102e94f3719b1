"""Command-line front end: tables, identity verification, dissection, coefficients.

Payloads go to stdout in JSON (default) or CSV; diagnostics go to stderr.
Exit codes: 0 success / identity verified, 1 identity verifiably fails,
2 usage error.  Output for fixed inputs is byte-stable: timing information
never enters the payload.  Big counts and coefficients are serialized as
decimal strings since they outgrow 64-bit integers quickly.
"""

from __future__ import annotations

import argparse
import json
import sys

from .identities import (
    FIFTH_ROOTS,
    VerificationReport,
    crank_coefficients,
    verify_2_dissection,
    verify_3_dissection,
    verify_5_dissection,
    verify_component_4_vanishing,
    verify_congruence,
    verify_crank_gf,
    verify_equidistribution,
    verify_rank_gf,
)
from .partitions import partition_count, stat_table
from .ring import LaurentPoly
from .series import crank_gf, euler_product, partition_gf

FORMAT_VERSION = "1"

# identity name -> (default order / n_max, accepts perturb-power, runner)
IDENTITIES = {
    "crank-gf": (40, True, lambda o, r, p: verify_crank_gf(o, perturb_power=p)),
    "rank-gf": (40, True, lambda o, r, p: verify_rank_gf(o, perturb_power=p)),
    "congruence-5-4": (20, False, lambda o, r, p: verify_congruence(5, 4, o)),
    "congruence-7-5": (15, False, lambda o, r, p: verify_congruence(7, 5, o)),
    "congruence-11-6": (10, False, lambda o, r, p: verify_congruence(11, 6, o)),
    "equidist-crank-5": (8, False, lambda o, r, p: verify_equidistribution("crank", 5, 4, o)),
    "equidist-crank-7": (5, False, lambda o, r, p: verify_equidistribution("crank", 7, 5, o)),
    "equidist-crank-11": (3, False, lambda o, r, p: verify_equidistribution("crank", 11, 6, o)),
    "equidist-rank-5": (8, False, lambda o, r, p: verify_equidistribution("rank", 5, 4, o)),
    "equidist-rank-7": (5, False, lambda o, r, p: verify_equidistribution("rank", 7, 5, o)),
    # recognized so the refusal is explained, but always a usage error:
    # the rank does not equidistribute modulo 11
    "equidist-rank-11": (3, False, lambda o, r, p: verify_equidistribution("rank", 11, 6, o)),
    "dissection-2": (80, True, lambda o, r, p: verify_2_dissection(o, perturb_power=p)),
    "dissection-3": (81, True, lambda o, r, p: verify_3_dissection(o, perturb_power=p)),
    "dissection-5": (100, True, lambda o, r, p: verify_5_dissection(o, root_power=r, perturb_power=p)),
    "component-4-vanishing": (100, False, lambda o, r, p: verify_component_4_vanishing(o)),
}


def _laurent_json(p: LaurentPoly) -> dict[str, str]:
    return {str(e): str(c) for e, c in sorted(p.terms.items())}


def _emit_json(command: str, parameters: dict, payload) -> None:
    record = {
        "format_version": FORMAT_VERSION,
        "command": command,
        "parameters": parameters,
        "payload": payload,
    }
    sys.stdout.write(json.dumps(record, sort_keys=True, indent=2) + "\n")


def _emit_csv(header: list[str], rows: list[list[str]]) -> None:
    import csv          # only the CSV path pays for the import

    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


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
        rows = [(n, partition_count(n)) for n in range(args.n_max + 1)]
        if args.format == "json":
            _emit_json("tables", params,
                       {"rows": [{"n": n, "count": str(c)} for n, c in rows]})
        else:
            _emit_csv(["n", "count"], [[str(n), str(c)] for n, c in rows])
        return 0

    if args.modulo is not None and args.modulo < 1:
        raise ValueError("--modulo must be >= 1")
    # statistic values lie in -n_max..n_max, so past 2*n_max + 1 classes
    # each class holds at most one value
    if args.modulo is not None and args.modulo > 2 * args.n_max + 1:
        raise ValueError(f"--modulo must be <= 2*n_max + 1 = {2 * args.n_max + 1}")
    table = stat_table(args.kind, args.n_max)
    if args.modulo is not None:
        t = args.modulo
        folded = [(n, {k: table.count_mod(k, t, n) for k in range(t)})
                  for n in range(args.n_max + 1)]
        if args.format == "json":
            _emit_json("tables", params, {"rows": [
                {"n": n, "classes": {str(k): str(c) for k, c in classes.items()}}
                for n, classes in folded
            ]})
        else:
            _emit_csv(["n", "residue", "count"],
                      [[str(n), str(k), str(c)]
                       for n, classes in folded for k, c in classes.items()])
        return 0

    rows = [(n, dict(sorted(table.row(n).items()))) for n in range(args.n_max + 1)]
    if args.format == "json":
        _emit_json("tables", params, {"rows": [
            {"n": n, "coefficients": {str(m): str(c) for m, c in row.items()}}
            for n, row in rows
        ]})
    else:
        _emit_csv(["n", "exponent", "coefficient"],
                  [[str(n), str(m), str(c)] for n, row in rows for m, c in row.items()])
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
            ["identity", "order", "status", "witness_power", "witness_expected",
             "witness_actual", "witness_ring"],
            [[report.identity, str(report.order), report.status,
              "" if w is None else str(w.power),
              "" if w is None else w.expected,
              "" if w is None else w.actual,
              "" if w is None else w.ring]],
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
    if args.series == "partition-gf":
        series = partition_gf(args.order)
    elif args.series == "euler":
        series = euler_product(args.order)
    else:
        series = crank_gf(args.order)
    components = series.dissect(args.m)

    laurent = args.series == "crank-gf"
    if args.format == "json":
        payload = {"components": []}
        for k, comp in enumerate(components):
            coeffs = [_laurent_json(c) if laurent else str(c)
                      for c in comp.coefficients]
            payload["components"].append({"component": k, "coefficients": coeffs})
        _emit_json("dissect", params, payload)
    else:
        rows = []
        for k, comp in enumerate(components):
            for j, c in enumerate(comp.coefficients):
                if laurent:
                    rows.extend([[str(k), str(j), str(e), str(v)]
                                 for e, v in sorted(c.terms.items())])
                else:
                    rows.append([str(k), str(j), str(c)])
        header = (["component", "index", "exponent", "coefficient"] if laurent
                  else ["component", "index", "coefficient"])
        _emit_csv(header, rows)
    return 0


def _cmd_coeffs(args) -> int:
    if args.count < 1:
        raise ValueError("--count must be >= 1")
    params = {"count": args.count, "format": args.format}
    polys = crank_coefficients(args.count - 1)
    if args.format == "json":
        _emit_json("coeffs", params, {"rows": [
            {"n": n, "coefficients": _laurent_json(p)} for n, p in enumerate(polys)
        ]})
    else:
        _emit_csv(["n", "exponent", "coefficient"],
                  [[str(n), str(e), str(c)]
                   for n, p in enumerate(polys) for e, c in sorted(p.terms.items())])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdissect",
        description="Exact q-series tables, dissections and identity verification "
                    "for partition statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("tables", help="emit p(n), crank or rank counting tables")
    t.add_argument("--kind", choices=("p", "crank", "rank"), required=True)
    t.add_argument("--n-max", type=int, required=True)
    t.add_argument("--modulo", type=int, default=None,
                   help="fold statistic values into residue classes mod t")
    t.add_argument("--format", choices=("json", "csv"), default="json")
    t.set_defaults(func=_cmd_tables)

    v = sub.add_parser("verify", help="run one identity verifier")
    v.add_argument("--identity", choices=sorted(IDENTITIES), required=True)
    v.add_argument("--order", type=int, default=None,
                   help="truncation order (congruence/equidistribution: max n); "
                        "defaults depend on the identity")
    v.add_argument("--n-root", type=int, default=None, choices=FIFTH_ROOTS,
                   help="which primitive 5th root powers the symbol (dissection-5)")
    v.add_argument("--perturb-power", type=int, default=None,
                   help="self-test: corrupt one comparison coefficient at this "
                        "power of q; the verifier must then fail")
    v.add_argument("--format", choices=("json", "csv"), default="json")
    v.set_defaults(func=_cmd_verify)

    d = sub.add_parser("dissect", help="split a named series by exponent residue")
    d.add_argument("--series", choices=("partition-gf", "crank-gf", "euler"),
                   required=True)
    d.add_argument("--m", type=int, required=True)
    d.add_argument("--order", type=int, default=20)
    d.add_argument("--format", choices=("json", "csv"), default="json")
    d.set_defaults(func=_cmd_dissect)

    c = sub.add_parser("coeffs", help="crank generating function coefficients")
    c.add_argument("--count", type=int, default=21,
                   help="number of coefficients, starting at q^0")
    c.add_argument("--format", choices=("json", "csv"), default="json")
    c.set_defaults(func=_cmd_coeffs)

    return parser


# built on the first request and reused: building costs about 0.7 ms, as
# much as a small request itself
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:          # argparse handles its own usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
