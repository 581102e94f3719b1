"""Output checks for the qdissect benchmark that do not trust the code under test.

Nothing here imports ``qdissect``.  Partition numbers come from a small
coin-change recurrence of our own, and every payload is parsed from the
bytes the CLI printed.  ``check`` returns the problems found with one
operation's result; an empty list means the operation passed.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from functools import cache


@dataclass(frozen=True)
class Op:
    """One CLI request and what its result must look like.

    ``expect`` is ``"ok"`` (exit 0 and a payload whose content is checked),
    ``"pass"`` (a verify that exits 0 with status pass), ``"fail"`` (a
    perturbed verify that exits 1 with a witness at ``power``) or
    ``"usage"`` (exit 2, nothing on stdout).  ``defect`` names a known,
    documented defect of the program that makes this request misbehave
    today; its failures are tallied apart from the other operations.
    """

    argv: tuple[str, ...]
    expect: str = "ok"
    power: int | None = None
    defect: str | None = None


@cache
def partition_numbers(n_max: int) -> tuple[int, ...]:
    """p(0..n_max) by counting partitions with parts 1, 2, ..., n_max in turn."""
    p = [1] + [0] * n_max
    for part in range(1, n_max + 1):
        for n in range(part, n_max + 1):
            p[n] += p[n - part]
    return tuple(p)


def _flags(argv) -> dict[str, str]:
    return {argv[i]: argv[i + 1] for i in range(1, len(argv) - 1, 2)}


def _record(stdout: str, command: str) -> dict:
    record = json.loads(stdout)
    if record.get("format_version") != "1" or record.get("command") != command:
        raise ValueError(f"unexpected envelope {record.get('format_version')!r}/"
                         f"{record.get('command')!r}")
    return record["payload"]


def _csv_rows(stdout: str, header: list[str]) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(stdout)))
    if not rows or rows[0] != header:
        raise ValueError(f"CSV header {rows[:1]} is not {header}")
    return rows[1:]


def _check_rows(rows: dict[int, dict[int, int]], n_max: int, modulo: int | None,
                problems: list[str]) -> None:
    """Each row sums to p(n) and is symmetric in the statistic value (n >= 2)."""
    p = partition_numbers(n_max)
    if sorted(rows) != list(range(n_max + 1)):
        problems.append(f"rows {sorted(rows)[:5]}... are not n = 0..{n_max}")
        return
    for n, row in rows.items():
        if sum(row.values()) != p[n]:
            problems.append(f"row n={n} sums to {sum(row.values())}, p(n) = {p[n]}")
        if modulo is not None:
            if sorted(row) != list(range(modulo)):
                problems.append(f"row n={n} has classes {sorted(row)}")
            mirror = {(-k) % modulo: c for k, c in row.items()}
        else:
            mirror = {-m: c for m, c in row.items()}
        if n >= 2 and mirror != row:
            problems.append(f"row n={n} is not symmetric in m")


def _stat_rows(stdout: str, fmt: str, command: str, key: str,
               csv_header: list[str]) -> dict[int, dict[int, int]]:
    rows: dict[int, dict[int, int]] = {}
    if fmt == "json":
        for r in _record(stdout, command)["rows"]:
            rows[r["n"]] = {int(m): int(c) for m, c in r[key].items()}
    else:
        for n, m, c in _csv_rows(stdout, csv_header):
            rows.setdefault(int(n), {})[int(m)] = int(c)
    return rows


def _check_tables(flags: dict[str, str], stdout: str, problems: list[str]) -> None:
    fmt = flags.get("--format", "json")
    n_max = int(flags["--n-max"])
    if flags["--kind"] == "p":
        p = partition_numbers(n_max)
        if fmt == "json":
            got = [(r["n"], int(r["count"])) for r in _record(stdout, "tables")["rows"]]
        else:
            got = [(int(n), int(c)) for n, c in _csv_rows(stdout, ["n", "count"])]
        if got != list(enumerate(p)):
            problems.append(f"p(n) table for n <= {n_max} differs from p(n)")
        return
    modulo = int(flags["--modulo"]) if "--modulo" in flags else None
    if modulo is None:
        rows = _stat_rows(stdout, fmt, "tables", "coefficients",
                          ["n", "exponent", "coefficient"])
    else:
        rows = _stat_rows(stdout, fmt, "tables", "classes", ["n", "residue", "count"])
    _check_rows(rows, n_max, modulo, problems)


def _check_coeffs(flags: dict[str, str], stdout: str, problems: list[str]) -> None:
    rows = _stat_rows(stdout, flags.get("--format", "json"), "coeffs", "coefficients",
                      ["n", "exponent", "coefficient"])
    _check_rows(rows, int(flags["--count"]) - 1, None, problems)


def _check_dissect(flags: dict[str, str], stdout: str, problems: list[str]) -> None:
    series, m, order = flags["--series"], int(flags["--m"]), int(flags["--order"])
    laurent = series == "crank-gf"
    if series not in ("partition-gf", "crank-gf"):
        raise ValueError(f"no content check for series {series}")
    coeffs: dict[tuple[int, int], object] = {}
    if flags.get("--format", "json") == "json":
        for comp in _record(stdout, "dissect")["components"]:
            for j, c in enumerate(comp["coefficients"]):
                coeffs[comp["component"], j] = (
                    {int(e): int(v) for e, v in c.items()} if laurent else int(c))
    else:
        header = ["component", "index", "exponent", "coefficient"] if laurent else \
            ["component", "index", "coefficient"]
        for row in _csv_rows(stdout, header):
            k, j = int(row[0]), int(row[1])
            if laurent:
                coeffs.setdefault((k, j), {})[int(row[2])] = int(row[3])
            else:
                coeffs[k, j] = int(row[2])
    interleaved = {}
    for (k, j), c in coeffs.items():
        if k > order:
            # residue classes beyond the order come back as one zero coefficient
            if j or c:
                problems.append(f"component {k} is beyond the order but not zero")
            continue
        interleaved[k + j * m] = c
    if sorted(interleaved) != list(range(order + 1)):
        problems.append(f"components do not re-interleave to q^0..q^{order}")
    elif laurent:
        _check_rows(interleaved, order, None, problems)
    elif [interleaved[n] for n in range(order + 1)] != list(partition_numbers(order)):
        problems.append("partition-gf components do not re-interleave to p(0..N)")


def _check_verdict(op: Op, flags: dict[str, str], exit_code: int, stdout: str,
                   problems: list[str]) -> None:
    want_exit = 0 if op.expect == "pass" else 1
    if exit_code != want_exit:
        problems.append(f"exit {exit_code}, expected {want_exit}")
        return
    payload = _record(stdout, "verify")
    if payload["identity"] != flags["--identity"]:
        problems.append(f"identity {payload['identity']!r} in the payload")
    if "--order" in flags and payload["order"] != int(flags["--order"]):
        problems.append(f"order {payload['order']} in the payload")
    witness = payload["failure_witness"]
    if op.expect == "pass":
        if payload["status"] != "pass" or witness is not None:
            problems.append(f"status {payload['status']!r}, witness {witness!r}")
    elif payload["status"] != "fail" or witness is None or witness["power"] != op.power:
        problems.append(f"status {payload['status']!r}, witness {witness!r}; "
                        f"expected a witness at power {op.power}")


def check(op: Op, exit_code: int, stdout: str) -> list[str]:
    """Problems with one operation's result; empty when it is correct."""
    problems: list[str] = []
    flags = _flags(op.argv)
    try:
        if op.expect == "usage":
            if exit_code != 2:
                problems.append(f"exit {exit_code}, expected the usage-error exit 2")
            if stdout:
                problems.append("a usage error printed to stdout")
        elif op.expect in ("pass", "fail"):
            _check_verdict(op, flags, exit_code, stdout, problems)
        elif exit_code != 0:
            problems.append(f"exit {exit_code}, expected 0")
        else:
            content = {"tables": _check_tables, "coeffs": _check_coeffs,
                       "dissect": _check_dissect}[op.argv[0]]
            content(flags, stdout, problems)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return problems


@dataclass
class Tally:
    """Operations attempted and failed, with the first few problems kept."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    defects_seen: dict[str, int] = field(default_factory=dict)

    @property
    def known_defects(self) -> int:
        return sum(self.defects_seen.values())

    def add(self, op: Op, exit_code: int, stdout: str) -> bool:
        """Check one result and count it; returns whether it passed."""
        self.attempted += 1
        problems = check(op, exit_code, stdout)
        if not problems:
            return True
        if op.defect is not None:
            self.defects_seen[op.defect] = self.defects_seen.get(op.defect, 0) + 1
        else:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{' '.join(op.argv)}: {'; '.join(problems)}")
        return False
