import contextlib
import csv
import gc
import hashlib
import inspect
import io
import json
import os
import re
import runpy
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from qdissect import (cli, dissections, identities, jsontext, memo, partitions, products,
                      recurrences, rows, series)
from qdissect.cli import IDENTITIES, main
from qdissect.ring import LaurentPoly
from qdissect.series import crank_gf, euler_product, partition_gf

# a small valid order for every identity that accepts --perturb-power
PERTURBABLE = {"crank-gf": 10, "rank-gf": 10, "crank-columns": 10, "rank-columns": 10,
               "dissection-2": 10, "dissection-3": 9, "dissection-5": 10}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def payload_of(out):
    record = json.loads(out)
    assert record["format_version"] == "1"
    return record["payload"]


def test_tables_p(capsys):
    code, out, _ = run_cli(capsys, "tables", "--kind", "p", "--n-max", "9")
    assert code == 0
    rows = payload_of(out)["rows"]
    assert [r["count"] for r in rows] == ["1", "1", "2", "3", "5", "7", "11", "15", "22", "30"]


def test_tables_crank_csv_conventions(capsys):
    code, out, _ = run_cli(capsys, "tables", "--kind", "crank", "--n-max", "2",
                           "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "exponent", "coefficient"]
    assert ["1", "-1", "1"] in rows and ["1", "0", "-1"] in rows and ["1", "1", "1"] in rows
    assert ["2", "-2", "1"] in rows and ["2", "2", "1"] in rows


def test_tables_rank_modulo(capsys):
    code, out, _ = run_cli(capsys, "tables", "--kind", "rank", "--n-max", "4",
                           "--modulo", "5")
    assert code == 0
    rows = payload_of(out)["rows"]
    assert rows[4]["classes"] == {"0": "1", "1": "1", "2": "1", "3": "1", "4": "1"}


def test_tables_usage_errors(capsys):
    assert run_cli(capsys, "tables", "--kind", "crank", "--n-max", "301")[0] == 2
    assert run_cli(capsys, "tables", "--kind", "rank", "--n-max", "301")[0] == 2
    assert run_cli(capsys, "tables", "--kind", "p", "--n-max", "5", "--modulo", "5")[0] == 2
    assert run_cli(capsys, "tables", "--kind", "nope", "--n-max", "5")[0] == 2
    assert run_cli(capsys, "tables", "--kind", "crank", "--n-max", "3", "--modulo", "0")[0] == 2
    assert memo._held == {}


def _table_builds(monkeypatch):
    builds = []
    original = partitions.build_stat_table

    def counted(kind, n_max):
        builds.append((kind, n_max))
        return original(kind, n_max)

    monkeypatch.setattr(partitions, "build_stat_table", counted)
    return builds


def test_tables_reuse_the_verifiers_cached_table(capsys, monkeypatch):
    builds = _table_builds(monkeypatch)
    assert run_cli(capsys, "verify", "--identity", "crank-gf", "--order", "40")[0] == 0
    assert builds == [("crank", 40)]
    code, out, _ = run_cli(capsys, "tables", "--kind", "crank", "--n-max", "20")
    assert code == 0
    assert len(payload_of(out)["rows"]) == 21
    assert builds == [("crank", 40)]


def test_rows_rendered_once_serve_every_later_request(capsys, monkeypatch):
    builds, renders = _table_builds(monkeypatch), []
    render = rows._render_rows
    monkeypatch.setattr(rows, "_render_rows", lambda kind, n_max, start=0:
                        renders.append((kind, n_max)) or render(kind, n_max, start))
    assert run_cli(capsys, "tables", "--kind", "crank", "--n-max", "30")[0] == 0
    assert run_cli(capsys, "tables", "--kind", "p", "--n-max", "40")[0] == 0
    for argv in (("coeffs", "--count", "21"),
                 ("tables", "--kind", "crank", "--n-max", "20", "--format", "csv"),
                 ("dissect", "--series", "crank-gf", "--m", "2", "--order", "30"),
                 ("dissect", "--series", "crank-gf", "--m", "5", "--order", "30",
                  "--format", "csv"),
                 ("dissect", "--series", "partition-gf", "--m", "5", "--order", "40"),
                 ("dissect", "--series", "partition-gf", "--m", "7", "--order", "33",
                  "--format", "csv")):
        assert run_cli(capsys, *argv)[0] == 0
    assert renders == [("crank", 30), ("p", 40)] and builds == [("crank", 30)]
    assert {key: order for key, (order, _) in memo._held.items() if key[0] == "rows"} == {
        ("rows", "crank"): 30, ("rows", "p"): 40}
    assert run_cli(capsys, "coeffs", "--count", "32")[0] == 0
    assert renders == [("crank", 30), ("p", 40), ("crank", 31)]
    for fmt in ("json", "csv", "json"):
        assert run_cli(capsys, "dissect", "--series", "partition-gf", "--m", "2",
                       "--order", "60", "--format", fmt)[0] == 0
    assert renders == [("crank", 30), ("p", 40), ("crank", 31), ("p", 60)]
    assert builds == [("crank", 30), ("crank", 31)]


def _rendered(monkeypatch):
    renders = []
    render = rows._render_rows

    def counted(kind, n_max, start=0):
        renders.append((kind, start, n_max))
        return render(kind, n_max, start)

    monkeypatch.setattr(rows, "_render_rows", counted)
    return renders


def test_rows_grow_from_the_held_order(capsys, monkeypatch):
    renders = _rendered(monkeypatch)
    for argv in (("tables", "--kind", "p", "--n-max", "60"),
                 ("dissect", "--series", "partition-gf", "--m", "5", "--order", "100"),
                 ("tables", "--kind", "crank", "--n-max", "20", "--format", "csv"),
                 ("dissect", "--series", "partition-gf", "--m", "2", "--order", "200",
                  "--format", "csv"),
                 ("coeffs", "--count", "31"),
                 ("tables", "--kind", "p", "--n-max", "300"),
                 ("dissect", "--series", "crank-gf", "--m", "3", "--order", "25")):
        assert run_cli(capsys, *argv)[0] == 0
    # each row rendered exactly once, and held as one list per kind
    assert renders == [("p", 0, 60), ("p", 61, 100), ("crank", 0, 20), ("p", 101, 200),
                       ("crank", 21, 30), ("p", 201, 300)]
    objects, values, lines = memo._held[("rows", "p")][1]
    assert len(objects) == len(values) == len(lines) == 301
    assert lines[300] == f"300,{partitions.partition_count(300)}\n"
    assert '"n": 300' in objects[300] and values[0] == '"1"'


def test_rows_held_grown_write_every_golden_request(capsys, monkeypatch):
    # one memo for all requests, in both orders: rows grow on the way up
    renders = _rendered(monkeypatch)
    for requests in (GOLDEN, GOLDEN[::-1]):
        monkeypatch.setattr(memo, "_held", {})
        for request_line, digest in requests:
            code, out, _ = run_cli(capsys, *request_line.split())
            assert hashlib.sha256(f"{code}\n{out}".encode()).hexdigest() == digest, request_line
    assert any(start > 0 for _, start, _ in renders)


def test_render_that_raises_leaves_the_held_rows(capsys, monkeypatch):
    assert run_cli(capsys, "tables", "--kind", "p", "--n-max", "40")[0] == 0
    entry = memo._held[("rows", "p")]
    objects, values, lines = entry[1]

    def failing(n):
        raise RuntimeError("no p(n) today")

    monkeypatch.setattr(partitions, "partition_count", failing)
    with pytest.raises(RuntimeError):
        main(["tables", "--kind", "p", "--n-max", "41"])
    assert memo._held[("rows", "p")] is entry
    assert entry[0] == 40 and len(objects) == len(values) == len(lines) == 41
    capsys.readouterr()


def test_euler_rows_hold_no_objects(capsys):
    assert run_cli(capsys, "dissect", "--series", "euler", "--m", "2", "--order", "30")[0] == 0
    assert run_cli(capsys, "dissect", "--series", "euler", "--m", "2", "--order", "40")[0] == 0
    objects, values, lines = memo._held[("rows", "euler")][1]
    assert objects == [] and len(values) == len(lines) == 41


def test_verify_pass_exit_zero(capsys):
    code, out, err = run_cli(capsys, "verify", "--identity", "congruence-5-4",
                             "--order", "10")
    assert code == 0
    body = payload_of(out)
    assert body["status"] == "pass"
    assert body["failure_witness"] is None
    assert "congruence-5-4" in err       # diagnostics (with timing) on stderr only


def test_verify_perturbed_exit_one(capsys):
    code, out, _ = run_cli(capsys, "verify", "--identity", "dissection-2",
                           "--order", "10", "--perturb-power", "1")
    assert code == 1
    body = payload_of(out)
    assert body["status"] == "fail"
    assert body["failure_witness"]["power"] == 1


def test_verify_usage_errors(capsys):
    assert run_cli(capsys, "verify", "--identity", "equidist-rank-11") == (
        2, "", "error: equidistribution of the rank is not available mod 11\n")
    assert run_cli(capsys, "verify", "--identity", "no-such-thing")[0] == 2
    assert run_cli(capsys, "verify", "--identity", "congruence-5-4",
                   "--n-root", "2")[0] == 2
    assert run_cli(capsys, "verify", "--identity", "congruence-5-4",
                   "--perturb-power", "1")[0] == 2
    assert run_cli(capsys, "verify", "--identity", "dissection-2",
                   "--order", "7")[0] == 2


def test_perturbable_identities_listed():
    assert {name for name, (*_, options) in IDENTITIES.items()
            if "perturb_power" in options} == set(PERTURBABLE)


def test_every_registry_row_names_a_verifier_that_takes_its_arguments():
    # a row is plain data, read when its request runs; this reads every row
    # without one, so a misspelt verifier or a wrong argument count fails here
    for name, (default_order, verifier, leading, options) in IDENTITIES.items():
        assert default_order is None or type(default_order) is int, name
        function = getattr(identities, verifier)
        inspect.signature(function).bind(*leading, 1, *[None] * len(options))
        assert set(options) <= {"n_root", "perturb_power"}, name


@pytest.mark.parametrize("identity", sorted(PERTURBABLE))
def test_perturb_power_fails_in_range_and_is_refused_outside(capsys, identity):
    order = PERTURBABLE[identity]
    base = ("verify", "--identity", identity, "--order", str(order))
    for power in (0, order // 2, order):
        code, out, _ = run_cli(capsys, *base, "--perturb-power", str(power))
        assert code == 1
        body = payload_of(out)
        assert body["status"] == "fail"
        assert body["failure_witness"]["power"] == power
    for power in (order + 1, order + 40, -1, -3):
        code, out, err = run_cli(capsys, *base, "--perturb-power", str(power))
        assert code == 2
        assert out == ""
        assert "perturbation power" in err


@pytest.mark.parametrize("identity,order", [("crank-gf", 375), ("rank-gf", 301),
                                            ("crank-columns", 301), ("rank-columns", 1000)])
def test_table_cap_refused_before_any_work(capsys, identity, order):
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "--identity", identity, "--order", str(order))
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert out == ""
    assert "table cap" in err


@pytest.mark.parametrize("identity,order,message", [
    ("crank-gf", 301, "order 301 exceeds the table cap 300"),
    ("rank-gf", 301, "order 301 exceeds the table cap 300"),
    ("crank-columns", 301, "order 301 exceeds the table cap 300"),
    ("rank-columns", 301, "order 301 exceeds the table cap 300"),
], ids=["crank-gf", "rank-gf", "crank-columns", "rank-columns"])
def test_cap_refusals_name_the_given_order(capsys, monkeypatch, identity, order, message):
    # the refusal names what the caller gave and runs before any table,
    # series or recurrence is built
    def refuse(*args):
        raise AssertionError("work started before the cap refusal")

    monkeypatch.setattr(partitions, "build_stat_table", refuse)
    monkeypatch.setattr(partitions, "_columns", refuse)
    monkeypatch.setattr(products, "product_rows", refuse)
    monkeypatch.setattr(recurrences, "recurrence_rows", refuse)
    code, out, err = run_cli(capsys, "verify", "--identity", identity, "--order", str(order))
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("identity,order,message", [
    # n = m*n_max + r stays within the order cap for n_max <= (5000 - r) // m
    ("equidist-crank-11", 100000, "n_max 100000 exceeds 454"),
    ("equidist-rank-5", 1000, "n_max 1000 exceeds 999"),
    ("congruence-5-4", 20000, "n_max 20000 exceeds 999"),
    ("dissection-2", 10000, "order 10000 exceeds the order cap 5000"),
    ("dissection-5", 5005, "order 5005 exceeds the order cap 5000"),
    ("component-4-vanishing", 5005, "order 5005 exceeds the order cap 5000"),
], ids=["equidist-crank-11", "equidist-rank-5", "congruence-5-4", "dissection-2",
        "dissection-5", "component-4-vanishing"])
def test_order_cap_refusals_name_the_given_order(capsys, monkeypatch, identity, order, message):
    # past the largest power of q a check may touch, refused before any
    # kernel runs and before anything is held
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the cap refusal")

    for module, names in ((identities, ("largest", "_columns", "partition_count")),
                          (series, ("crank_coordinates", "_crank_coordinates")),
                          (dissections, ("largest", "_rhs_coordinates")),
                          (products, ("product_rows",))):
        for name in names:
            monkeypatch.setattr(module, name, refuse)
    code, out, err = run_cli(capsys, "verify", "--identity", identity, "--order", str(order))
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert memo._held == {}


def test_equidistribution_runs_past_the_table_cap(capsys):
    # n = 11*30 + 6 = 336: the classes come from no table, so no cap applies
    code, out, _ = run_cli(capsys, "verify", "--identity", "equidist-crank-11", "--order", "30")
    assert code == 0
    assert payload_of(out)["status"] == "pass"


def test_verify_dissection_5_with_root(capsys):
    code, out, _ = run_cli(capsys, "verify", "--identity", "dissection-5",
                           "--order", "10", "--n-root", "3")
    assert code == 0
    record = json.loads(out)
    assert record["parameters"]["n_root"] == 3


def test_verify_csv_format(capsys):
    code, out, _ = run_cli(capsys, "verify", "--identity", "congruence-7-5",
                           "--order", "5", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:3] == ["identity", "order", "status"]
    assert rows[1][:3] == ["congruence-7-5", "5", "pass"]


def test_dissect_euler_m1_is_identity(capsys):
    code, out, _ = run_cli(capsys, "dissect", "--series", "euler", "--m", "1",
                           "--order", "12")
    assert code == 0
    comps = payload_of(out)["components"]
    assert len(comps) == 1
    assert comps[0]["coefficients"] == [
        "1", "-1", "-1", "0", "0", "1", "0", "1", "0", "0", "0", "0", "-1"
    ]


def test_dissect_partition_gf_component_4(capsys):
    code, out, _ = run_cli(capsys, "dissect", "--series", "partition-gf",
                           "--m", "5", "--order", "25")
    assert code == 0
    comps = payload_of(out)["components"]
    fourth = [int(c) for c in comps[4]["coefficients"]]
    assert fourth[:4] == [5, 30, 135, 490]
    assert all(c % 5 == 0 for c in fourth)


def test_dissect_crank_gf_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "dissect", "--series", "crank-gf", "--m", "2",
                           "--order", "10")
    assert code == 0
    comps = payload_of(out)["components"]
    # stitch the components back together and compare with the series itself
    expected = crank_gf(10)
    for k, comp in enumerate(comps):
        for j, coeffs in enumerate(comp["coefficients"]):
            n = 2 * j + k
            assert {int(e): int(c) for e, c in coeffs.items()} == expected.coefficients[n].terms


def test_dissect_crank_gf_csv(capsys):
    code, out, _ = run_cli(capsys, "dissect", "--series", "crank-gf", "--m", "2",
                           "--order", "4", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["component", "index", "exponent", "coefficient"]
    # q^1 coefficient a - 1 + 1/a sits at component 1, index 0
    assert ["1", "0", "-1", "1"] in rows
    assert ["1", "0", "0", "-1"] in rows
    assert ["1", "0", "1", "1"] in rows


def test_dissect_usage_errors(capsys):
    assert run_cli(capsys, "dissect", "--series", "euler", "--m", "0")[0] == 2
    assert run_cli(capsys, "dissect", "--series", "what", "--m", "2")[0] == 2


def test_coeffs_default_21(capsys):
    code, out, _ = run_cli(capsys, "coeffs")
    assert code == 0
    rows = payload_of(out)["rows"]
    assert len(rows) == 21
    assert rows[0]["coefficients"] == {"0": "1"}
    assert rows[1]["coefficients"] == {"-1": "1", "0": "-1", "1": "1"}
    assert rows[2]["coefficients"] == {"-2": "1", "2": "1"}


def test_coeffs_count_validated(capsys):
    assert run_cli(capsys, "coeffs", "--count", "0")[0] == 2


def test_coeffs_match_the_crank_table(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--count", "30")
    assert code == 0
    rows = [{int(e): int(c) for e, c in row["coefficients"].items()}
            for row in payload_of(out)["rows"]]
    table = partitions.stat_table("crank", 29)
    assert rows == [table.row(n) for n in range(30)]


@pytest.mark.parametrize("argv,message", [
    (("coeffs", "--count", "100000"), "--count must be <= 301: coefficient q^99999 is past "
                                      "the table cap 300"),
    (("dissect", "--series", "crank-gf", "--m", "5", "--order", "100000"),
     "order 100000 exceeds the table cap 300"),
    (("dissect", "--series", "crank-gf", "--m", "2", "--order", "301"),
     "order 301 exceeds the table cap 300"),
    (("dissect", "--series", "crank-gf", "--m", "2", "--order", "301", "--format", "csv"),
     "order 301 exceeds the table cap 300"),
])
def test_crank_series_cap_refused_before_any_work(capsys, monkeypatch, argv, message):
    def refuse(*args):
        raise AssertionError("work started before the cap refusal")

    monkeypatch.setattr(partitions, "build_stat_table", refuse)
    monkeypatch.setattr(partitions, "_columns", refuse)
    started = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - started < 1.0
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert memo._held == {}


@pytest.mark.parametrize("argv,message", [
    (("tables", "--kind", "p", "--n-max", "5001"), "n_max 5001 exceeds the order cap 5000"),
    (("tables", "--kind", "p", "--n-max", "40000", "--format", "csv"),
     "n_max 40000 exceeds the order cap 5000"),
    (("dissect", "--series", "partition-gf", "--m", "2", "--order", "5001"),
     "order 5001 exceeds the order cap 5000"),
    (("dissect", "--series", "euler", "--m", "7", "--order", "40000", "--format", "csv"),
     "order 40000 exceeds the order cap 5000"),
])
def test_count_rows_past_the_order_cap_refused_before_any_work(capsys, monkeypatch, argv,
                                                               message):
    def refuse(*args):
        raise AssertionError("work started before the cap refusal")

    monkeypatch.setattr(partitions, "partition_count", refuse)
    monkeypatch.setattr("qdissect.series.euler_product", refuse)
    monkeypatch.setattr(rows, "_render_rows", refuse)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert memo._held == {}


def test_count_rows_at_the_order_cap_run(capsys):
    code, out, _ = run_cli(capsys, "tables", "--kind", "p", "--n-max", "5000", "--format", "csv")
    assert code == 0
    assert out.endswith(f"\n5000,{partitions.partition_count(5000)}\n")
    code, out, _ = run_cli(capsys, "dissect", "--series", "euler", "--m", "5000", "--order",
                           "5000", "--format", "csv")
    assert code == 0
    # (q;q)_inf has q^k(3k-1)/2 for every k; k = -57 gives q^4902, with sign (-1)^k
    assert out.endswith("\n4999,0,0\n") and "\n4902,0,-1\n" in out


def test_coeffs_refusal_names_count(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("work started before the cap refusal")

    monkeypatch.setattr(partitions, "build_stat_table", refuse)
    monkeypatch.setattr(partitions, "_columns", refuse)
    code, out, err = run_cli(capsys, "coeffs", "--count", "302")
    assert (code, out, err) == (2, "", "error: --count must be <= 301: coefficient q^301 is "
                                       "past the table cap 300\n")
    assert memo._held == {}


def test_coeffs_largest_count_accepted(capsys, monkeypatch):
    builds = _table_builds(monkeypatch)
    code, out, _ = run_cli(capsys, "coeffs", "--count", "301")
    assert code == 0 and builds == [("crank", 300)]
    assert len(payload_of(out)["rows"]) == 301


def test_tables_modulo_folds_each_row_once(capsys, monkeypatch):
    calls = []
    original = partitions.StatTable.count_mod

    def counted(self, t, n):
        calls.append((t, n))
        return original(self, t, n)

    monkeypatch.setattr(partitions.StatTable, "count_mod", counted)
    code, out, _ = run_cli(capsys, "tables", "--kind", "crank", "--n-max", "16", "--modulo", "7")
    assert code == 0
    assert calls == [(7, n) for n in range(17)]
    table = partitions.stat_table("crank", 16)
    assert [row["classes"] for row in payload_of(out)["rows"]] == [
        {str(k): str(sum(c for m, c in table.row(n).items() if m % 7 == k)) for k in range(7)}
        for n in range(17)]


def test_equidistribution_builds_no_table_and_its_classes_once(capsys, monkeypatch):
    # no statistic table and no fold: each (statistic, m) builds its classes
    # once, and a request at a smaller order reads the held ones
    def refuse(*args):
        raise AssertionError("equidistribution built or folded a table")

    monkeypatch.setattr(partitions, "build_stat_table", refuse)
    monkeypatch.setattr(partitions.StatTable, "count_mod", refuse)
    builds = []
    columns = identities._columns
    monkeypatch.setattr(identities, "_columns",
                        lambda *args: builds.append(args) or columns(*args))
    for identity in ("equidist-crank-5", "equidist-rank-7"):
        for order in ("6", "3"):
            code, out, _ = run_cli(capsys, "verify", "--identity", identity, "--order", order)
            assert code == 0 and payload_of(out)["status"] == "pass"
    assert builds == [("crank", 34, 5), ("rank", 47, 7)]


@pytest.mark.parametrize("argv,bound", [
    (("dissect", "--series", "euler", "--order", "5", "--m", "100000"), "order + 1 = 6"),
    (("tables", "--kind", "crank", "--n-max", "20", "--modulo", "100000"),
     "2*n_max + 1 = 41"),
])
def test_output_size_bounds_refused_before_any_work(capsys, argv, bound):
    started = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert out == ""
    assert bound in err


def test_output_size_bounds_are_inclusive(capsys):
    code, out, _ = run_cli(capsys, "dissect", "--series", "euler", "--order", "5", "--m", "6")
    assert code == 0
    assert [c["coefficients"] for c in payload_of(out)["components"]] == [
        ["1"], ["-1"], ["-1"], ["0"], ["0"], ["1"]]
    code, out, _ = run_cli(capsys, "tables", "--kind", "crank", "--n-max", "3", "--modulo", "7")
    assert code == 0
    # the cranks -3, 0, 3 of n = 3 land in classes of their own
    assert payload_of(out)["rows"][3]["classes"] == {
        "0": "1", "1": "0", "2": "0", "3": "1", "4": "1", "5": "0", "6": "0"}


def test_output_byte_stable(capsys):
    argv = ("verify", "--identity", "dissection-3", "--order", "9")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second
    argv = ("tables", "--kind", "crank", "--n-max", "4", "--format", "csv")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


# sha256 of the exit code, a newline and stdout, recorded before the CLI got
# its own JSON writer: a byte that changes between commits fails here, which
# test_output_byte_stable (two runs in one process) cannot see
GOLDEN = [
    ("tables --kind p --n-max 12",
     "5237ac8a3c2d799f2c2d03f76a503375261f5b52b07eca2c7b2a0f34c0e88d88"),
    ("tables --kind p --n-max 12 --format csv",
     "5c886f537d0e05951fcd6b1c8f2756d6958846e4f0b92baab9e4490abce6981f"),
    ("tables --kind crank --n-max 8",
     "cc66dd14f552249239feeaaae095d341d0d3e303546716de1f2f54b4a4bd2a2d"),
    ("tables --kind crank --n-max 8 --format csv",
     "20411f8e92379b09865713e48a3fd6f5f9a5044082c6ce8fba36a528c2f101a8"),
    ("tables --kind rank --n-max 8",
     "14cb510dea69171f5d52249a66f70e346e35fe99a29e8ff831f01a11587ce61c"),
    ("tables --kind rank --n-max 8 --format csv",
     "dfb3a2b13eb7012b4f0f4c0bb1138152319e9b2561f1241f23091ca2077d4b64"),
    ("tables --kind crank --n-max 8 --modulo 5",
     "ce5559dfef080209aeafccf16dd63dbf9babe161c0a7ad503eade480667fca9a"),
    ("tables --kind rank --n-max 8 --modulo 7 --format csv",
     "a683638fbc59662282519a6be725e528e121e575ecc32d46e27318b7d3496e0c"),
    ("verify --identity dissection-5 --order 20 --n-root 2",
     "67a9f287497be14ca075381525b7175ddfdfe402b4d19ec51ce71ee038943244"),
    ("verify --identity dissection-5 --order 20 --n-root 2 --format csv",
     "bc9ab5c9310aa0149aa0bda4d03bc9d7dafdc8fc6eea99cf743b06b0b6773b80"),
    ("verify --identity crank-gf --order 12 --perturb-power 7",
     "a312a1ef5150fe8d3679e9ae2178ed478c1f639f781e65d541be9c4ce28774b9"),
    ("verify --identity crank-gf --order 12 --perturb-power 7 --format csv",
     "5f653d237e3715a59252857db7fddb54d8b9ec39f7dfaa06ca192ae9a524544b"),
    ("dissect --series crank-gf --m 3 --order 9",
     "c1cef8682ca9430f722a2dbaf7726a54f68ca0dfe6b9dc4ef3a7f92176763762"),
    ("dissect --series crank-gf --m 3 --order 9 --format csv",
     "ebe2ea6916e0411394a31d1f87626eae11f907e48b19e958410e75bb5e86721b"),
    ("dissect --series partition-gf --m 5 --order 24",
     "e5658cb0079a404219ed3e879d5ecf4d602dd728146deabd8fbefc8b9ce16486"),
    ("dissect --series partition-gf --m 5 --order 24 --format csv",
     "8c8d14dfd8958a88e5e30c3010d7bd18569e74ad63647cefab986a2d4cc47953"),
    ("coeffs --count 8",
     "5340a6d4d3a862ca40524e6e25f9b70324a1d62713600ad5e9c06fe340f29a23"),
    ("coeffs --count 8 --format csv",
     "399076f1bf2c11046225fb19393ef0eab3987682eda8001cc0c388569d9d0b70"),
    ("dissect --series crank-gf --m 1 --order 0",
     "deeecab00c5f54fe8e5328b2d3394a8a06077f491483e3ecdf058dfa0d9e87a9"),
    ("tables --kind rank --n-max 0",
     "aae163a23040a1a1e4bd7dc31e84c29901a507bde34530bcfc7487031cd13f2b"),
    ("verify --identity dissection-2 --order 20 --perturb-power 1",
     "c26498fb9ddda3cfe59ecadff8c6d9bb1297695ea430048787d372da495788e0"),
    ("verify --identity dissection-3 --order 21 --perturb-power 1 --format csv",
     "944f1ec41f6b41b3f4fe88dc13e74e358e6fc1116d8060ce5980545cfa3b8a10"),
    ("verify --identity dissection-5 --order 20 --n-root 3 --perturb-power 1",
     "464d33ece7d1d2163a41343b1b094c22029fb21317f841bf4fd66af6eda54914"),
    ("verify --identity dissection-5 --order 30 --n-root 4 --perturb-power 17 --format csv",
     "adce74902c76a561ec46090d08a33429d37c411969a3ae45ac8054e9510fbe6b"),
    ("verify --identity dissection-5 --order 25 --n-root 1 --perturb-power 11",
     "16aac262b138938028dc68a1a2953927ebb6bdbc9f486d3732e250d437b9b00d"),
    ("verify --identity dissection-5 --order 25 --n-root 1 --perturb-power 11 --format csv",
     "7dbe9cb9c70d7c551c59bf193b923da12351cef96f3380c39f278000ce49c5b2"),
    ("verify --identity dissection-5 --order 25 --n-root 2 --perturb-power 11",
     "55170f00667d7481b65fa673a34f2e977c228623fef6c2a80c4b8db720a4962f"),
    ("verify --identity dissection-5 --order 25 --n-root 2 --perturb-power 11 --format csv",
     "e032d72af6030e255a48238cf3e4d7a43a3748090942c634a1648d53d6d09ba8"),
    ("verify --identity component-4-vanishing --order 20",
     "e9763bbf07c6744c0647d4f21adbd5087bcabc5cb8f1b8318a4f891b40931980"),
    ("verify --identity rank-gf --order 12 --perturb-power 0",
     "1458ab272af493abe9840d7b7491c5c91b2f3f659b287e1850e9aaa4524dbecf"),
    # session-sized payloads: 16-digit counts and multi-digit negative exponents
    ("tables --kind p --n-max 300",
     "d584d5392adbc35adbadec27536fb0b9d0aafe0e7ba2f11ccb3adfda454922c8"),
    ("tables --kind p --n-max 200 --format csv",
     "a5d100e65c92093661381c9ccc8276417f70e5e0bab6abf0a333bda61d598ede"),
    ("tables --kind crank --n-max 20",
     "9c1ae27e491b9f7b44a8d7fdba274c482e8e237052942a2325ac271752ea3eae"),
    ("tables --kind rank --n-max 16 --modulo 7",
     "00485b4e46956278c7b2ac3f6a458652066792cd3a5b87bafc1e41f527145c61"),
    ("tables --kind crank --n-max 20 --modulo 5 --format csv",
     "ec819e4b9c7ded1413cc79a0d0bf6cf3e75803d243a970ec40e23ef3747a16f5"),
    ("dissect --series crank-gf --m 2 --order 30",
     "032e2325491fa9c257e33d92833ec7706ebf396f1234574c3235356665899f1f"),
    ("dissect --series crank-gf --m 5 --order 30 --format csv",
     "f2f26a7e846c0e2f2d0b9e3b6dc3f5bb108038fa4e64b6c834ae97a3ba5eaa73"),
    ("coeffs --count 30 --format csv",
     "eafb31ce319e56f649d24a61d95d5e5f721dcff0179d797f7853199922e97a48"),
    # table-cap payloads, recorded before the CLI held rendered rows
    ("tables --kind crank --n-max 300",
     "32f6dbf74e92e79efc4869a6548b52205f0330374e11468d27131d7453e04ccc"),
    ("tables --kind crank --n-max 300 --format csv",
     "7d396f1acef568de1cc15b3e20c74b97ec2009c10bc453027b3668de6b88fd74"),
    ("tables --kind rank --n-max 300 --format csv",
     "95e340cdd1a8aacbff9e8d22ebbb8a913b839324110d894ca7e4e475d8f7211a"),
    ("coeffs --count 301",
     "66375adce131028f59c88e2eae41543b3192e202be0a161245ce6e568ec2f1fe"),
    ("dissect --series crank-gf --m 7 --order 300",
     "ef97abba2d9f99db1ca3d15096382f525d057d55cf647454c84a2a661088c3d3"),
    # session-sized dissects, recorded while they still went through
    # TruncatedSeries.dissect
    ("dissect --series partition-gf --m 5 --order 100",
     "49d208d896688e8ef523f131c5685e4eb4335cca09d2c6436d43d2dd2f5057e1"),
    ("dissect --series partition-gf --m 7 --order 100 --format csv",
     "cc370803e1fba826f99758565a0769592e62573a8f85ecb568d61175ef562e7c"),
    ("dissect --series partition-gf --m 2 --order 60",
     "f2be31a33c681c5f7b05a6b74f8aeb678ba6e87159ee47bb2d7f482fb15fd1fe"),
    ("dissect --series crank-gf --m 2 --order 30 --format csv",
     "e5657dcd38e641f13e5f5de9175fa4800e80a7a69328a3163eaa21bc8d866594"),
    ("dissect --series crank-gf --m 31 --order 30 --format csv",
     "5febea15d947702a3d32548abdb66c8fb5b104a39d6bd89bec3fc8ba54dc8507"),
    ("dissect --series partition-gf --m 1 --order 0 --format csv",
     "70ecea3fbc370c7a54746729bbfec3429a7255dad7b8c3baf6a6b0968f2c5569"),
    # euler dissects, recorded while they still went through TruncatedSeries.dissect
    ("dissect --series euler --m 1 --order 0",
     "56ac9c874f88165a23597d4b4934857fbb5b7b82a3b2c9940ae37b55e6912c8f"),
    ("dissect --series euler --m 1 --order 0 --format csv",
     "70ecea3fbc370c7a54746729bbfec3429a7255dad7b8c3baf6a6b0968f2c5569"),
    ("dissect --series euler --m 1 --order 20",
     "2bee0a0c45e8bd1308f12ef0481855a26366674fe79fa807212ad89b0c9d672f"),
    ("dissect --series euler --m 1 --order 20 --format csv",
     "e971af5ba8fd6165f60f7f77679e2fcefd9f31f64437697dd38084b98d16e975"),
    ("dissect --series euler --m 2 --order 20",
     "86e4ccfe522df16eb809865e6455026bd3c269154883dee5b9540969959a9fc3"),
    ("dissect --series euler --m 2 --order 20 --format csv",
     "2371331fc971c9f1590bd046561e8319c7c30318e390e788f620daf2e4b7bbac"),
    ("dissect --series euler --m 5 --order 20",
     "a1c37f090238b34a5beab3398af521c5594f55f28ed47bc7232d86f02f1a9dbd"),
    ("dissect --series euler --m 5 --order 20 --format csv",
     "ed7e277c9469e2a09fe106ade4b52d5aec186f7e03cd102707c96d35c61e5769"),
    ("dissect --series euler --m 21 --order 20",
     "a1e11ae7d006d2d4b52dfc1304826d5e886d40025703ea1cead1f74bdae98f69"),
    ("dissect --series euler --m 21 --order 20 --format csv",
     "961a2e3422a89764c8e0d71a921b0ec98dd4d5c7311baddd47b71f75dad93c11"),
    ("dissect --series euler --m 1 --order 100",
     "4a85cdf853dee912f4ea405822a0c1a69aa583275c14ee5e1465953324dd4863"),
    ("dissect --series euler --m 1 --order 100 --format csv",
     "6d938dcdae343d1178fbda2130505323bb3b78101977a039ca36dd2789b2bb36"),
    ("dissect --series euler --m 2 --order 100",
     "7b13bc96d6a04e289bb7d746cc2804331491582d6f5443a9ed436d62f98b0d87"),
    ("dissect --series euler --m 2 --order 100 --format csv",
     "ececabda545600f62e647fb73d45f85255d85ecbae4849748e0c37938323bc8f"),
    ("dissect --series euler --m 5 --order 100",
     "ecd061a2dc62826f977d434d25ca6138b7eea7e4c5a6db1da9a06cf05303a490"),
    ("dissect --series euler --m 5 --order 100 --format csv",
     "e008c03ad0a8b57906efacd737d26345365cdf33d62e7f46de56fcb5ddfbdb67"),
    ("dissect --series euler --m 101 --order 100",
     "9442a1889ad3b193457c7c3abd88f764d35ec4bf237c7871bfd25f8edcbfdfb1"),
    ("dissect --series euler --m 101 --order 100 --format csv",
     "16362a59a34554a648ffb0ae9745909b0925cbc14861bbc843e32754b72db3ac"),
    ("dissect --series euler --m 1 --order 301",
     "e7544bb09079558a4ef958689048975631239ed674acd68cd81182e3468cf47b"),
    ("dissect --series euler --m 1 --order 301 --format csv",
     "f991b3cd60e054179935177930dc01065c4dfc350f67622fdb398cefb17de294"),
    ("dissect --series euler --m 2 --order 301",
     "14e64786480ea40b88c95b6ac2860a9854ef5dacb23367bce30ead69ed2c4b6e"),
    ("dissect --series euler --m 2 --order 301 --format csv",
     "a1fb6229754ae285bc34360a8ea399dbb6e4d36f566a4ca98da570d58d0c6914"),
    ("dissect --series euler --m 5 --order 301",
     "3cb354e8a890167c1114af6af42b4700362211b7a1cf2a144c131373a25ece44"),
    ("dissect --series euler --m 5 --order 301 --format csv",
     "8da37f7ea603c8593488fcac7ec26794054a5e51e14345fc783147abc5a0711b"),
    ("dissect --series euler --m 302 --order 301",
     "ac12ee0ecec40dd7daf0752e202dba82b441d63db8a5a79ac4f9759f567f223a"),
    ("dissect --series euler --m 302 --order 301 --format csv",
     "c2fbe108464188b28cc811625fe94b0e63dc3ba1cec2d1fe533838dd98f2cbc0"),
    # folds whose class keys sort differently as strings and as numbers
    # (10, 12, 41 classes) and the one-class fold, congruence, equidistribution
    # and recurrence checks, and a verify at its default order, recorded
    # before the CLI wrote folds and verify records from text
    ("tables --kind crank --n-max 20 --modulo 10",
     "c82a99e956e0c33f12e1deffe2e78b52246e47f1f1aab7b69bb1b0d39ec10481"),
    ("tables --kind crank --n-max 20 --modulo 10 --format csv",
     "9802c2190c044aa2bae85ffea5926ce221ab401388daf02751a9baedb6180a55"),
    ("tables --kind crank --n-max 20 --modulo 12",
     "cb40229779ad9eed0382a18b7707328f90eda489a76b95caddab72d4167ce62a"),
    ("tables --kind crank --n-max 20 --modulo 12 --format csv",
     "f51686a0fa5fc7d3248a9f31cffbe295e922482fb2135841b321152670f21597"),
    ("tables --kind crank --n-max 20 --modulo 41",
     "2bb33779d4c53b7d6523630c93d6001978e3b1856a5fc4600ec0d7d98a100370"),
    ("tables --kind crank --n-max 20 --modulo 41 --format csv",
     "bca8d4879f00978d67cd323c4ddbe39f03bb6d72ad0c6702b25d60489312e89a"),
    ("tables --kind crank --n-max 0 --modulo 1",
     "0d163383f64acb8e760f978f3d770d898a2372c2169eabad529d8f46a4f1f973"),
    ("tables --kind crank --n-max 0 --modulo 1 --format csv",
     "d4bebbb3bd04087807b8d9f93fbf953684e31db6a0b1c212dde9b7d47c9aa960"),
    ("tables --kind rank --n-max 20 --modulo 10",
     "ef9b515d64f9ee1b123b140fe8e560dfa7dd479704eb01a670c8fb62594ff265"),
    ("tables --kind rank --n-max 20 --modulo 10 --format csv",
     "3305560f2070b46551634f322c4c5a78e813e477b6e98092d9e630daa075c1ce"),
    ("tables --kind rank --n-max 20 --modulo 12",
     "d2642113f9257b1251a55e9d19c65706b3aa6f70e7d9779308d9cd4375762aa9"),
    ("tables --kind rank --n-max 20 --modulo 12 --format csv",
     "a5deb624e541575f9c2af241cf154c4d600188b86de87150b1bab4bddb230fc0"),
    ("tables --kind rank --n-max 20 --modulo 41",
     "3e9d4f75bca701675537edbbc44c1fc2646870193c71ec43a8ba70676cf5cbf7"),
    ("tables --kind rank --n-max 20 --modulo 41 --format csv",
     "21f0d944e2b1144f561ce37e2f8b5c4c64677a9b31f8cdcfccfc33b3b0bc4b67"),
    ("tables --kind rank --n-max 0 --modulo 1",
     "c5e0f683c1570b122034561665a9154e0ee2454d77b59f32cb3af4e4cb76552b"),
    ("tables --kind rank --n-max 0 --modulo 1 --format csv",
     "d4bebbb3bd04087807b8d9f93fbf953684e31db6a0b1c212dde9b7d47c9aa960"),
    ("verify --identity congruence-5-4 --order 20",
     "f2f011be68abbca3533eeb9971e937401e8d3615595102dafbedea8cf19e0e8e"),
    ("verify --identity congruence-7-5 --order 15 --format csv",
     "c00d0f3315d6bb8044d54e8a5353af85e7213eb846319ec3529b9dc2a0015cfe"),
    ("verify --identity congruence-11-6 --order 10",
     "e723a86ae14e6109424fae1de36acf4cf980329b69b452d93f207808763a208a"),
    ("verify --identity equidist-crank-5 --order 6",
     "ab6bb997ff107acf6a99f9f9d817caa104443ec36e579e5373eee76805094ab3"),
    ("verify --identity equidist-crank-7 --order 5 --format csv",
     "54f4138529352ba7ce0a59e63b6d0990dcbcad29d68803ba22e850453e17cea3"),
    ("verify --identity equidist-crank-11 --order 3",
     "554425e26dd861f517c48960af12246b4e51e4aab6bf077af0b74db449d93cfd"),
    ("verify --identity equidist-rank-5 --order 6",
     "145acc48eddc3aa9eb50131a0c8c0e300586364c4d3040afcc9988ed79de555a"),
    ("verify --identity equidist-rank-7 --order 5",
     "eee541699d335cf697f0a8f78f4673135315cdeff4ab310421904879bb6edaee"),
    ("verify --identity crank-columns --order 20",
     "df2778913aff96bcb1fa530818358261a3ce280336213a738c0f7371a3aa4830"),
    ("verify --identity crank-columns --order 20 --perturb-power 9",
     "90e945ea87a30940035c371420563af766cf4a2fad9dacd95302fa923f625b2c"),
    ("verify --identity rank-columns --order 20",
     "02e75385a87040dc0974845fd7e8056d9aaf9c66ea74dfe60faec433ff748573"),
    ("verify --identity rank-columns --order 20 --perturb-power 9 --format csv",
     "ceabb33be537c62bf1eb7e3e023bb97c02c75179e283cdf8bdfb3f0c9cf0e4b3"),
    ("verify --identity congruence-7-5",
     "339d0aa4d304fe8bc7180b6fb4609459f5a8044a5005a1af9c6ab4dff445a993"),
]


@pytest.mark.parametrize("request_line,digest", GOLDEN, ids=[r for r, _ in GOLDEN])
def test_output_bytes_pinned_across_commits(capsys, request_line, digest):
    code, out, _ = run_cli(capsys, *request_line.split())
    assert hashlib.sha256(f"{code}\n{out}".encode()).hexdigest() == digest


def test_output_bytes_pinned_when_rows_are_held(capsys):
    # every request again, now answered by slicing rows held at the cap
    for kind in ("p", "crank", "rank"):
        assert run_cli(capsys, "tables", "--kind", kind, "--n-max", "300")[0] == 0
    assert {key[1]: order for key, (order, _) in memo._held.items() if key[0] == "rows"} == {
        "p": 300, "crank": 300, "rank": 300}
    for request_line, digest in GOLDEN:
        code, out, _ = run_cli(capsys, *request_line.split())
        assert hashlib.sha256(f"{code}\n{out}".encode()).hexdigest() == digest, request_line


def test_crank_rows_build_no_ring_object(capsys, monkeypatch):
    # the crank rows are the table's rows, as the rank rows are: no request
    # reads them through crank_gf or wraps one as a Laurent polynomial
    def refuse(*args):
        raise AssertionError("a crank row went through the Laurent series")

    monkeypatch.setattr(series, "crank_gf", refuse)
    monkeypatch.setattr(LaurentPoly, "_raw", refuse)
    requests = [(r, d) for r, d in GOLDEN if r.startswith(("coeffs", "dissect --series crank-gf"))
                or r.startswith("tables --kind crank") and "--modulo" not in r]
    assert {r.split()[0] for r, _ in requests} == {"tables", "dissect", "coeffs"}
    assert {"--format csv" in r for r, _ in requests} == {False, True}
    for request_line, digest in requests:
        code, out, _ = run_cli(capsys, *request_line.split())
        assert hashlib.sha256(f"{code}\n{out}".encode()).hexdigest() == digest, request_line


# dissects past the table cap, recorded when the CLI still held their rows
PAST_THE_CAP = [
    ("dissect --series partition-gf --m 7 --order 1000",
     "c4f44cf1409fc858e4ca460c6af56c653f0b96347ac343c42c39cc663e95f57d"),
    ("dissect --series partition-gf --m 7 --order 1000 --format csv",
     "73865f1424e319a25c65549eda7d9f1b6b84645f29630c239c7f856895bd8e06"),
    ("dissect --series euler --m 7 --order 1000",
     "5b4cf3688190a5cc34d6eadc96bb5169f306411dd3dbe6e7c61bc908d74386f2"),
    ("dissect --series euler --m 7 --order 1000 --format csv",
     "6fb6d4c8d49ab680230e1c8a7264963144fff2326aee68d7b3583725e094f3ea"),
]


def test_rows_past_the_table_cap_are_held(capsys, monkeypatch):
    assert run_cli(capsys, "tables", "--kind", "p", "--n-max", "300")[0] == 0
    for request_line, digest in PAST_THE_CAP:
        code, out, _ = run_cli(capsys, *request_line.split())
        assert hashlib.sha256(f"{code}\n{out}".encode()).hexdigest() == digest, request_line
    assert {key: order for key, (order, _) in memo._held.items() if key[0] == "rows"} == {
        ("rows", "p"): 1000, ("rows", "euler"): 1000}

    # a later request at or below the held order renders nothing
    def refuse(*args, **kwargs):
        raise AssertionError("rows rendered again")

    monkeypatch.setattr(rows, "_render_rows", refuse)
    for request_line, _ in PAST_THE_CAP:
        assert run_cli(capsys, *request_line.replace("1000", "900").split())[0] == 0
        assert run_cli(capsys, *request_line.split())[0] == 0
    assert run_cli(capsys, "tables", "--kind", "p", "--n-max", "1000")[0] == 0


def _library_dissection(series, m, order, fmt):
    """What dissect should write, from the library's series, split by
    exponent residue by slicing, and the stdlib's json and csv writers."""
    crank = series == "crank-gf"
    build = {"crank-gf": crank_gf, "partition-gf": partition_gf, "euler": euler_product}
    coefficients = build[series](order).coefficients
    components = [coefficients[k::m] for k in range(m)]
    if fmt == "json":
        return json.dumps({
            "format_version": "1", "command": "dissect",
            "parameters": {"series": series, "m": m, "order": order, "format": fmt},
            "payload": {"components": [
                {"component": k, "coefficients": [
                    {str(e): str(c) for e, c in coefficient.terms.items()} if crank
                    else str(coefficient) for coefficient in comp]}
                for k, comp in enumerate(components)]},
        }, sort_keys=True, indent=2) + "\n"
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["component", "index"] + (["exponent"] if crank else []) + ["coefficient"])
    for k, comp in enumerate(components):
        for j, coefficient in enumerate(comp):
            writer.writerows([(k, j, e, c) for e, c in sorted(coefficient.terms.items())]
                             if crank else [(k, j, coefficient)])
    return out.getvalue()


@pytest.mark.parametrize("series", ["crank-gf", "partition-gf", "euler"])
def test_dissect_matches_the_library_dissection(capsys, monkeypatch, series):
    # every request runs twice: from a memo emptied at each order, and from
    # one that holds the p, crank and euler rows at the cap
    for kind in ("p", "crank"):
        assert run_cli(capsys, "tables", "--kind", kind, "--n-max", "300")[0] == 0
    assert run_cli(capsys, "dissect", "--series", "euler", "--m", "1", "--order", "300")[0] == 0
    held = memo._held
    for fmt in ("json", "csv"):
        for order in range(61):
            fresh = {}
            for m in range(1, order + 2):
                argv = ("dissect", "--series", series, "--m", str(m), "--order", str(order),
                        "--format", fmt)
                outputs = []
                for state in (fresh, held):
                    monkeypatch.setattr(memo, "_held", state)
                    outputs.append(run_cli(capsys, *argv)[:2])
                expected = (0, _library_dissection(series, m, order, fmt))
                assert outputs == [expected, expected], argv


JSON_TEXT = st.text(st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\n", "é",
                                     "\u2028", "\ud800", "\U0001d11e"])
                    | st.characters())
JSON_SCALARS = st.none() | st.integers(-10 ** 300, 10 ** 300) | JSON_TEXT


@settings(deadline=None)
@given(st.dictionaries(JSON_TEXT, JSON_SCALARS, min_size=1, max_size=6),
       st.lists(JSON_SCALARS, min_size=1, max_size=6), st.integers(0, 6))
@example({'"\\\x00\u00e9\ud800\U0001d11e': 10 ** 100, "-1": None, "10": "", "2": "\u2028"},
         [-1, "", None], 0)
@example({"-10": "2", "-1": "1", "0": "-1", "9": "1"}, ["1"], 5)
def test_object_and_list_writers_match_the_stdlib(obj, items, depth):
    pad = jsontext._PAD[depth]
    members = [(key, json.dumps(value)) for key, value in sorted(obj.items())]
    assert jsontext._object(members, pad) == json.dumps(obj, sort_keys=True, indent=2).replace(
        "\n", pad)
    assert jsontext._list_text([json.dumps(value) for value in items], pad) == json.dumps(
        items, indent=2).replace("\n", pad)


def test_json_payloads_equal_the_stdlib_encoding(capsys, monkeypatch):
    def check(request_line):
        out = run_cli(capsys, *request_line.split())[1]
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n", request_line

    requests = [r for r, _ in GOLDEN if "--format csv" not in r]
    for request_line in requests:
        monkeypatch.setattr(memo, "_held", {})
        check(request_line)
    # again from one memo that every request has been through
    monkeypatch.setattr(memo, "_held", {})
    for request_line in requests + requests:
        check(request_line)


def test_cli_never_reaches_the_stdlib_encoder(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("stdlib JSON encoder called")

    monkeypatch.setattr(json.encoder.JSONEncoder, "iterencode", refuse)
    monkeypatch.setattr(json, "dumps", refuse)
    for argv, expected in (
        (("tables", "--kind", "p", "--n-max", "6"), 0),
        (("tables", "--kind", "crank", "--n-max", "6", "--modulo", "3"), 0),
        (("verify", "--identity", "dissection-2", "--order", "10"), 0),
        (("verify", "--identity", "rank-gf", "--order", "10", "--perturb-power", "4"), 1),
        (("dissect", "--series", "crank-gf", "--m", "2", "--order", "6"), 0),
        (("dissect", "--series", "partition-gf", "--m", "3", "--order", "6"), 0),
        (("coeffs", "--count", "5"), 0),
    ):
        code, out, _ = run_cli(capsys, *argv)
        assert code == expected
        assert out.startswith('{\n  "command": ') and out.endswith("\n}\n")


@pytest.mark.parametrize("argv", [
    ("tables", "--kind", "crank", "--n-max", "3"),
    ("tables", "--kind", "crank", "--n-max", "20"),
    ("tables", "--kind", "rank", "--n-max", "20"),
    ("tables", "--kind", "crank", "--n-max", "20", "--modulo", "5"),
], ids=" ".join)
def test_json_and_csv_content_equivalent(capsys, argv):
    _, jout, _ = run_cli(capsys, *argv)
    _, cout, _ = run_cli(capsys, *argv, "--format", "csv")
    field, key, value = (("classes", "residue", "count") if "--modulo" in argv
                         else ("coefficients", "exponent", "coefficient"))
    from_json = {
        (int(row["n"]), int(m)): int(c)
        for row in payload_of(jout)["rows"]
        for m, c in row[field].items()
    }
    reader = csv.reader(io.StringIO(cout))
    assert next(reader) == ["n", key, value]
    from_csv = {(int(n), int(m)): int(c) for n, m, c in reader}
    assert from_json == from_csv


def test_exit_code_contract_covers_all_classes(capsys):
    assert run_cli(capsys, "verify", "--identity", "dissection-5", "--order", "10")[0] == 0
    assert run_cli(capsys, "verify", "--identity", "dissection-5", "--order", "10",
                   "--perturb-power", "2")[0] == 1
    assert run_cli(capsys, "verify", "--identity", "dissection-5", "--order", "11")[0] == 2


def test_import_loads_no_process_machinery():
    # every CLI call is a fresh process, so what the import pulls in is paid
    # on each of them; argparse (with gettext) is loaded only for help and
    # usage errors, and the JSON writer needs no part of the json package
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = ("import sys, qdissect.cli\n"
             "print(sorted(m for m in ('multiprocessing', 'concurrent.futures', "
             "'fractions', 'decimal', 'dataclasses', 'inspect', 'csv', "
             "'argparse', 'gettext', 'json') if m in sys.modules))\n"
             "code = qdissect.cli.main(['verify', '--identity', 'congruence-5-4', "
             "'--order', '10'])\n"
             "print(code, sorted(m for m in ('argparse', 'gettext', 'json') "
             "if m in sys.modules))\n")
    lines = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                           text=True, check=True, timeout=60).stdout.splitlines()
    assert lines[0] == "[]"
    assert lines[-1] == "0 []"
    # an importer may serve many requests, so the import loads every module
    # a request can reach and no request loads one: every module but ring,
    # which no request reaches; the package alone loads none
    probe = ("import sys, {}\n"
             "print(sorted(m for m in sys.modules if m.startswith('qdissect.')))\n")
    reached = sorted(f"qdissect.{path.stem}" for path in (src / "qdissect").glob("[!_]*.py")
                     if path.stem != "ring")
    for module, loaded in (("qdissect.cli", reached), ("qdissect", [])):
        out = subprocess.run([sys.executable, "-c", probe.format(module)], env=env,
                             capture_output=True, text=True, check=True, timeout=60).stdout
        assert out == f"{loaded}\n", module
        assert "qdissect.ring" not in out, module


# one request of every identity at its default order (and perturbed where
# the identity allows it), of every row command, and one usage error, with
# the exit code each gives; the probe below serves them all in one importer
IMPORTER_PROBE = """\
import contextlib, io, json, sys
from qdissect.cli import IDENTITIES, main
requests = []
for name, (default_order, _, _, options) in IDENTITIES.items():
    # no order of an identity without a default is valid: a usage error
    requests.append((['verify', '--identity', name], 2 if default_order is None else 0))
    if 'perturb_power' in options:
        requests.append((['verify', '--identity', name, '--perturb-power', '2'], 1))
requests += [(['tables', '--kind', kind, '--n-max', '12'], 0) for kind in ('p', 'crank', 'rank')]
requests += [(['tables', '--kind', 'crank', '--n-max', '12', '--modulo', '5', '--format', 'csv'],
              0)]
requests += [(['dissect', '--series', series, '--m', '5', '--order', '30'], 0)
             for series in ('partition-gf', 'crank-gf', 'euler')]
requests += [(['coeffs', '--count', '8'], 0),
             (['verify', '--identity', 'crank-gf', '--order', 'ten'], 2)]
for argv, code in requests:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        print(json.dumps([argv, code, main(argv)]), file=sys.__stdout__)
print('qdissect.ring' in sys.modules)
import qdissect
print(qdissect.PHI5 is qdissect.ring.PHI5, qdissect.ring.Modulus.__name__)
from qdissect import LaurentPoly
print(LaurentPoly is qdissect.ring.LaurentPoly)
"""


def test_no_request_in_an_importer_loads_the_ring_module():
    # no request reaches qdissect.ring, so an importer does not compile it,
    # and a request served later, while it is timed, would not
    # compile it either; a caller still reaches it on first access
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    *served, loaded, by_name, imported = subprocess.run(
        [sys.executable, "-c", IMPORTER_PROBE], env=env, capture_output=True, text=True,
        check=True, timeout=120).stdout.splitlines()
    served = [json.loads(line) for line in served]
    perturbable = sum("perturb_power" in options for *_, options in IDENTITIES.values())
    assert len(served) == len(IDENTITIES) + perturbable + 9
    assert all(code == expected for _, expected, code in served), served
    assert loaded == "False"
    assert (by_name, imported) == ("True Modulus", "True")


# what the library loads besides the package, whatever the request
LIBRARY = ["qdissect.jsontext", "qdissect.memo", "qdissect.partitions"]
# what every verify request loads besides; no row command loads it
VERIFY = ["qdissect.identities"]
# a dissection's route: both sides, and a failure witness at any root, in
# integer coordinates; no dissection request loads qdissect.ring
DISSECTION = VERIFY + ["qdissect.dissections", "qdissect.series"]
# the row commands' module, loaded by no verify request
ROWS = ["qdissect.rows"]


@pytest.mark.parametrize("argv,more", [
    (["verify", "--identity", "crank-gf", "--order", "10"], VERIFY + ["qdissect.products"]),
    (["verify", "--identity", "equidist-crank-5", "--order", "6"], VERIFY),
    (["verify", "--identity", "congruence-5-4", "--order", "10"], VERIFY),
    (["verify", "--identity", "crank-gf", "--order", "10", "--perturb-power", "3"],
     VERIFY + ["qdissect.products"]),
    (["verify", "--identity", "rank-gf", "--order", "10", "--perturb-power", "3"],
     VERIFY + ["qdissect.products"]),
    (["verify", "--identity", "crank-columns", "--order", "10"],
     VERIFY + ["qdissect.recurrences"]),
    (["verify", "--identity", "dissection-2", "--order", "10"], DISSECTION),
    (["verify", "--identity", "dissection-5", "--order", "10", "--n-root", "3"], DISSECTION),
    (["verify", "--identity", "dissection-2", "--order", "10", "--perturb-power", "3"],
     DISSECTION),
    (["verify", "--identity", "dissection-5", "--order", "10", "--perturb-power", "3"],
     DISSECTION),
    (["verify", "--identity", "dissection-5", "--order", "10", "--n-root", "3",
      "--perturb-power", "3"], DISSECTION),
    (["verify", "--identity", "component-4-vanishing", "--order", "10"],
     DISSECTION + ["qdissect.products"]),
    (["tables", "--kind", "p", "--n-max", "10"], ROWS),
    (["tables", "--kind", "rank", "--n-max", "12", "--modulo", "5"], ROWS),
    (["dissect", "--series", "partition-gf", "--m", "2", "--order", "10"], ROWS),
    (["dissect", "--series", "euler", "--m", "2", "--order", "10"], ROWS + ["qdissect.series"]),
    (["tables", "--kind", "crank", "--n-max", "8"], ROWS),
    (["dissect", "--series", "crank-gf", "--m", "2", "--order", "10"], ROWS),
    (["coeffs", "--count", "5"], ROWS),
])
def test_a_one_shot_process_loads_only_what_its_request_runs(argv, more):
    # python -m qdissect.cli runs the module as __main__, as run_module does
    # here, and the installed qdissect script runs it the same way through
    # qdissect._script; without cached bytecode a process compiles every
    # module it loads
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = 1 if "--perturb-power" in argv else 0
    outs = []
    for launch in ("import runpy; runpy.run_module('qdissect.cli', run_name='__main__', "
                   "alter_sys=True)",
                   "from qdissect import _script; _script()"):
        probe = ("import sys\n"
                 f"sys.argv = ['qdissect', *{argv!r}]\n"
                 "try:\n"
                 f"    {launch}\n"
                 "except SystemExit as exit:\n"
                 "    print(exit.code, sorted(m for m in sys.modules\n"
                 "                            if m.startswith('qdissect.')), file=sys.stderr)\n")
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, check=True, timeout=60)
        assert done.stderr.splitlines()[-1] == f"{code} {sorted(LIBRARY + more)}", launch
        outs.append(done.stdout)
    assert outs[0] and outs[0] == outs[1]


def test_closed_stdout_exits_141_quietly():
    src = Path(__file__).resolve().parents[1] / "src"
    # stdout block-buffered, as it is for a pipe by default
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(src)
    argv = [sys.executable, "-m", "qdissect.cli", "tables", "--kind", "p", "--format", "csv",
            "--n-max"]
    # the reader leaves after one line, as `| head -1` does; the CSV to
    # n = 3000 (about 129 kB) outgrows the pipe's buffer, so a write fails
    with subprocess.Popen(argv + ["3000"], env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"n,count\n"
        proc.stdout.close()
        assert proc.stderr.read() == b""
        assert proc.wait(timeout=60) == 141
    # the reader is gone before the CLI starts; the short CSV stays in the
    # stdout buffer, so the final flush is what fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(argv + ["3"], env=env, stdout=write_end,
                              stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write_end)
    assert done.stderr == b""
    assert done.returncode == 141


def _timeless(err):
    # verify's stderr line ends in its own wall time, which no two runs share
    return re.sub(r", \d+\.\d\ds\)", ", <elapsed>)", err)


@pytest.mark.parametrize("argv,code", [
    (["verify", "--identity", "dissection-5", "--order", "10"], 0),
    (["verify", "--identity", "dissection-5", "--order", "10", "--perturb-power", "2"], 1),
    (["verify", "--identity", "dissection-5", "--order", "11"], 2),
    (["tables", "--kind", "crank", "--n-max", "12", "--format", "csv"], 0),
    # one request per route, so each lazily loaded module runs in a one-shot
    # process: a verify request loads qdissect.identities, a table check
    # qdissect.products, a dissection qdissect.dissections, the row commands
    # qdissect.rows
    (["verify", "--identity", "crank-gf", "--order", "12", "--perturb-power", "5"], 1),
    (["verify", "--identity", "rank-gf", "--order", "12"], 0),
    (["verify", "--identity", "equidist-rank-7", "--order", "4"], 0),
    (["verify", "--identity", "dissection-2", "--order", "20"], 0),
    (["verify", "--identity", "component-4-vanishing", "--order", "20", "--format", "csv"], 0),
    (["tables", "--kind", "p", "--n-max", "30"], 0),
    (["tables", "--kind", "crank", "--n-max", "12", "--modulo", "5"], 0),
    (["dissect", "--series", "euler", "--m", "3", "--order", "30", "--format", "csv"], 0),
    (["coeffs", "--count", "8"], 0),
    (["verify", "--identity", "crank-gf", "--order", "ten"], 2),
])
def test_process_entry_writes_what_main_writes(capsys, argv, code):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-m", "qdissect.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    expected = run_cli(capsys, *argv)
    assert expected[0] == code
    assert (done.returncode, done.stdout, _timeless(done.stderr)) == (
        code, expected[1], _timeless(expected[2]))


# runpy runs a second copy of the module, which it warns about
@pytest.mark.filterwarnings("ignore:'qdissect.cli' found in sys.modules:RuntimeWarning")
def test_module_run_as_a_script_enters_through_the_freeze(capsys, monkeypatch):
    argv = ["coeffs", "--count", "3", "--format", "csv"]
    expected = run_cli(capsys, *argv)[:2]
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(cli, "main", lambda argv=None: calls.append("main") or 1)
    assert cli.entry() == 1
    assert calls == ["freeze", "main"]
    # a fresh copy of the module, whose main is not the one patched above
    monkeypatch.setattr(sys, "argv", ["qdissect", *argv])
    with pytest.raises(SystemExit) as exited:
        runpy.run_module("qdissect.cli", run_name="__main__")
    assert calls == ["freeze", "main", "freeze"]
    assert (exited.value.code, capsys.readouterr().out) == expected


def test_main_leaves_the_collector_alone(capsys):
    # perfbench's child and the tests serve many requests in one process;
    # only the process entry may freeze
    frozen = gc.get_freeze_count()
    for argv in (["verify", "--identity", "crank-gf", "--order", "10"],
                 ["tables", "--kind", "p", "--n-max", "30"],
                 ["dissect", "--series", "euler", "--m", "2", "--order", "0", "--format", "csv"],
                 ["coeffs", "--count", "0"]):
        run_cli(capsys, *argv)
    assert gc.get_freeze_count() == frozen


def test_installed_script_is_the_process_entry():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["qdissect"]
    # the script imports the package alone, then runs qdissect.cli as
    # __main__, which calls entry(), as python -m qdissect.cli does (the
    # load-map test runs it); an import of qdissect.cli would load every
    # module a request can reach
    assert target == "qdissect:_script"


# sha256 of the exit code, stdout and stderr of requests only argparse
# answers, with COLUMNS=80, recorded before well-formed requests stopped
# going through argparse.  argparse's wording changes between Python
# versions, so the digests hold for the CPython they were recorded with.
# The three that list the identities were re-recorded when crank-columns and
# rank-columns joined the list; nothing else in them changed.
USAGE_GOLDEN = [
    ("--help", "a0c2ae60d3f24e63cdf9866cd0d4a129c1ef9ac8107f9c065146337b390f790c"),
    ("verify --help", "18869b620b0f2598914005327192fe9a1c3da683ac5e2f05329f34e3f43779f3"),
    ("verify --identity no-such-thing",
     "b870df6d524a41cdfe43ba29ba1a125c06aac01401fcee0b526cfaf3a7aff560"),
    ("tables --kind p", "e88ffaa274abc9c2d1beba66f6e58f9d92c693577f9d70abd4cc44a3696fafe3"),
    ("tables --kind p --n-max x",
     "f059484fbdab8e556f3cb66b6a2084ec577e2ce2009fdb513372153bb25b99c2"),
    ("verify --identity dissection-5 --n-root 7",
     "1998dc05cdec685cb5d0f324e489b12ea774abcdfacf02449515f28725065c9e"),
    ("tables --kind p --n-max 3 stray",
     "0b27f4c24381ee005e5e55c4abb389d0b9c41ef6c82ee2c229623503ce8781a3"),
    ("", "9674f2b2ee0ee1e1617293661ceddd2c3a1469b246c7061b9be827b72edebb59"),
]


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="argparse text recorded with CPython 3.11")
@pytest.mark.parametrize("request_line,digest", USAGE_GOLDEN,
                         ids=[r or "no-arguments" for r, _ in USAGE_GOLDEN])
def test_help_and_usage_errors_pinned_across_commits(capsys, monkeypatch,
                                                     request_line, digest):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run_cli(capsys, *request_line.split())
    assert hashlib.sha256(f"{code}\n{out}\n{err}".encode()).hexdigest() == digest


@pytest.mark.parametrize("request_line", [r for r, _ in GOLDEN])
def test_well_formed_requests_parse_without_argparse(request_line):
    argv = request_line.split()
    fast = cli._fast_args(argv)
    assert fast is not None
    assert vars(fast) == vars(cli.build_parser().parse_args(argv))


FLAGS = sorted({flag for _, _, options in cli._COMMANDS.values() for flag in options})
ODD_FLAGS = ["--ord", "--n", "--n-m", "--perturb", "--ser", "--for", "--id", "-h", "--help"]
ODD_VALUES = ["-1", "-3", "-1_0", "x", "", " 5", "+5", "1_0", "\u0665", "2.5", "7", "-h",
              "--", "nope", "100000"]


@st.composite
def argvs(draw):
    """Well-formed requests, each part of which may be spoilt: abbreviated or
    foreign flags, --flag=value, repeats, help, stray tokens, and negative,
    non-numeric or out-of-choice values."""
    def spoilt():
        return draw(st.integers(0, 7)) == 7

    command = draw(st.sampled_from(sorted(cli._COMMANDS))) if not spoilt() else "-h"
    options = cli._COMMANDS.get(command, (None, None, {}))[2]
    argv = [command]
    for flag in draw(st.permutations(sorted(options))):
        if not options[flag].get("required") and draw(st.booleans()):
            continue
        choices = options[flag].get("choices")
        value = draw(st.sampled_from([str(c) for c in choices]) if choices
                     else st.integers(0, 30).map(str))
        if spoilt():
            value = draw(st.sampled_from(ODD_VALUES))
        if spoilt():
            argv += [flag, draw(st.sampled_from(ODD_VALUES))]      # a repeat
        if spoilt():
            flag = draw(st.sampled_from(FLAGS + ODD_FLAGS))
        argv += [f"{flag}={value}"] if spoilt() else [flag, value]
    while spoilt():
        token = draw(st.sampled_from(FLAGS + ODD_FLAGS + ODD_VALUES + ["stray"]))
        argv.insert(draw(st.integers(0, len(argv))), token)
    return argv


@settings(deadline=None, max_examples=300)
@given(argvs())
@example(["verify", "--identity", "dissection-5", "--order", "10", "--n-root", "2"])
@example(["verify", "--identity", "crank-gf", "--perturb-power", "-1"])
@example(["verify", "--identity", "crank-gf", "--identity", "rank-gf"])
@example(["dissect", "--series", "euler", "--m", "x", "--m", "2"])
@example(["tables", "--kind", "p", "--n-max", "-1_0"])
@example(["dissect", "--series", "euler", "--m", "2", "--ord", "5"])
@example(["coeffs", "--count=5"])
@example(["tables", "--kind", "p", "--n-max", "\u0665"])
def test_fast_args_agree_with_argparse(argv):
    fast = cli._fast_args(argv)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            expected = vars(cli.build_parser().parse_args(argv))
    except SystemExit:
        expected = None                 # help, or a usage error
    if fast is not None:
        assert vars(fast) == expected
