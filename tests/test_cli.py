import csv
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from qdissect import cli, partitions
from qdissect.cli import IDENTITIES, main
from qdissect.series import crank_gf

# a small valid order for every identity that accepts --perturb-power
PERTURBABLE = {"crank-gf": 10, "rank-gf": 10, "dissection-2": 10,
               "dissection-3": 9, "dissection-5": 10}


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
    assert run_cli(capsys, "tables", "--kind", "crank", "--n-max", "61")[0] == 2
    assert run_cli(capsys, "tables", "--kind", "p", "--n-max", "5", "--modulo", "5")[0] == 2
    assert run_cli(capsys, "tables", "--kind", "nope", "--n-max", "5")[0] == 2
    assert run_cli(capsys, "tables", "--kind", "crank", "--n-max", "3", "--modulo", "0")[0] == 2


def test_tables_reuse_the_verifiers_cached_table(capsys, monkeypatch):
    builds = []
    original = partitions.build_stat_table

    def counted(kind, n_max):
        builds.append((kind, n_max))
        return original(kind, n_max)

    monkeypatch.setattr(partitions, "build_stat_table", counted)
    assert run_cli(capsys, "verify", "--identity", "crank-gf", "--order", "40")[0] == 0
    assert builds == [("crank", 40)]
    code, out, _ = run_cli(capsys, "tables", "--kind", "crank", "--n-max", "20")
    assert code == 0
    assert len(payload_of(out)["rows"]) == 21
    assert builds == [("crank", 40)]


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
    assert run_cli(capsys, "verify", "--identity", "equidist-rank-11")[0] == 2
    assert run_cli(capsys, "verify", "--identity", "no-such-thing")[0] == 2
    assert run_cli(capsys, "verify", "--identity", "congruence-5-4",
                   "--n-root", "2")[0] == 2
    assert run_cli(capsys, "verify", "--identity", "congruence-5-4",
                   "--perturb-power", "1")[0] == 2
    assert run_cli(capsys, "verify", "--identity", "dissection-2",
                   "--order", "7")[0] == 2


def test_perturbable_identities_listed():
    assert {name for name, (_, allows, _) in IDENTITIES.items() if allows} == set(PERTURBABLE)


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


@pytest.mark.parametrize("identity,order", [("crank-gf", 75), ("rank-gf", 61),
                                            ("equidist-crank-11", 10)])
def test_enumeration_cap_refused_before_any_work(capsys, identity, order):
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "--identity", identity, "--order", str(order))
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert out == ""
    assert "enumeration cap" in err


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
            assert {int(e): int(c) for e, c in coeffs.items()} == expected.coefficient(n).terms


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


@pytest.mark.parametrize("argv", [
    ("coeffs", "--count", "100000"),
    ("dissect", "--series", "crank-gf", "--m", "5", "--order", "100000"),
])
def test_laurent_crank_cap_refused_before_any_work(capsys, argv):
    started = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert out == ""
    assert "Laurent crank cap" in err


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


def test_parser_built_once_per_process(capsys, monkeypatch):
    builds = []
    original = cli.build_parser

    def counted():
        builds.append(1)
        return original()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counted)
    assert run_cli(capsys, "verify", "--identity", "congruence-5-4", "--order", "10")[0] == 0
    code, out, err = run_cli(capsys, "verify", "--identity", "no-such-thing")
    assert code == 2
    assert out == ""
    assert "invalid choice" in err
    argv = ("tables", "--kind", "crank", "--n-max", "10", "--format", "csv")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert builds == [1]
    # the reused parser answers as a fresh process does
    src = Path(__file__).resolve().parents[1] / "src"
    fresh = subprocess.run([sys.executable, "-m", "qdissect.cli", *argv],
                           env={**os.environ, "PYTHONPATH": str(src)},
                           capture_output=True, text=True, check=True, timeout=60)
    assert out == fresh.stdout
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert out.startswith("usage: qdissect")
    assert builds == [1]


def test_json_and_csv_content_equivalent(capsys):
    _, jout, _ = run_cli(capsys, "tables", "--kind", "crank", "--n-max", "3")
    _, cout, _ = run_cli(capsys, "tables", "--kind", "crank", "--n-max", "3",
                         "--format", "csv")
    from_json = {
        (int(row["n"]), int(e)): int(c)
        for row in payload_of(jout)["rows"]
        for e, c in row["coefficients"].items()
    }
    reader = csv.DictReader(io.StringIO(cout))
    from_csv = {(int(r["n"]), int(r["exponent"])): int(r["coefficient"]) for r in reader}
    assert from_json == from_csv


def test_exit_code_contract_covers_all_classes(capsys):
    assert run_cli(capsys, "verify", "--identity", "dissection-5", "--order", "10")[0] == 0
    assert run_cli(capsys, "verify", "--identity", "dissection-5", "--order", "10",
                   "--perturb-power", "2")[0] == 1
    assert run_cli(capsys, "verify", "--identity", "dissection-5", "--order", "11")[0] == 2


def test_import_loads_no_process_machinery():
    # every CLI call is a fresh process, so what the import pulls in is paid
    # on each of them
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = ("import sys, qdissect.cli; "
             "print(sorted(m for m in ('multiprocessing', 'concurrent.futures', "
             "'fractions', 'decimal', 'dataclasses', 'inspect', 'csv') "
             "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == "[]"
