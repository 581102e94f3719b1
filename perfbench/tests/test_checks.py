"""The benchmark's output checker must count corrupted results as failed operations.

Run from the root of a checkout:  python3 -m pytest perfbench/tests
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from checks import Op, Tally, check, partition_numbers  # noqa: E402

P_0_TO_10 = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]

TABLES_OP = Op(("tables", "--kind", "p", "--n-max", "10"))
VERIFY_OP = Op(("verify", "--identity", "dissection-2", "--order", "20"), "pass")
PERTURBED_OP = Op(("verify", "--identity", "dissection-2", "--order", "20",
                   "--perturb-power", "7"), "fail", 7)
USAGE_OP = Op(("verify", "--identity", "dissection-2", "--order", "21"), "usage")


def envelope(command, parameters, payload):
    return json.dumps({"format_version": "1", "command": command,
                       "parameters": parameters, "payload": payload}, indent=2) + "\n"


def tables_stdout(counts):
    return envelope("tables", {"kind": "p", "n_max": 10, "modulo": None, "format": "json"},
                    {"rows": [{"n": n, "count": str(c)} for n, c in enumerate(counts)]})


def verify_stdout(status, witness_power=None):
    witness = None if witness_power is None else {
        "power": witness_power, "expected": "1", "actual": "2", "ring": "quotient(a^4 + 1)"}
    return envelope("verify", {"identity": "dissection-2", "order": 20, "format": "json"},
                    {"identity": "dissection-2", "order": 20, "status": status,
                     "failure_witness": witness})


def tally_of(results):
    tally = Tally()
    for op, code, stdout in results:
        tally.add(op, code, stdout)
    return tally


def test_own_partition_numbers():
    assert list(partition_numbers(10)) == P_0_TO_10
    assert partition_numbers(100)[100] == 190569292


def test_correct_results_pass():
    tally = tally_of([
        (TABLES_OP, 0, tables_stdout(P_0_TO_10)),
        (VERIFY_OP, 0, verify_stdout("pass")),
        (PERTURBED_OP, 1, verify_stdout("fail", 7)),
        (USAGE_OP, 2, ""),
    ])
    assert (tally.attempted, tally.failed, tally.problems) == (4, 0, [])


def test_each_corruption_is_a_failed_operation():
    corrupted_digit = P_0_TO_10[:9] + [31] + P_0_TO_10[10:]
    tally = tally_of([
        (TABLES_OP, 0, tables_stdout(corrupted_digit)),
        (VERIFY_OP, 1, verify_stdout("pass")),                 # flipped exit code
        (PERTURBED_OP, 1, verify_stdout("fail", 8)),           # witness at the wrong power
        (USAGE_OP, 2, "{}\n"),                                 # usage error with stdout
    ])
    assert (tally.attempted, tally.failed) == (4, 4)
    assert len(tally.problems) == 4


def test_row_checks_catch_asymmetry_and_wrong_sums():
    op = Op(("tables", "--kind", "crank", "--n-max", "3", "--format", "csv"))
    good = "n,exponent,coefficient\n0,0,1\n1,-1,1\n1,0,-1\n1,1,1\n" \
           "2,-2,1\n2,2,1\n3,-3,1\n3,0,1\n3,3,1\n"
    assert check(op, 0, good) == []
    assert check(op, 0, good.replace("3,0,1", "3,1,1"))        # not symmetric in m
    assert check(op, 0, good.replace("3,0,1", "3,0,2"))        # row no longer sums to p(3)


def test_known_defect_is_counted_apart():
    op = Op(("verify", "--identity", "crank-gf", "--order", "10", "--perturb-power", "50"),
            "usage", defect="out-of-range perturbation exits 0")
    tally = tally_of([(op, 0, verify_stdout("pass"))])
    assert (tally.attempted, tally.failed, tally.known_defects) == (1, 0, 1)
    assert tally.defects_seen == {"out-of-range perturbation exits 0": 1}
