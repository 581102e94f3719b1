import ast
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

from qdissect.cli import IDENTITIES
from qdissect.identities import EQUIDISTRIBUTION_MODULI, RESIDUE_FOR_MODULUS

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_verify_all_quick():
    result = run_script("verify_all.py")
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.rstrip().endswith("0 failure(s)")


def test_registry_equidistribution_orders_and_refusals():
    # each equidistribution check runs by default at the largest order whose
    # n = m*order + r stays <= 2000, and verify_all.py skips exactly the
    # refused ones
    spec = importlib.util.spec_from_file_location("verify_all", ROOT / "scripts" / "verify_all.py")
    verify_all = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(verify_all)
    equidist = {}
    for name in IDENTITIES:
        if name.startswith("equidist-"):
            _, statistic, m = name.split("-")
            equidist[name] = statistic, int(m)
    assert verify_all.REFUSED == {name for name, (statistic, m) in equidist.items()
                                  if m not in EQUIDISTRIBUTION_MODULI[statistic]}
    for name, (statistic, m) in equidist.items():
        if name not in verify_all.REFUSED:
            assert IDENTITIES[name][0] == (2000 - RESIDUE_FOR_MODULUS[m]) // m, name
    assert len(equidist) - len(verify_all.REFUSED) == 5


def test_request_nodes_reports_what_a_one_shot_request_compiles():
    def nodes(stem):
        source = (ROOT / "src" / "qdissect" / f"{stem}.py").read_text()
        return sum(1 for _ in ast.walk(ast.parse(source)))

    result = run_script("request_nodes.py", "tables --kind p --n-max 10",
                        "verify --identity crank-gf --order ten")
    assert result.returncode == 0, result.stderr
    *requests, importer, whole = result.stdout.splitlines()
    found = [re.fullmatch(r"(.*): exit (\d+), ([\d,]+) nodes \((.*)\)", line).groups()
             for line in requests]
    # a row command loads no verifier; a usage error loads neither kind
    assert [(request, code, modules) for request, code, _, modules in found] == [
        ("tables --kind p --n-max 10", "0", "qdissect, cli, jsontext, memo, partitions, rows"),
        ("verify --identity crank-gf --order ten", "2",
         "qdissect, cli, jsontext, memo, partitions")]
    for _, _, count, modules in found:
        stems = ["__init__" if m == "qdissect" else m for m in modules.split(", ")]
        assert int(count.replace(",", "")) == sum(map(nodes, stems))
    # an importer compiles every module but ring, which no request reaches
    stems = sorted(path.stem for path in (ROOT / "src" / "qdissect").glob("*.py")
                   if path.stem != "ring")
    modules = ", ".join("qdissect" if stem == "__init__" else stem for stem in stems)
    assert importer == f"import qdissect.cli: {sum(map(nodes, stems)):,} nodes ({modules})"
    package = sum(nodes(path.stem) for path in (ROOT / "src" / "qdissect").glob("*.py"))
    assert whole == f"whole package: {package:,} nodes"
