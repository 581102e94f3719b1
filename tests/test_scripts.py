import ast
import os
import re
import subprocess
import sys
from pathlib import Path

from qdissect.cli import IDENTITIES
from qdissect.identities import EQUIDISTRIBUTION_MODULI, FIFTH_ROOTS, RESIDUE_FOR_MODULUS

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_verify_all_quick():
    # one line per run: every identity with a default order, at each fifth
    # root for one that takes n_root, then the total
    result = run_script("verify_all.py")
    assert result.returncode == 0, result.stdout + result.stderr
    runs = sum(len(FIFTH_ROOTS) if "n_root" in options else 1
               for default_order, *_, options in IDENTITIES.values() if default_order is not None)
    lines = result.stdout.splitlines()
    assert len(lines) == runs + 1
    assert lines[-1].endswith("0 failure(s)")


def test_registry_equidistribution_orders_and_refusals():
    # each equidistribution check runs by default at the largest order whose
    # n = m*order + r stays <= 2000, and exactly the refused ones have no
    # default order, so verify_all.py skips them
    equidist = {name: (default_order, *leading)
                for name, (default_order, verifier, leading, _) in IDENTITIES.items()
                if verifier == "verify_equidistribution"}
    for name, (default_order, statistic, m) in equidist.items():
        assert name == f"equidist-{statistic}-{m}"
        if m in EQUIDISTRIBUTION_MODULI[statistic]:
            assert default_order == (2000 - RESIDUE_FOR_MODULUS[m]) // m, name
        else:
            assert default_order is None, name
    assert sum(default_order is not None for default_order, *_ in equidist.values()) == 5
    assert not any(default_order is None for name, (default_order, *_) in IDENTITIES.items()
                   if name not in equidist)


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
