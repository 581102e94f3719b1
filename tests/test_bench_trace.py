"""The benchmark's tracer still fits the program.

``perfbench/tracer.py`` patches qdissect functions and methods by name, so
renaming one of them would crash ``perfbench/run.py --trace 1``.  This runs
the benchmark's in-process child with tracing on, over one request of each
subcommand, each fifth root, both statistic folds and one perturbed
dissection.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

REQUESTS = [
    (["tables", "--kind", "crank", "--n-max", "8"], 0),
    (["dissect", "--series", "crank-gf", "--m", "3", "--order", "9"], 0),
    (["coeffs", "--count", "5"], 0),
    (["tables", "--kind", "rank", "--n-max", "12", "--modulo", "5"], 0),
    (["verify", "--identity", "rank-gf", "--order", "10"], 0),
    (["verify", "--identity", "equidist-crank-5", "--order", "2"], 0),
    (["verify", "--identity", "dissection-3", "--order", "9"], 0),
    (["verify", "--identity", "component-4-vanishing", "--order", "10"], 0),
] + [
    (["verify", "--identity", "dissection-5", "--order", "10", "--n-root", str(r)], 0)
    for r in (1, 2, 3, 4)
] + [
    (["verify", "--identity", "dissection-2", "--order", "10", "--perturb-power", "3"], 1),
    (["verify", "--identity", "dissection-2", "--order", "7"], 2),
]

# spans every traced run must show; ring.quotient_inverse is patched too,
# but no request calls QuotientElem.inverse, so it records no span
SPANS = ("ring.project", "series.inverse", "series.products", "series.mul",
         "series.crank_gf", "partitions.lookup", "identities.verify_5_dissection",
         "cli.main")


def test_traced_child_runs_every_kind_of_request():
    job = json.dumps({"requests": [argv for argv, _ in REQUESTS], "trace": True})
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "child.py")],
                          input=job, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    reply = json.loads(proc.stdout)
    assert [r["exit"] for r in reply["results"]] == [code for _, code in REQUESTS]
    totals = reply["trace"]["totals"]
    for name in SPANS:
        assert totals.get(name, [0])[0] > 0, name
