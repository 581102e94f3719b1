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

# spans every traced run must show; ring.quotient_inverse,
# ring.quotient_mul, ring.project and series.crank_gf are patched too, but
# no request calls QuotientElem.inverse, multiplies in a quotient ring or
# projects into one (the dissections fold, and map a witness to a root, in
# integer coordinates), nor reads the crank rows as a Laurent series (the
# row commands read the crank table's rows, as they read the rank table's),
# so they record no span; test_tracer_patches_every_name_it_names keeps
# their names
SPANS = ("series.inverse", "series.products",
         "series.mul", "series.partition_gf", "partitions.lookup",
         "partitions.build_stat_table", "partitions.partition_count",
         "identities.verify_2_dissection", "identities.verify_3_dissection",
         "identities.verify_5_dissection", "identities.verify_equidistribution",
         "identities.verify_rank_gf", "identities.verify_component_4_vanishing", "cli.main")


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


# every function and method the tracer patches, as its home names it
PATCHED = """
import json
import tracer
from qdissect import cli, identities, partitions, ring, series

tracer.install(tracer.Tracer())
names = {
    **{f"ring.{cls.__name__}.{attr}": getattr(cls, attr) for cls, attrs in (
        (ring.LaurentPoly, ("__mul__", "__rmul__")),
        (ring.QuotientElem, ("__mul__", "__rmul__", "inverse")),
        (ring.Modulus, ("project",))) for attr in attrs},
    "series.TruncatedSeries.__mul__": series.TruncatedSeries.__mul__,
    "series.TruncatedSeries.inverse": series.TruncatedSeries.inverse,
    **{f"series.{attr}": getattr(series, attr) for attr in (
        "euler_product", "pochhammer_inf", "pochhammer_fin", "theta", "crank_gf", "rank_gf",
        "partition_gf")},
    **{f"partitions.{attr}": getattr(partitions, attr) for attr in (
        "build_stat_table", "partition_count", "enumerate_partitions")},
    "partitions.StatTable.row": partitions.StatTable.row,
    "partitions.StatTable.count_mod": partitions.StatTable.count_mod,
    **{f"identities.{attr}": getattr(identities, attr) for attr in (
        "verify_crank_gf", "verify_rank_gf", "verify_congruence", "verify_equidistribution",
        "verify_2_dissection", "verify_3_dissection", "verify_5_dissection",
        "verify_component_4_vanishing", "crank_coefficients")},
    "cli.main": cli.main,
}
print(json.dumps(sorted(name for name, value in names.items()
                        if not hasattr(value, "__wrapped__"))))
"""


def test_tracer_patches_every_name_it_names():
    # the traced run above records a span only for what a request calls;
    # this holds the names no request reaches (a renamed one fails here)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(ROOT / "src"),
                                                       str(ROOT / "perfbench"))))
    proc = subprocess.run([sys.executable, "-c", PATCHED], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
