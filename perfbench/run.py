"""qdissect benchmark: three closed-loop workloads, checked outputs, one JSON result.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload dissect-deep --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics (wall_s, op_p50_s, setup_s,
peak_rss_mb); ``--trace 1`` runs one untraced pass, then traced passes,
and prints the per-layer metrics.  Every time in the end-to-end metrics is
divided by the machine's slowness timed right next to it (calib.py), so it
is the time the work takes at the nominal speed.  The last line of stdout
is the JSON result; the lines before it give provenance, the raw
wall-clock medians and any failed checks.  See perfbench/README.md for why
each workload exists and what each metric should move.

One client, concurrency 1, at most one child process alive at a time, and
the benchmark and its children pinned to one CPU, so that the calibration
loop times the CPU the children ran on.  The seed picks the order of the
operations and the perturbation powers; it never changes how many
operations of each kind a pass contains.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
from checks import Op, Tally

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
# set-up launches are spread over the run, SETUP_PER_PASS before each pass
# and enough after the last to reach SETUP_MIN, so that they sample the
# same machine conditions as the passes do
SETUP_PER_PASS = 3
SETUP_MIN = 12
CAL_CHUNKS = 30            # calibration chunks timed after each launch, about 25 ms
RUN_LIMIT_S = 165          # every child is killed by then, so a run ends within 180 s
CRANK_OUT_OF_RANGE = ("out-of-range crank-gf perturbation is ignored and exits 0 "
                      "instead of 2 (ROADMAP item 2)")


def verify(identity: str, order: int, *extra: str) -> tuple[str, ...]:
    return ("verify", "--identity", identity, "--order", str(order)) + extra


def perturbed(rng: random.Random, identity: str, order: int) -> Op:
    power = rng.randint(0, order)
    return Op(verify(identity, order, "--perturb-power", str(power)), "fail", power)


def dissect_deep(rng: random.Random) -> list[Op]:
    """Dissection verifiers at order ~100: Laurent crank_gf plus quotient-ring RHS."""
    ops = [Op(verify("dissection-2", 100), "pass"),
           Op(verify("dissection-3", 99), "pass"),
           Op(verify("component-4-vanishing", 100), "pass")]
    ops += [Op(verify("dissection-5", 100, "--n-root", str(r)), "pass") for r in (1, 2, 3, 4)]
    ops += [perturbed(rng, "dissection-2", 100), perturbed(rng, "dissection-3", 99),
            perturbed(rng, "dissection-5", 100)]
    rng.shuffle(ops)
    return ops


def enum_truth(rng: random.Random) -> list[Op]:
    """Ground-truth verifiers: enumeration and StatTable lookups dominate.

    Every operation enumerates to n = 33 or 34, so operations cost about
    the same and the median operation time does not jump between kinds.
    """
    ops = [Op(verify("crank-gf", 34), "pass"), Op(verify("rank-gf", 34), "pass"),
           Op(verify("equidist-crank-5", 6), "pass"), Op(verify("equidist-crank-7", 4), "pass"),
           Op(verify("equidist-rank-5", 6), "pass"), Op(verify("equidist-rank-7", 4), "pass"),
           perturbed(rng, "crank-gf", 34), perturbed(rng, "rank-gf", 34)]
    rng.shuffle(ops)
    return ops


SESSION_COPIES = 6


def session_mix(rng: random.Random) -> list[Op]:
    """A seeded shuffle of SESSION_COPIES copies of 44 small requests, run in one process."""
    ops = []
    for _ in range(SESSION_COPIES):
        ops += [Op(verify(name, order), "pass") for name, order in (
            ("crank-gf", 20), ("rank-gf", 20), ("congruence-5-4", 20),
            ("congruence-7-5", 15), ("congruence-11-6", 10), ("equidist-crank-5", 3),
            ("equidist-crank-7", 2), ("equidist-crank-11", 1), ("equidist-rank-5", 3),
            ("equidist-rank-7", 2), ("dissection-2", 60), ("dissection-3", 60),
            ("component-4-vanishing", 60))]
        ops += [Op(verify("dissection-5", 60, "--n-root", str(r)), "pass") for r in (1, 2, 3, 4)]
        ops += [perturbed(rng, name, order) for name, order in (
            ("crank-gf", 20), ("rank-gf", 20), ("dissection-2", 60), ("dissection-3", 60),
            ("dissection-5", 60))]
        ops += [Op(("tables", "--kind", "p", "--n-max", n, "--format", fmt))
                for n, fmt in (("100", "json"), ("200", "csv"), ("300", "json"))]
        for kind in ("crank", "rank"):
            ops += [Op(("tables", "--kind", kind, "--n-max", "20", "--format", "json")),
                    Op(("tables", "--kind", kind, "--n-max", "20", "--format", "csv")),
                    Op(("tables", "--kind", kind, "--n-max", "20", "--modulo", "5",
                        "--format", "csv")),
                    Op(("tables", "--kind", kind, "--n-max", "16", "--modulo", "7",
                        "--format", "json"))]
        ops += [Op(("coeffs", "--count", "21", "--format", "json")),
                Op(("coeffs", "--count", "30", "--format", "csv"))]
        ops += [Op(("dissect", "--series", series, "--m", m, "--order", order, "--format", fmt))
                for series, m, order, fmt in (
                    ("crank-gf", "2", "30", "json"), ("crank-gf", "5", "30", "csv"),
                    ("partition-gf", "5", "100", "json"), ("partition-gf", "7", "100", "csv"),
                    ("partition-gf", "2", "60", "json"))]
        ops += [Op(verify("equidist-rank-11", 3), "usage"),
                Op(verify("dissection-2", 41), "usage"),
                Op(verify("crank-gf", 10, "--perturb-power", str(rng.randint(11, 50))),
                   "usage", defect=CRANK_OUT_OF_RANGE),
                Op(verify("dissection-2", 20, "--perturb-power", str(rng.randint(21, 50))),
                   "usage")]
    rng.shuffle(ops)
    return ops


# name -> (operations of one pass, whether one process serves the whole pass)
WORKLOADS = {
    "dissect-deep": (dissect_deep, False),
    "enum-truth": (enum_truth, False),
    "session-mix": (session_mix, True),
}


class RunExpired(Exception):
    """The run reached RUN_LIMIT_S with a child still working."""


class Runner:
    """Starts the children of one run, one at a time, with a pinned environment.

    ``slowness`` is the machine's slowness timed right after the last
    launch, which is also right before the next one.
    """

    def __init__(self):
        self.started = time.perf_counter()
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("QDISSECT_WORKERS", "PYTHONPATH", "PYTHONHASHSEED")}
        self.env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        self.slowness = calib.slowness(CAL_CHUNKS)
        self.slowness_samples = [self.slowness]

    def spawn(self, argv: list[str], stdin: str | None = None):
        """Run one child to completion: (exit code, stdout, stderr, seconds)."""
        remaining = RUN_LIMIT_S - (time.perf_counter() - self.started)
        if remaining <= 0:
            raise RunExpired
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(argv, input=stdin, capture_output=True, text=True,
                                  env=self.env, cwd=ROOT, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise RunExpired from None
        return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - t0

    def launch(self, argv: list[str], stdin: str | None = None):
        """``spawn`` with the slowness timed before and after: (..., mean slowness)."""
        before = self.slowness
        code, out, err, seconds = self.spawn(argv, stdin)
        self.slowness = calib.slowness(CAL_CHUNKS)
        self.slowness_samples.append(self.slowness)
        return code, out, err, seconds, (before + self.slowness) / 2

    def setup_seconds(self, launches: int) -> list[tuple[float, float]]:
        """(raw, normalised) spawn-to-imported times of interpreters importing qdissect.cli."""
        probe = "import time, qdissect.cli; print(time.monotonic_ns())"
        samples = []
        for _ in range(launches):
            spawned = time.monotonic_ns()
            code, out, err, _, slow = self.launch([sys.executable, "-c", probe])
            if code != 0:
                raise SystemExit(f"cannot import qdissect.cli from {ROOT / 'src'}:\n{err}")
            raw = (int(out) - spawned) / 1e9
            samples.append((raw, raw / slow))
        return samples

    def in_process(self, requests: list[list[str]], trace: bool):
        """Run requests in one child.py process: (its reply, seconds, slowness around it)."""
        job = json.dumps({"requests": requests, "trace": trace})
        code, out, err, seconds, slow = self.launch([sys.executable, str(CHILD)], job)
        if code != 0:
            raise SystemExit(f"{CHILD.name} exited {code}:\n{err}")
        return json.loads(out), seconds, slow

    def run_pass(self, ops: list[Op], in_process: bool, trace: bool):
        """Run one pass: ([(exit, stdout, raw op seconds, slowness)], trace summaries).

        A cold operation runs from spawn to exit, with the slowness timed
        around it; an in-process one is its time in ``cli.main``, with the
        slowness the child timed around it.
        """
        if in_process:
            reply, _, _ = self.in_process([list(op.argv) for op in ops], trace)
            return ([(r["exit"], r["stdout"], r["seconds"], r["slowness"])
                     for r in reply["results"]], [reply["trace"]] if trace else [])
        results, summaries = [], []
        for op in ops:
            if trace:
                reply, seconds, slow = self.in_process([list(op.argv)], True)
                (r,) = reply["results"]
                results.append((r["exit"], r["stdout"], seconds, slow))
                summaries.append(reply["trace"])
            else:
                code, out, _, seconds, slow = self.launch(
                    [sys.executable, "-m", "qdissect.cli", *op.argv])
                results.append((code, out, seconds, slow))
        return results, summaries


def median(pairs: list[tuple[float, float]], normalised: bool = True) -> float:
    """Median of the normalised (or raw) members of (raw, normalised) pairs."""
    return statistics.median(pair[normalised] for pair in pairs)


def merge(summaries: list[dict]) -> dict:
    totals, counters, hits = {}, {}, {}
    for s in summaries:
        for name, (calls, incl, self_s) in s["totals"].items():
            t = totals.setdefault(name, [0, 0.0, 0.0])
            t[0] += calls
            t[1] += incl
            t[2] += self_s
        for name, n in s["counters"].items():
            counters[name] = counters.get(name, 0) + n
        for name, (h, c) in s["hits"].items():
            acc = hits.setdefault(name, [0, 0])
            acc[0] += h
            acc[1] += c
    return {"totals": totals, "counters": counters, "hits": hits}


def layer_metrics(summary: dict, passes: int, overhead: float, tally: Tally) -> dict:
    """Per-layer metrics, per traced pass."""
    totals, counters, hits = summary["totals"], summary["counters"], summary["hits"]

    def calls(name):
        return totals.get(name, [0, 0.0, 0.0])[0] / passes

    def incl(name):
        return totals.get(name, [0, 0.0, 0.0])[1] / passes

    def self_s(prefix):
        return sum(t[2] for n, t in totals.items() if n == prefix or
                   n.startswith(prefix + ".")) / passes

    def ratio(name):
        h, c = hits.get(name, (0, 0))
        return h / c if c else 0.0

    main_s = incl("cli.main")
    values = {
        "ring.laurent_mul.calls": (calls("ring.laurent_mul"), "count"),
        "ring.laurent_mul.self_s": (self_s("ring.laurent_mul"), "s"),
        "ring.laurent_mul.term_products": (
            counters.get("ring.laurent_mul.term_products", 0) / passes, "count"),
        "ring.quotient_mul.calls": (calls("ring.quotient_mul"), "count"),
        "ring.quotient_mul.self_s": (self_s("ring.quotient_mul"), "s"),
        "ring.project.calls": (calls("ring.project"), "count"),
        "ring.project.self_s": (self_s("ring.project"), "s"),
        "ring.quotient_inverse.calls": (calls("ring.quotient_inverse"), "count"),
        "ring.quotient_inverse.self_s": (self_s("ring.quotient_inverse"), "s"),
        "series.mul.calls": (calls("series.mul"), "count"),
        "series.mul.self_s": (self_s("series.mul"), "s"),
        "series.inverse.calls": (calls("series.inverse"), "count"),
        "series.inverse.self_s": (self_s("series.inverse"), "s"),
        "series.products.self_s": (self_s("series.products"), "s"),
        "series.crank_gf.calls": (calls("series.crank_gf"), "count"),
        "series.crank_gf.s": (incl("series.crank_gf"), "s"),
        "series.crank_gf.hit_ratio": (ratio("series.crank_gf"), "ratio"),
        "series.rank_gf.calls": (calls("series.rank_gf"), "count"),
        "series.rank_gf.s": (incl("series.rank_gf"), "s"),
        "series.rank_gf.hit_ratio": (ratio("series.rank_gf"), "ratio"),
        "partitions.build_stat_table.calls": (calls("partitions.build_stat_table"), "count"),
        "partitions.build_stat_table.s": (incl("partitions.build_stat_table"), "s"),
        "partitions.enumerated": (counters.get("partitions.enumerated", 0) / passes, "count"),
        "partitions.lookup.self_s": (self_s("partitions.lookup"), "s"),
        "partitions.partition_count.self_s": (self_s("partitions.partition_count"), "s"),
        "identities.self_s": (self_s("identities"), "s"),
        "identities.table_calls": (hits.get("identities.table", (0, 0))[1] / passes, "count"),
        "identities.table_hit_ratio": (ratio("identities.table"), "ratio"),
        "cli.self_s": (self_s("cli"), "s"),
        "cli.main_s": (main_s, "s"),
        "cli.stdout_bytes": (counters.get("cli.stdout_bytes", 0) / passes, "bytes"),
        "layer.ring.self_s": (self_s("ring"), "s"),
        "layer.series.self_s": (self_s("series"), "s"),
        "layer.partitions.self_s": (self_s("partitions"), "s"),
        "layer.series_ring_share": (
            (self_s("series") + self_s("ring")) / main_s if main_s else 0.0, "ratio"),
        "layer.partitions_share": (self_s("partitions") / main_s if main_s else 0.0, "ratio"),
        "trace.overhead_ratio": (overhead, "ratio"),
        "ops_failed_ratio": (tally.failed / tally.attempted, "ratio"),
        "checks.known_defect_ratio": (tally.known_defects / tally.attempted, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def commit_id() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "qdissect" / "cli.py").is_file():
        print(f"no qdissect sources under {ROOT / 'src'}", file=sys.stderr)
        return 1

    make_ops, in_process = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})     # children inherit it
    runner = Runner()
    tally = Tally()
    print("provenance", json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": sys.version.split()[0], "nproc": len(cpus),
        "pinned_cpu": max(cpus), "commit": commit_id()}))

    runner.setup_seconds(1)          # fails early without sources; may compile bytecode
    # walls, traced_walls, op_seconds and setup hold (raw, normalised) pairs
    walls, traced_walls, op_seconds, summaries, setup = [], [], [], [], []
    measuring = time.perf_counter()
    try:
        while True:
            trace = bool(args.trace) and bool(walls)   # trace mode: one untraced pass first
            if not args.trace:
                setup += runner.setup_seconds(SETUP_PER_PASS)
            ops = make_ops(rng)
            started = time.perf_counter()
            results, pass_summaries = runner.run_pass(ops, in_process, trace)
            took = time.perf_counter() - started
            raw = norm = 0.0
            for op, (code, out, seconds, slow) in zip(ops, results):
                tally.add(op, code, out)
                op_seconds.append((seconds, seconds / slow))
                raw += seconds
                norm += seconds / slow
            (traced_walls if trace else walls).append((raw, norm))
            summaries += pass_summaries
            elapsed = time.perf_counter() - measuring
            if args.trace and not traced_walls:
                continue
            if elapsed + took / 2 >= args.seconds:
                break
        if not args.trace:
            setup += runner.setup_seconds(max(0, SETUP_MIN - len(setup)))
    except RunExpired:
        # the operation that was cut counts as failed; the rest of its pass is lost
        tally.attempted += 1
        tally.failed += 1
        tally.problems.append(f"an operation was still running at the {RUN_LIMIT_S} s limit")
        if not (traced_walls if args.trace else walls and setup):
            print("no complete pass to report", file=sys.stderr)
            return 1

    for defect, n in tally.defects_seen.items():
        print(f"known defect, {n} operations: {defect}")
    for problem in tally.problems:
        print(f"FAILED {problem}")
    if args.trace:
        print(f"{len(traced_walls)} traced passes after {len(walls)} untraced; "
              f"per-layer values are per traced pass")
        metrics = layer_metrics(merge(summaries), len(traced_walls),
                                median(traced_walls) / median(walls), tally)
    else:
        print(f"wall_s: median of {len(walls)} passes; op_p50_s: median of "
              f"{len(op_seconds)} operations; setup_s: median of {len(setup)} launches")
        print(f"raw wall-clock medians: wall_s {median(walls, False):.4f}, op_p50_s "
              f"{median(op_seconds, False):.6f}, setup_s {median(setup, False):.4f}; "
              f"machine slowness: median {statistics.median(runner.slowness_samples):.3f} "
              f"of {len(runner.slowness_samples)} calibrations")
        metrics = {
            "wall_s": {"value": median(walls), "unit": "s"},
            "op_p50_s": {"value": median(op_seconds), "unit": "s"},
            "setup_s": {"value": median(setup), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
                            / 1024, "unit": "MB"},
        }
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
