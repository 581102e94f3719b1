#!/usr/bin/env python3
"""Run every identity verifier at its default order and print one line each.

Usage:
    python scripts/verify_all.py

The identities and their default orders come from the CLI registry
(``qdissect.cli.IDENTITIES``); dissection-5 runs for all four primitive
roots.  Exits nonzero if anything fails.
"""

import argparse
import sys
import time

from qdissect.cli import IDENTITIES
from qdissect.identities import FIFTH_ROOTS

# the registry knows this one only to explain why it is refused: the rank
# does not equidistribute modulo 11
REFUSED = {"equidist-rank-11"}


def main() -> int:
    argparse.ArgumentParser(description=__doc__).parse_args()

    runs = []
    for name, (default_order, _, runner) in IDENTITIES.items():
        if name in REFUSED:
            continue
        roots = FIFTH_ROOTS if name == "dissection-5" else (1,)
        runs.extend(lambda o=default_order, r=r, run=runner: run(o, r, None) for r in roots)

    started = time.perf_counter()
    failures = 0
    for run in runs:
        report = run()
        mark = "ok  " if report.passed else "FAIL"
        line = f"[{mark}] {report.identity:<24} order {report.order:<4} {report.elapsed:7.2f}s"
        if report.failure_witness is not None:
            w = report.failure_witness
            line += f"  first mismatch at q^{w.power}: expected {w.expected}, got {w.actual}"
            failures += 1
        print(line)
    print(f"total {time.perf_counter() - started:.1f}s, {failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
