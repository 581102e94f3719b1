#!/usr/bin/env python3
"""Run every identity verifier at its default order and print one line each.

Usage:
    python scripts/verify_all.py

The identities, their default orders and their options come from the CLI
registry (``qdissect.cli.IDENTITIES``), and each runs through the CLI's
own call (``qdissect.cli.run_identity``).  An identity with no default
order (one the registry knows only to explain its refusal) is skipped,
and one that takes ``n_root`` runs for all four primitive fifth roots.
Exits nonzero if anything fails.
"""

import argparse
import sys
import time

from qdissect.cli import IDENTITIES, run_identity
from qdissect.identities import FIFTH_ROOTS


def main() -> int:
    argparse.ArgumentParser(description=__doc__).parse_args()

    runs = [(name, default_order, root)
            for name, (default_order, _, _, options) in IDENTITIES.items()
            if default_order is not None
            for root in (FIFTH_ROOTS if "n_root" in options else (1,))]

    started = time.perf_counter()
    failures = 0
    for name, order, root in runs:
        report = run_identity(name, order, n_root=root)
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
