"""Run CLI requests in one process by calling ``qdissect.cli.main(argv)``.

Reads ``{"requests": [[argv...], ...], "trace": bool}`` as JSON on stdin,
runs the requests in order with stdout and stderr captured, and writes one
JSON object to stdout: for each request its exit code, captured stdout and
stderr, seconds in ``main``, and the machine's slowness around it
(:mod:`calib`, timed before every ``CAL_EVERY`` requests and after the
last); with tracing on, also the per-layer summary from :mod:`tracer`.  The benchmark starts this with
the checkout's ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback

import calib
import tracer as tracing

CAL_EVERY = 8      # requests between calibrations
CAL_CHUNKS = 7     # chunks per calibration; their median skips the cache-cold first


def run(requests: list[list[str]], trace: bool) -> dict:
    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracing.install(tracer)
    from qdissect import cli

    results, slowness = [], []
    stdout_bytes = 0
    for i, argv in enumerate(requests):
        if i % CAL_EVERY == 0:
            slowness.append(calib.slowness(CAL_CHUNKS))
        out, err = io.StringIO(), io.StringIO()
        started = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception:   # a crash is a failed operation, not the end of the run
                traceback.print_exc()
                code = -1
        seconds = time.perf_counter() - started
        if tracer is not None:
            tracer.close_op()
        text = out.getvalue()
        stdout_bytes += len(text.encode())
        results.append({"exit": code, "stdout": text, "stderr": err.getvalue(),
                        "seconds": seconds})
    slowness.append(calib.slowness(CAL_CHUNKS))
    for i, result in enumerate(results):
        # the mean of the calibrations just before and just after its group
        group = i // CAL_EVERY
        result["slowness"] = (slowness[group] + slowness[group + 1]) / 2
    summary = None
    if tracer is not None:
        summary = tracer.summary()
        summary["counters"]["cli.stdout_bytes"] = stdout_bytes
    return {"results": results, "trace": summary}


if __name__ == "__main__":
    job = json.load(sys.stdin)
    json.dump(run(job["requests"], job["trace"]), sys.stdout)
