#!/usr/bin/env python3
"""Print what a one-shot CLI process loads for each request, and what it compiles.

Usage:
    python scripts/request_nodes.py "tables --kind p --n-max 10" \\
        "verify --identity dissection-2 --order 100"

Each request (one argument, split on whitespace) runs in a fresh
interpreter as ``python -m qdissect.cli`` runs it (``runpy.run_module``
with ``run_name='__main__'``), with this checkout's ``src`` first on
``PYTHONPATH``; its payload is discarded.  One line per request gives its
exit code, the syntax-tree nodes of the ``qdissect`` modules it loaded
(the package and ``cli`` included), and those modules.  Without cached bytecode a
process compiles every module it loads, so that total is what a cold
request compiles; the installed ``qdissect`` script loads the same, since
it runs ``qdissect.cli`` as ``__main__`` too.  Then a line gives the same
for an importer (``import qdissect.cli``, as every caller that serves many
requests in one process does), which loads every module a request can
reach before its first request, and a last line the nodes of the whole
package.
"""

import argparse
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "qdissect"

# the request runs as __main__; the list goes to stderr after its exit
PROBE = """\
import json, runpy, sys
sys.argv = ['qdissect', *json.loads(sys.argv[1])]
try:
    runpy.run_module('qdissect.cli', run_name='__main__', alter_sys=True)
except SystemExit as exit:
    print(json.dumps([exit.code, sorted(m for m in sys.modules
                                        if m == 'qdissect' or m.startswith('qdissect.'))]),
          file=sys.stderr)
"""

# an importer's modules, after the import alone
IMPORT_PROBE = """\
import json, sys
import qdissect.cli
print(json.dumps(sorted(m for m in sys.modules if m == 'qdissect' or m.startswith('qdissect.'))),
      file=sys.stderr)
"""


def nodes(module: str) -> int:
    """Syntax-tree nodes of the source of a qdissect module or the package."""
    name = module.partition(".")[2] or "__init__"
    return sum(1 for _ in ast.walk(ast.parse((PACKAGE / f"{name}.py").read_text())))


def run_probe(code: str, *args: str):
    """The JSON of the last stderr line of a fresh interpreter running code
    with args, with this checkout's src first on PYTHONPATH."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, check=True, timeout=120)
    return json.loads(done.stderr.splitlines()[-1])


def loaded(argv: list[str]) -> tuple[int, list[str]]:
    """The exit code of one one-shot request and the qdissect modules it
    compiled: the ones it loaded and the CLI module it ran."""
    code, modules = run_probe(PROBE, json.dumps(argv))
    # cli.py ran as __main__, so it is not in sys.modules under its name
    return code, sorted({*modules, "qdissect.cli"})


def line(modules: list[str]) -> str:
    """The nodes of the modules, and their names."""
    names = ", ".join(m.partition(".")[2] or m for m in modules)
    return f"{sum(map(nodes, modules)):,} nodes ({names})"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("requests", nargs="+",
                        help='one quoted request each, e.g. "coeffs --count 5"')
    for request in parser.parse_args().requests:
        code, modules = loaded(request.split())
        print(f"{request}: exit {code}, {line(modules)}")
    print(f"import qdissect.cli: {line(run_probe(IMPORT_PROBE))}")
    package = sum(nodes(f"qdissect.{path.stem}") for path in PACKAGE.glob("*.py"))
    print(f"whole package: {package:,} nodes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
