import importlib
import io
import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import qdissect
from qdissect import cli, identities, partitions, ring, series


def test_every_exported_name_resolves():
    assert len(set(qdissect.__all__)) == len(qdissect.__all__)
    for name in qdissect.__all__:
        assert hasattr(qdissect, name), name


def test_the_coefficient_ring_handles_are_gone():
    # a series coefficient carries its own ring; there is no handle to pass
    for name in ("CoefficientRing", "INTEGER_RING", "LAURENT_RING", "quotient_ring"):
        assert name not in qdissect.__all__
        assert not hasattr(qdissect, name) and not hasattr(ring, name)
    assert not hasattr(ring.Modulus, "from_laurent")
    assert not hasattr(series.TruncatedSeries, "ring")
    assert "crank_coordinates" in qdissect.__all__


def test_the_series_helpers_only_the_tests_called_are_gone():
    # a coefficient is read as series.coefficients[n] or poly.terms.get(e, 0),
    # and components are interleaved back by hand
    assert "reassemble" not in qdissect.__all__
    assert not hasattr(qdissect, "reassemble") and not hasattr(series, "reassemble")
    for cls, name in ((series.TruncatedSeries, "substitute_power"),
                      (series.TruncatedSeries, "coefficient"),
                      (ring.LaurentPoly, "coefficient")):
        assert not hasattr(cls, name), f"{cls.__name__}.{name}"
    # a -> a^k on Laurent polynomials stays: it maps a dissection's root
    assert hasattr(ring.LaurentPoly, "substitute_power")


def test_the_generic_series_arithmetic_is_gone():
    # series arithmetic is over the integers; the tests' oracle
    # (tests/series_oracle.py) has its own for every other ring
    for name in ("one", "zero", "_zero", "__add__", "__neg__", "__sub__", "shift",
                 "truncate", "dissect", "map_coefficients"):
        assert not hasattr(series.TruncatedSeries, name), name
    assert not hasattr(ring.LaurentPoly, "is_palindromic")
    # one order check, the one in partitions
    assert series._check_order is partitions._check_order


def test_the_preload_names_every_module_a_request_reaches():
    # an importer of qdissect.cli loads each of _REQUEST_MODULES before its
    # first request, so a module missing there would load inside a request;
    # cli is that importer, and it imports jsontext itself.  No request
    # reaches ring, so the importer does not compile it
    files = {path.stem for path in Path(qdissect.__file__).parent.glob("*.py")}
    assert sorted(qdissect._REQUEST_MODULES) == sorted(
        files - {"__init__", "cli", "jsontext", "ring"})
    assert "ring" in qdissect._HOMES.values() and "ring" in dir(qdissect)
    src = Path(qdissect.__file__).resolve().parents[1]
    probe = "import sys, qdissect.cli\nprint('qdissect.ring' in sys.modules)\n"
    out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True, timeout=60).stdout
    assert out == "False\n"


def test_the_fifth_roots_have_one_definition():
    # beside ORDER_CAP, which every request loads; identities re-exports it
    assert identities.FIFTH_ROOTS is partitions.FIFTH_ROOTS
    assert cli._COMMANDS["verify"][2]["--n-root"]["choices"] is partitions.FIFTH_ROOTS


def test_every_dotted_reference_in_the_docs_resolves():
    # a rename or a deletion leaves no stale name in a docstring, comment or
    # string of src, nor in README: every name written as module.attr, with
    # or without the package (``series._powers_of_a``, qdissect.ring),
    # resolves.  File names such as cli.py are not references
    package = Path(qdissect.__file__).parent
    modules = sorted(path.stem for path in package.glob("*.py") if path.stem != "__init__")
    reference = re.compile(r"(?<![\w.])(?:qdissect|%s)(?:\.\w+)+" % "|".join(modules))
    texts = [(path.name, token.string) for path in sorted(package.glob("*.py"))
             for token in tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
             if token.type in (tokenize.COMMENT, tokenize.STRING)]
    texts.append(("README.md", (package.parents[1] / "README.md").read_text()))
    found, stale, missing = 0, [], object()
    for where, text in texts:
        for name in reference.findall(text):
            if name.endswith(".py"):
                continue
            found += 1
            head, *attributes = name.removeprefix("qdissect.").split(".")
            target = (importlib.import_module(f"qdissect.{head}") if head in modules
                      else getattr(qdissect, head, missing))
            for attribute in attributes:
                target = getattr(target, attribute, missing)
            if target is missing:
                stale.append(f"{where}: {name}")
    assert found > 100
    assert stale == []
