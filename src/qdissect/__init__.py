"""qdissect: exact q-series arithmetic for partition statistics.

Counts partitions by crank and rank by three routes (the statistic table's
columns, the product formulas, integer recurrences), expands the crank
series in the integer coordinates of the cyclotomic quotient rings, and
mechanically verifies the classical congruences, equidistribution
theorems and 2-/3-/5-dissections, all in arbitrary-precision integer
arithmetic with no floats anywhere.  The ring objects
(:mod:`qdissect.ring`: Laurent polynomials, quotient-ring residues) are
there for callers and the tests; no request builds one.
"""

import importlib

# public name -> the submodule that defines it.  A name is imported on first
# access (``__getattr__``), so ``import qdissect`` loads no submodule, and
# ``python -m qdissect.cli``, which imports this package first, loads only
# what its request runs.
_HOMES = {name: module for module, names in (
    ("identities", "FailureWitness VerificationReport crank_coefficients verify_2_dissection "
                   "verify_3_dissection verify_5_dissection verify_component_4_vanishing "
                   "verify_congruence verify_crank_columns verify_crank_gf "
                   "verify_equidistribution verify_rank_columns verify_rank_gf"),
    ("partitions", "ORDER_CAP TABLE_CAP Partition StatTable build_stat_table crank crank_row "
                   "enumerate_partitions partition_count rank rank_row"),
    ("ring", "PHI5 PHI8 PHI9 LaurentPoly Modulus QuotientElem"),
    ("series", "TruncatedSeries crank_coordinates crank_gf euler_product partition_gf "
               "pochhammer_fin pochhammer_inf rank_gf theta"),
) for name in names.split()}

# the library modules a request can reach, also imported on first access as
# attributes of the package: cli reaches identities and rows that way when a
# request runs, identities the route it checks (products, recurrences,
# dissections, series), rows series for the euler rows, so that a module
# loads with the first request that runs it.  An importer of qdissect.cli
# loads every one of them at once.  qdissect.ring is not among them: only
# series' Laurent rows reach it, which no request reads, so it loads on
# first access (``qdissect.ring``, a public name it defines, or an import).
_REQUEST_MODULES = ("dissections", "identities", "memo", "partitions", "products",
                    "recurrences", "rows", "series")


def __getattr__(name: str):
    """A public name or a library module, imported on first access; a
    public name is then kept here, so later lookups find it directly."""
    home = _HOMES.get(name)
    if home is None and name not in _REQUEST_MODULES and name not in _HOMES.values():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{home or name}")
    if home is None:
        return module       # the import bound it here
    value = globals()[name] = getattr(module, name)
    return value


def _script():
    """The installed ``qdissect`` script: runs qdissect.cli as __main__,
    exactly as ``python -m qdissect.cli`` does, so that the process loads
    only what its request runs (an import of qdissect.cli would load every
    module a request can reach); exits through the module's own
    ``sys.exit(entry())``."""
    import runpy
    runpy.run_module(f"{__name__}.cli", run_name="__main__", alter_sys=True)


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES, *_HOMES.values(), *_REQUEST_MODULES})


__version__ = "0.1.0"

__all__ = [*_HOMES, "__version__"]
