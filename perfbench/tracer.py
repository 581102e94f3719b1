"""Spans around calls into each qdissect layer, recorded from outside the program.

``install`` replaces the public functions and methods of the five modules
with wrappers, wherever the name is looked up: ``identities.crank_gf`` and
``cli.crank_gf`` are bindings of their own, separate from
``series.crank_gf``, and ``LaurentPoly.__mul__``/``__rmul__`` are patched on
the class.  Each wrapped call appends a span (name, start, end, parent,
operation id, raised) to a list held in memory.  ``Tracer.close_op`` folds
the spans of one operation into per-name totals and self times, then drops
them, so memory stays bounded by the largest single operation.

Partitions yielded by ``enumerate_partitions`` are counted through a
pass-through generator rather than by wrapping ``crank``/``rank``, which
are called once per partition.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

NAME, START, END, PARENT, OP, RAISED = range(6)

# a crank_gf/rank_gf call that spawned neither of these did no real work
_BUILD_CHILDREN = {"series.mul", "series.inverse"}
# identities verifiers that look up a statistic table
_TABLE_USERS = {"identities.verify_crank_gf", "identities.verify_rank_gf",
                "identities.verify_equidistribution"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = 0
        # name -> [calls, inclusive seconds, self seconds]
        self.totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: dict[str, int] = defaultdict(int)
        # name -> [hits, calls] over calls that returned
        self.hits: dict[str, list] = defaultdict(lambda: [0, 0])

    def wrap(self, name: str, fn, cost=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        counters = self.counters
        cost_key = name + ".term_products"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if cost is not None:
                counters[cost_key] += cost(args)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                stack.pop()
                span[END] = clock()

        return traced

    def count_yields(self, key: str, gen_fn):
        counters = self.counters

        @functools.wraps(gen_fn)
        def counted(*args, **kwargs):
            n = 0
            try:
                for item in gen_fn(*args, **kwargs):
                    n += 1
                    yield item
            finally:
                counters[key] += n

        return counted

    def close_op(self) -> None:
        """Fold the current operation's spans into the totals and start the next."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        child_names: list[set] = [set() for _ in spans]
        for s in spans:
            if s[PARENT] >= 0:
                child_s[s[PARENT]] += s[END] - s[START]
                child_names[s[PARENT]].add(s[NAME])
        for i, s in enumerate(spans):
            dur = s[END] - s[START]
            t = self.totals[s[NAME]]
            t[0] += 1
            t[1] += dur
            t[2] += dur - child_s[i]
            if s[RAISED]:
                continue
            if s[NAME] in ("series.crank_gf", "series.rank_gf"):
                h = self.hits[s[NAME]]
                h[0] += not (child_names[i] & _BUILD_CHILDREN)
                h[1] += 1
            elif s[NAME] in _TABLE_USERS:
                h = self.hits["identities.table"]
                h[0] += "partitions.build_stat_table" not in child_names[i]
                h[1] += 1
        spans.clear()
        self.op += 1

    def summary(self) -> dict:
        return {"totals": dict(self.totals), "counters": dict(self.counters),
                "hits": dict(self.hits)}


def _term_count(p) -> int:
    # the private mapping avoids the copy the public ``terms`` property makes
    try:
        return len(p._terms)
    except AttributeError:
        return len(p.terms)


def _laurent_products(args) -> int:
    a, b = args
    return _term_count(a) * (1 if isinstance(b, int) else _term_count(b))


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of ring, series, partitions, identities and cli."""
    import qdissect
    from qdissect import cli, identities, partitions, ring, series

    modules = (qdissect, ring, series, partitions, identities, cli)

    def rebind(original, replacement) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)

    def patch_function(name: str, home, attr: str) -> None:
        original = getattr(home, attr)
        rebind(original, tracer.wrap(name, original))

    def patch_method(name: str, cls, attrs, cost=None) -> None:
        traced = tracer.wrap(name, getattr(cls, attrs[0]), cost)
        for attr in attrs:
            setattr(cls, attr, traced)

    patch_method("ring.laurent_mul", ring.LaurentPoly, ("__mul__", "__rmul__"),
                 _laurent_products)
    patch_method("ring.quotient_mul", ring.QuotientElem, ("__mul__", "__rmul__"))
    patch_method("ring.quotient_inverse", ring.QuotientElem, ("inverse",))
    patch_method("ring.project", ring.Modulus, ("project",))

    patch_method("series.mul", series.TruncatedSeries, ("__mul__",))
    patch_method("series.inverse", series.TruncatedSeries, ("inverse",))
    for attr in ("euler_product", "pochhammer_inf", "pochhammer_fin", "theta"):
        patch_function("series.products", series, attr)
    for attr in ("crank_gf", "rank_gf", "partition_gf"):
        patch_function(f"series.{attr}", series, attr)

    patch_function("partitions.build_stat_table", partitions, "build_stat_table")
    patch_function("partitions.partition_count", partitions, "partition_count")
    patch_method("partitions.lookup", partitions.StatTable, ("row",))
    patch_method("partitions.lookup", partitions.StatTable, ("count_mod",))
    original = partitions.enumerate_partitions
    rebind(original, tracer.count_yields("partitions.enumerated", original))

    for attr in ("verify_crank_gf", "verify_rank_gf", "verify_congruence",
                 "verify_equidistribution", "verify_2_dissection", "verify_3_dissection",
                 "verify_5_dissection", "verify_component_4_vanishing",
                 "crank_coefficients"):
        patch_function(f"identities.{attr}", identities, attr)

    cli.main = tracer.wrap("cli.main", cli.main)
