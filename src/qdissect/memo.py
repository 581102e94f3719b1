"""The one cache of derived series and tables: the largest order built so far.

Every object cached here is a truncated series, a table or integer columns
whose value at a smaller order is a prefix of its value at a larger one, so
one entry per key serves every request up to the order it was built at; the
caller slices it down.  Keys name the object and what it depends on besides
the order: ``("table", kind)`` (the statistic table, whose rows are also
``crank_gf``/``rank_gf``), ``("crank-coordinates", coefficients)`` (the
crank series' coordinates in Z[a]/(m(a)), m the monic modulus with these
ascending coefficients, a plain tuple, so that the dissections key it
without building a ``Modulus``), both from the column form;
``("product", kind, size)`` (the rows of the product formula, the other
side of the table checks and of component-4-vanishing); ``("classes",
kind, m)`` (the column form's classes mod a^m - 1, equidistribution's
counts: a build takes 50-130 us at n <= 19, 2-core VM); per dissection
``(identity,)`` (the coordinates of its right-hand side); and ``("rows",
kind)`` (the p, crank, rank or euler rows as the text the CLI writes:
``(objects, values, lines)``, per row its object and its value, each
written at the one depth where the CLI puts it, and its CSV lines; p
grows with ``tables --kind p --n-max`` and ``dissect --series
partition-gf --order``, euler with ``dissect --series euler --order``,
both up to ORDER_CAP, the others up to TABLE_CAP).
The rows are the one entry that grows from what is held (``grow``): a
row's text does not depend on the order, so a larger request renders
only the rows past the held ones.
A refusal that depends on the order (every caller passes the order
through ``partitions._check_order`` first) must run before ``largest`` is
called: one at the start of ``build`` runs only on a miss, so a held entry
would answer a request it should refuse.  A refusal that depends only on
the key may run in ``build`` (``crank_coordinates`` refuses a modulus
where a has no small order there), because a held entry has passed it.  A build or growth that raises stores nothing,
and neither may change the held value: growth returns a new one.

Kept out, on purpose:

- ``partitions._pcounts`` grows in place, one p(n) at a time.  Its callers
  walk n upward one step at a time, so rebuilding it on every growth would
  make ``tables --kind p --n-max 300`` quadratic.
- ``tables --modulo`` folds: their keys would grow with the modulus (up
  to 601 per kind), and the memo would no longer stay bounded.
- The theta powers f(-q^r, -q^s)^e of a dissection's right-hand side:
  one build of its coordinates, which are held, makes each once.
- ``Modulus._inv_a`` is a per-object constant, not a series built up to
  an order.
- Hits and misses are not counted yet: nothing reads such counts.
"""

from __future__ import annotations

from typing import Callable, Hashable, TypeVar

T = TypeVar("T")

# key -> (order built at, value)
_held: dict[Hashable, tuple[int, object]] = {}


def largest(key: Hashable, order: int, build: Callable[[int], T],
            grow: Callable[[int, T, int], T] | None = None) -> T:
    """The value held under key if it was built at order or above; otherwise
    build(order), or grow(held order, held value, order) if a smaller value
    is held and grow is given, kept with its order in place of the smaller
    one."""
    entry = _held.get(key)
    if entry is None or entry[0] < order:
        entry = (order, build(order) if entry is None or grow is None
                 else grow(*entry, order))
        _held[key] = entry
    return entry[1]
