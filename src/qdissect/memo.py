"""The one cache of derived series and tables: the largest order built so far.

Every object cached here is a truncated series, a table or integer columns
whose value at a smaller order is a prefix of its value at a larger one, so
one entry per key serves every request up to the order it was built at; the
caller slices it down.  Keys name the object and what it depends on besides
the order: ``("table", kind)`` (the statistic table, whose rows are also
``crank_gf``/``rank_gf``), ``("crank-coordinates", modulus)`` (the crank
series' coordinates in Z[a]/(modulus)), both from the column form;
``("product", kind, size)`` (the rows of the product formula, the other
side of the table checks and of component-4-vanishing); per dissection
``(identity,)`` (the coordinates of its right-hand side); and ``("rows",
kind)`` (the p, crank, rank or euler rows as the text the CLI writes:
``(objects, values, lines)``, per row its object and its value written at
depth 0 and its CSV lines; p grows with ``tables --kind p --n-max`` and
``dissect --series partition-gf --order``, euler with ``dissect --series
euler --order``).
``largest`` itself refuses a negative order for every key.  A refusal
that depends on the order must run before ``largest`` is called: one at
the start of ``build`` runs only on a miss, so a held entry would answer a
request it should refuse.  A refusal that depends only on the key may run
in ``build`` (``crank_coordinates`` refuses a modulus there), because a
held entry has passed it.  A build that raises stores nothing.

Kept out, on purpose:

- ``partitions._pcounts`` grows in place, one p(n) at a time.  Its callers
  walk n upward one step at a time, so rebuilding it on every growth would
  make ``tables --kind p --n-max 300`` quadratic.
- ``tables --modulo`` folds: their keys would grow with the modulus (up
  to 601 per kind), and the memo would no longer stay bounded.
- Rows asked for past TABLE_CAP (only p and euler can be): the CLI renders
  them for the one request, so three texts of every p(n) do not outlive it.
- ``Modulus._inv_a`` is a per-object constant, not a series built up to
  an order.
- Hits and misses are not counted yet: nothing reads such counts.
"""

from __future__ import annotations

from typing import Callable, Hashable, TypeVar

T = TypeVar("T")

# key -> (order built at, value)
_held: dict[Hashable, tuple[int, object]] = {}


def largest(key: Hashable, order: int, build: Callable[[int], T]) -> T:
    """The value held under key if it was built at order or above; otherwise
    build(order), kept with its order in place of the smaller one."""
    if order < 0:
        raise ValueError("order must be >= 0")
    entry = _held.get(key)
    if entry is None or entry[0] < order:
        entry = (order, build(order))
        _held[key] = entry
    return entry[1]
