"""The one cache of derived series and tables: the largest order built so far.

Every object cached here is a truncated series or a table whose value at a
smaller order is a prefix of its value at a larger one, so one entry per key
serves every request up to the order it was built at; the caller slices it
down.  Keys name the object and what it depends on besides the order, e.g.
``("crank", modulus)``, ``("table", kind)`` or ``("dissection-5", root)``.
``largest`` itself refuses a negative order for every key.  Any other
refusal must run before ``largest`` is called: one at the start of
``build`` runs only on a miss, so a held entry would answer a request it
should refuse.  A build that raises stores nothing.

Kept out, on purpose:

- ``partitions._pcounts`` grows in place, one p(n) at a time.  Its callers
  walk n upward one step at a time, so rebuilding it on every growth would
  make ``tables --kind p --n-max 300`` quadratic.
- ``ring.quotient_ring`` keeps its ``lru_cache``: ring handles are compared
  by identity, so each modulus must map to one handle, not to a rebuilt one.
- ``Modulus._inv_a`` and ``cli._parser`` are per-object and per-process
  constants, not series built up to an order.
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
