"""The recurrence route to the crank and rank tables.

``recurrence_rows`` counts partitions by integer recurrences over the shape
of a partition: the other side of the ``crank-columns``/``rank-columns``
checks.  It reads neither the column form, the product formulas, p(n) nor
the enumeration of :mod:`qdissect.partitions`, and like the other two
routes it refuses an unknown kind and an order past TABLE_CAP itself,
before any work.
"""

from __future__ import annotations

from .partitions import TABLE_CAP, _check_kind, _check_order


def _rank_rows(n_max: int) -> list[dict[int, int]]:
    # T[n][k]: partitions of n into exactly k parts, all <= L.  Raising the
    # bound to L adds T[n-L][k-1] (ascending n, so several parts L may be
    # taken); that term counts the partitions with largest part exactly L
    # and k parts, whose rank is L - k.
    T = [[0] * (n_max + 1) for _ in range(n_max + 1)]
    T[0][0] = 1
    rows: list[dict[int, int]] = [{} for _ in range(n_max + 1)]
    for L in range(1, n_max + 1):
        for n in range(L, n_max + 1):
            below, here, row = T[n - L], T[n], rows[n]
            for k in range(1, n - L + 2):
                c = below[k - 1]
                if c:
                    here[k] += c
                    row[L - k] = row.get(L - k, 0) + c
    return rows


def _crank_rows(n_max: int) -> list[dict[int, int]]:
    # F[j][s], s < n_max: partitions of s into parts >= 2, exactly j of them
    # above w, i.e. prod_{2<=k<=w} 1/(1 - q^k) * prod_{k>w} 1/(1 - z q^k).
    # Seeded at w = n_max, where no part of such an s lies above w.
    F = [[1] + [0] * (n_max - 1)]
    for k in range(2, n_max):
        for s in range(k, n_max):
            F[0][s] += F[0][s - k]
    rows: list[dict[int, int]] = [{} for _ in range(n_max + 1)]
    for w in range(n_max, 0, -1):
        # from w + 1 down to w (no change at w = n_max): F times
        # (1 - q^u)/(1 - z q^u), u = w + 1, row j adding the new row j - 1
        # shifted by u; j parts above w need j*u < n_max
        u = w + 1
        F += [[0] * n_max for _ in range(len(F), (n_max - 1) // u + 1)]
        below = [0] * n_max
        for counts in F:
            counts[u:] = [c - d + b for c, d, b in zip(counts[u:], counts, below)]
            below = counts
        # n = w + s: w ones and j parts above w have crank j - w; for w >= 2,
        # no ones and largest part w (the rest in 2..w, row 0) have crank w
        for j, counts in enumerate(F):
            for s, c in enumerate(counts[:n_max - w + 1]):
                if c:
                    row = rows[w + s]
                    row[j - w] = row.get(j - w, 0) + c
                    if not j and w >= 2:
                        row[w] = row.get(w, 0) + c
    return rows


def recurrence_rows(kind: str, n_max: int) -> list[dict[int, int]]:
    """Rows 0..n_max of the rank or crank table by the recurrences above:
    the rank by (largest part, number of parts) in O(n_max^3) steps, the
    crank by (number of ones w, parts above w), after Andrews-Garvan, Bull.
    AMS 18 (1988), in about O(n_max^2 log n_max).  Rows n <= 1 are the
    conventions; an unknown kind or bad n_max is refused before any work."""
    _check_kind(kind)
    _check_order("n_max", n_max, cap=TABLE_CAP)
    rows = _crank_rows(n_max) if kind == "crank" else _rank_rows(n_max)
    rows[0] = {0: 1}
    if kind == "crank" and n_max >= 1:
        rows[1] = {-1: 1, 0: -1, 1: 1}
    return rows
