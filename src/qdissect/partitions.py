"""Integer partitions and their rank/crank statistics, by exact enumeration.

The enumeration is the combinatorial ground truth the generating-function
layer is verified against.  Partitions of n are produced in lexicographically
descending order; the statistic tables count partitions by rank (largest
part minus number of parts) and by crank (largest part if there are no
ones, otherwise the number of parts exceeding the number of ones minus the
number of ones).

Crank counts for n <= 1 follow the generating-function conventions rather
than raw enumeration: the n=1 row is {-1: 1, 0: -1, 1: 1}, which is what
the product formula forces (the lone partition {1} combinatorially has
crank -1; ``crank_row`` reports that raw row if wanted).

Tables are built by one sequential pass over n and store one row dict per
n, so a row lookup touches only that row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

# Full-enumeration table builds beyond this are refused, whichever entry
# point asks; at 60 there are just under a million partitions per row at
# the top end.
ENUMERATION_CAP = 60


@dataclass(frozen=True)
class Partition:
    """A weakly decreasing tuple of positive integers."""

    parts: tuple[int, ...] = ()

    def __post_init__(self):
        prev = None
        for p in self.parts:
            if not isinstance(p, int) or p < 1:
                raise ValueError("parts must be positive integers")
            if prev is not None and p > prev:
                raise ValueError("parts must be weakly decreasing")
            prev = p

    @property
    def weight(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __str__(self) -> str:
        return "{" + ",".join(map(str, self.parts)) + "}"


def _descending_parts(n: int, max_part: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _descending_parts(n - first, first):
            yield (first,) + rest


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """All partitions of n, each once, in lexicographically descending order."""
    if n < 0:
        raise ValueError("n must be >= 0")
    for parts in _descending_parts(n, n):
        yield Partition(parts)


_pcounts = [1]   # pentagonal-recurrence cache, p(0) = 1


def partition_count(n: int) -> int:
    """p(n) via the Euler pentagonal recurrence (p(0) = 1)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    while len(_pcounts) <= n:
        m = len(_pcounts)
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > m:
                break
            sign = 1 if k % 2 else -1
            total += sign * _pcounts[m - g1]
            g2 = k * (3 * k + 1) // 2
            if g2 <= m:
                total += sign * _pcounts[m - g2]
            k += 1
        _pcounts.append(total)
    return _pcounts[n]


def rank(pi: Partition) -> int:
    """Largest part minus the number of parts."""
    if not pi.parts:
        raise ValueError("the empty partition has no rank")
    return pi.parts[0] - len(pi.parts)


def crank(pi: Partition) -> int:
    """Largest part if there are no ones; otherwise (parts larger than the
    number of ones) minus (number of ones)."""
    parts = pi.parts
    if not parts:
        raise ValueError("the empty partition has no crank")
    ones = 0
    for p in reversed(parts):
        if p != 1:
            break
        ones += 1
    if ones == 0:
        return parts[0]
    exceeding = 0
    for p in parts:
        if p > ones:
            exceeding += 1
        else:
            break
    return exceeding - ones


def _stat_row(stat: Callable[[Partition], int], n: int) -> dict[int, int]:
    row: dict[int, int] = {}
    for pi in enumerate_partitions(n):
        m = stat(pi)
        row[m] = row.get(m, 0) + 1
    return row


def rank_row(n: int) -> dict[int, int]:
    """Counts of partitions of n by rank, from raw enumeration."""
    return _stat_row(rank, n)


def crank_row(n: int) -> dict[int, int]:
    """Counts of partitions of n by crank, from raw enumeration.

    Note the n=1 row here is the combinatorial {-1: 1}; the statistic
    tables override n <= 1 with the generating-function conventions.
    """
    return _stat_row(crank, n)


@dataclass(frozen=True)
class StatTable:
    """Counts of partitions of n by statistic value m, for 0 <= n <= n_max.

    ``rows[n]`` maps each statistic value m to its count; values with no
    partitions are absent.
    """

    kind: str
    rows: tuple[dict[int, int], ...] = field(repr=False)

    @property
    def n_max(self) -> int:
        return len(self.rows) - 1

    def _check_n(self, n: int) -> None:
        if not 0 <= n <= self.n_max:
            raise ValueError(f"n={n} outside table range 0..{self.n_max}")

    def count(self, m: int, n: int) -> int:
        self._check_n(n)
        return self.rows[n].get(m, 0)

    def row(self, n: int) -> dict[int, int]:
        """A copy of row n, which the caller may change freely."""
        self._check_n(n)
        return dict(self.rows[n])

    def count_mod(self, k: int, t: int, n: int) -> int:
        """Total count over statistic values congruent to k modulo t."""
        if t < 1:
            raise ValueError("modulus must be >= 1")
        if not 0 <= k < t:
            raise ValueError(f"residue class {k} outside 0..{t - 1}")
        self._check_n(n)
        return sum(c for m, c in self.rows[n].items() if m % t == k)

    def truncated(self, n_max: int) -> "StatTable":
        if n_max > self.n_max:
            raise ValueError("cannot extend a table by truncation")
        if n_max == self.n_max:
            return self
        return StatTable(self.kind, self.rows[: n_max + 1])


def build_stat_table(kind: str, n_max: int) -> StatTable:
    """Count partitions of every n <= n_max by rank or crank.

    Rows for n >= 2 (rank: n >= 1) come from full enumeration, one n after
    another; the remaining rows are the generating-function conventions.
    n_max beyond ENUMERATION_CAP is refused before any partition is listed.
    """
    if kind not in ("rank", "crank"):
        raise ValueError(f"unknown statistic kind {kind!r}")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if n_max > ENUMERATION_CAP:
        raise ValueError(f"n_max {n_max} exceeds the enumeration cap {ENUMERATION_CAP}")

    stat = crank if kind == "crank" else rank
    rows: list[dict[int, int]] = [{0: 1}]
    if kind == "crank" and n_max >= 1:
        rows.append({-1: 1, 0: -1, 1: 1})
    rows.extend(_stat_row(stat, n) for n in range(len(rows), n_max + 1))
    return StatTable(kind, tuple(rows))
