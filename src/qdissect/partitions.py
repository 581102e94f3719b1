"""Integer partitions and their rank/crank statistics.

The statistic tables count partitions of n by rank (largest part minus
number of parts) and by crank (largest part if there are no ones,
otherwise the number of parts exceeding the number of ones minus the
number of ones).  Three routes compute them, and they share no code below
``partition_count``:

- ``build_stat_table`` reads every table off ``_columns``, the column
  (Lambert-series) form of the generating functions, whose rows are also
  ``series.crank_gf``/``rank_gf``; ``series.crank_coordinates`` folds the
  same kernel in a quotient ring.
- ``recurrence_rows`` counts by integer recurrences over the shape of a
  partition (the ``crank-columns``/``rank-columns`` checks).
- ``series.product_rows`` expands the product formulas (the
  ``crank-gf``/``rank-gf`` checks).

Each of the three refuses an unknown kind, a negative order and rows
beyond ``TABLE_CAP`` itself, before any work, whoever calls it.

Enumeration (lexicographically descending) with ``rank``/``crank`` and
``rank_row``/``crank_row`` stays as the small-n oracle the tests compare
the routes against.

Crank counts for n <= 1 follow the generating-function conventions rather
than the combinatorial count: the n=1 row is {-1: 1, 0: -1, 1: 1}, which
is what the product formula forces (the lone partition {1} combinatorially
has crank -1; ``crank_row`` reports that raw row if wanted).  The column
form gives these rows by itself; ``recurrence_rows`` sets them.

Tables store one row dict per n, so a row lookup touches only that row;
``stat_table`` shares the largest table built so far per kind through
``qdissect.memo``, the one cache of series and tables.
"""

from __future__ import annotations

from typing import Callable, Iterator

from .memo import largest

# Tables, every check that reads one, and the recurrences and product
# formulas at the Laurent size 2n + 1 are refused beyond this n, whichever
# entry point asks.  The column form alone would reach much
# further (0.12 s to n = 400, 2-core VM, CPython 3.11); the cap is where its
# checks still run in a few seconds: to n = 300 the rank recurrence takes
# about 2.2 s and the crank product 1.2 s, the crank recurrence about 0.1 s.
TABLE_CAP = 300


class _Record:
    """Base of the immutable records: fields are set once in ``__init__``
    and compared, hashed and shown by ``_key``/``__slots__``.

    Plain ``__slots__`` classes rather than frozen dataclasses, because
    ``dataclasses`` imports ``inspect``, which costs every CLI process
    about 10 ms of start-up.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        # each field's slot setter, looked up once per class rather than by
        # name through object.__setattr__ for every field of every record
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def _set(self, *values) -> None:
        """Set the fields, one value each in __slots__ order."""
        for set_field, value in zip(self._setters, values):
            set_field(self, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        """The fields that take part in equality and hashing."""
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Partition(_Record):
    """A weakly decreasing tuple of positive integers."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[int, ...] = ()):
        prev = None
        for p in parts:
            if not isinstance(p, int) or p < 1:
                raise ValueError("parts must be positive integers")
            if prev is not None and p > prev:
                raise ValueError("parts must be weakly decreasing")
            prev = p
        self._set(parts)

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


class StatTable(_Record):
    """Counts of partitions of n by statistic value m, for 0 <= n <= n_max.

    ``rows[n]`` maps each statistic value m to its count; values with no
    partitions are absent.  ``count_mod`` folds a row mod t in one pass.
    Tables are shared through the ``stat_table`` cache, so their fields
    cannot be reassigned; they are unhashable, as their rows are dicts.
    """

    __slots__ = ("kind", "rows")

    def __init__(self, kind: str, rows: tuple[dict[int, int], ...]):
        self._set(kind, rows)

    __hash__ = None

    def __repr__(self) -> str:
        return f"StatTable(kind={self.kind!r}, n_max={self.n_max})"

    @property
    def n_max(self) -> int:
        return len(self.rows) - 1

    def _check_n(self, n: int) -> None:
        if not 0 <= n <= self.n_max:
            raise ValueError(f"n={n} outside table range 0..{self.n_max}")

    def row(self, n: int) -> dict[int, int]:
        """A copy of row n, which the caller may change freely."""
        self._check_n(n)
        return dict(self.rows[n])

    def count_mod(self, t: int, n: int) -> tuple[int, ...]:
        """Row n folded mod t: entry k totals the values congruent to k."""
        if t < 1:
            raise ValueError("modulus must be >= 1")
        self._check_n(n)
        out = [0] * t
        for m, c in self.rows[n].items():
            out[m % t] += c
        return tuple(out)


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
    if kind not in ("rank", "crank"):
        raise ValueError(f"unknown statistic kind {kind!r}")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if n_max > TABLE_CAP:
        raise ValueError(f"n_max {n_max} exceeds the table cap {TABLE_CAP}")
    rows = _crank_rows(n_max) if kind == "crank" else _rank_rows(n_max)
    rows[0] = {0: 1}
    if kind == "crank" and n_max >= 1:
        rows[1] = {-1: 1, 0: -1, 1: 1}
    return rows


def _columns(kind: str, order: int, size: int) -> list[list[int]]:
    """The crank or rank series through q^order in Z[a]/(a^size - 1): size
    columns, column r the q-coefficients of the class a^r.

    The column (Lambert) form (Garvan, Trans. AMS 305 (1988)) is
    (1 - a)/(q;q)_inf * sum_{n in Z} (-1)^n q^e(n) / (1 - a q^n), with
    e(n) = n(n+1)/2 for the crank and n(3n+1)/2 for the rank.  The n = 0
    term is 1; for m >= 1, n = m and n = -m expand to
    (-1)^m sum_{k >= 0} (a^k - a^-(k+1)) q^(e(m) + mk), so the numerator is
    O(N log N) unit terms.  Each class is then multiplied by 1/(q;q)_inf in
    one Kronecker-packed product with p(0..N).  The digits, of one bit more
    than p(N) has, in whole bytes, are balanced and hold the numerator's
    (at most 4(sqrt(2N) + 1)) and the result's (at most max(p(n), 2): class
    sums of partition counts, but for n = 1).  Both series are fixed by
    a -> 1/a, so class r > size//2 is the list of class size - r.
    """
    bits = (partition_count(order).bit_length() + 8) // 8 * 8
    width, half = bits // 8, 1 << bits - 1
    numerators: list[dict[int, int]] = [{} for _ in range(size)]
    numerators[0][0] = 1
    for m in range(1, order + 1):
        e = m * (m + 1) // 2 if kind == "crank" else m * (3 * m + 1) // 2
        if e > order:
            break
        s = -1 if m % 2 else 1
        for k, j in enumerate(range(e, order + 1, m)):
            for r, t in ((k, s), (k + 1, -s), (~k, -s), (-k, s)):
                terms = numerators[r % size]
                terms[j] = terms.get(j, 0) + t
    # every digit is stored plus half, so none is negative; zero holds only
    # that offset, and bias is its value
    zero = half.to_bytes(width, "little") * (order + 1)
    bias = int.from_bytes(zero, "little")
    mask = (1 << bits * (order + 1)) - 1
    p = int.from_bytes(b"".join([partition_count(n).to_bytes(width, "little")
                                 for n in range(order + 1)]), "little")
    columns = []
    for terms in numerators[:size // 2 + 1]:
        digits = bytearray(zero)
        for j, d in terms.items():
            digits[j * width:(j + 1) * width] = (d + half).to_bytes(width, "little")
        raw = (((int.from_bytes(digits, "little") - bias) * p + bias) & mask).to_bytes(
            len(zero), "little")
        columns.append([int.from_bytes(raw[i:i + width], "little") - half
                        for i in range(0, len(raw), width)])
    return columns + columns[size - len(columns):0:-1]


def build_stat_table(kind: str, n_max: int) -> StatTable:
    """Count partitions of every n <= n_max by rank or crank.

    The rows are the Laurent coefficients of the column form, ``_columns``
    at size 2*n_max + 1, where the classes -n_max..n_max are the statistic
    values: |crank| and |rank| of a partition of n are at most n, so no
    class wraps.  n_max beyond TABLE_CAP is refused before any work.
    """
    if kind not in ("rank", "crank"):
        raise ValueError(f"unknown statistic kind {kind!r}")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if n_max > TABLE_CAP:
        raise ValueError(f"n_max {n_max} exceeds the table cap {TABLE_CAP}")
    size = 2 * n_max + 1
    rows: list[dict[int, int]] = [{} for _ in range(n_max + 1)]
    for r, column in enumerate(_columns(kind, n_max, size)):
        m = r if r <= n_max else r - size
        for n in range(abs(m), n_max + 1):
            if column[n]:
                rows[n][m] = column[n]
    return StatTable(kind, tuple(rows))


def stat_table(kind: str, n_max: int) -> StatTable:
    """The cached table of `kind` covering at least 0..n_max.

    Tables are immutable, so the largest one built so far per kind is kept
    in ``memo`` and shared; a request beyond it builds a new one.
    """
    # the lambda looks build_stat_table up when it runs, so a wrapped or
    # patched one is the one that builds
    return largest(("table", kind), n_max, lambda n: build_stat_table(kind, n))
