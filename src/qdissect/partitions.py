"""Integer partitions and their rank/crank statistics.

The statistic tables count partitions of n by rank (largest part minus
number of parts) and by crank (largest part if there are no ones,
otherwise the number of parts exceeding the number of ones minus the
number of ones).  Three routes compute them, each in a module of its own,
and they share no code below ``partition_count``:

- ``build_stat_table`` here reads every table off ``_columns``, the column
  (Lambert-series) form of the generating functions, whose rows are also
  ``series.crank_gf``/``rank_gf``; ``series.crank_coordinates`` folds the
  same kernel in a quotient ring.
- ``recurrences.recurrence_rows`` counts by integer recurrences over the
  shape of a partition (the ``crank-columns``/``rank-columns`` checks).
- ``products.product_rows`` expands the product formulas (the
  ``crank-gf``/``rank-gf`` checks).

Each of the three refuses an unknown kind (``_check_kind``) and an order
that is not an int in 0..``TABLE_CAP`` (``_check_order``, the one check of
every int argument of the library) itself, before any work, whoever calls
it.  A one-shot process that checks one route against the table loads
only that route's module.

Enumeration (lexicographically descending) with ``rank``/``crank`` and
``rank_row``/``crank_row`` stays as the small-n oracle the tests compare
the routes against.

Crank counts for n <= 1 follow the generating-function conventions rather
than the combinatorial count: the n=1 row is {-1: 1, 0: -1, 1: 1}, which
is what the product formula forces (the lone partition {1} combinatorially
has crank -1; ``crank_row`` reports that raw row if wanted).  The column
form gives these rows by itself; ``recurrence_rows`` sets them.
``_format_terms`` renders such a row, or any Laurent polynomial, as text,
and ``_format_vector`` by the same rule a coefficient vector (a modulus or
a quotient-ring residue): the one rendering of :mod:`qdissect.ring`, of a
table check's witness and of a dissection's ring and witness.

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

# No verifier touches a power of q past this one: the congruences and
# equidistribution refuse an n_max whose n = m*n_max + r lies beyond it, the
# dissections and component-4-vanishing an order beyond it.  It is above
# every registry default (n <= 2000); past it the work grows fast: the column
# kernel takes 1.7 s at n = 5000 and 7 s at 10 000, verify_2_dissection 2.7 s
# at order 5000 and 12.4 s at 10 000 (2-core VM, CPython 3.11).
ORDER_CAP = 5000

# a -> a^r for these r sends a primitive 5th root of unity to each of the
# four: the roots dissection-5 is checked at (``verify --n-root``)
FIFTH_ROOTS = (1, 2, 3, 4)


def _check_order(name: str, value: int, least: int = 0, step: int = 1,
                 cap: int = ORDER_CAP) -> None:
    """The one check of every int argument of the library, run before any
    work and before ``memo.largest``, so that a held entry cannot answer
    first.  A bool would run as 0 or 1 and a float would fail deep inside,
    so only an ``int`` passes, >= least, a multiple of step and <= cap.  The
    cap is ORDER_CAP, TABLE_CAP for a table or other Laurent-size work, or a
    bound of the caller's: the largest n_max whose power of q stays within
    ORDER_CAP, a perturbation power's order, a table's last row."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, not {value!r}")
    if value < least or value % step:
        raise ValueError(f"{name} must be >= {least}" if step == 1
                         else f"{name} must be a positive multiple of {step}")
    if value > cap:
        # the two caps arrive as these very objects, so identity tells them
        # from a caller's bound of the same value (an order of 300, say)
        bound = ("the order cap " if cap is ORDER_CAP
                 else "the table cap " if cap is TABLE_CAP else "")
        raise ValueError(f"{name} {value} exceeds {bound}{cap}")


def _check_kind(kind: str) -> None:
    """The one check of a statistic kind, run before any work."""
    if kind not in ("rank", "crank"):
        raise ValueError(f"unknown statistic kind {kind!r}")


def _format_terms(pairs) -> str:
    """(exponent, coefficient) pairs, highest exponent first and no
    coefficient zero, as a polynomial in the symbol a: "a^2 - 2a + 3 - a^-1"."""
    chunks = []
    for e, c in pairs:
        var = "" if e == 0 else "a" if e == 1 else f"a^{e}"
        body = var if abs(c) == 1 and var else f"{abs(c)}{var}"
        chunks.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(chunks)
    # the first term carries its sign without a space, "-" only
    return "0" if not text else text[2:] if text[0] == "+" else "-" + text[2:]


def _format_vector(coefficients) -> str:
    """Ascending coefficients c_0, c_1, ... of a polynomial in a (a modulus,
    a quotient-ring residue), as ``_format_terms`` writes it."""
    return _format_terms([(e, c) for e, c in enumerate(coefficients) if c][::-1])


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
            if type(p) is not int or p < 1:
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
    """All partitions of n, each once, in lexicographically descending order.
    A bad n is refused by the call, before any partition is asked for."""
    _check_order("n", n)
    return map(Partition, _descending_parts(n, n))


_pcounts = [1]   # pentagonal-recurrence cache, p(0) = 1


def partition_count(n: int) -> int:
    """p(n) via the Euler pentagonal recurrence (p(0) = 1)."""
    # the inner call of the counting loops: the check runs only to refuse
    if type(n) is not int or not 0 <= n <= ORDER_CAP:
        _check_order("n", n)
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

    def row(self, n: int) -> dict[int, int]:
        """A copy of row n, which the caller may change freely.  No program
        path reads a row through it; it stays because perfbench/tracer.py
        patches it by name."""
        _check_order("n", n, cap=self.n_max)
        return dict(self.rows[n])

    def count_mod(self, t: int, n: int) -> tuple[int, ...]:
        """Row n folded mod t: entry k totals the values congruent to k."""
        _check_order("t", t, 1)
        _check_order("n", n, cap=self.n_max)
        out = [0] * t
        for m, c in self.rows[n].items():
            out[m % t] += c
        return tuple(out)


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
    _check_kind(kind)
    _check_order("n_max", n_max, cap=TABLE_CAP)
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
    _check_order("n_max", n_max, cap=TABLE_CAP)
    # the lambda looks build_stat_table up when it runs, so a wrapped or
    # patched one is the one that builds
    return largest(("table", kind), n_max, lambda n: build_stat_table(kind, n))
