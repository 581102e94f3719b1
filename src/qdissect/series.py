"""Truncated formal power series in q with exact coefficients.

A series is a dense coefficient vector c_0..c_N (N = truncation order,
inclusive).  Its arithmetic, multiplication and inversion, is over the
integers, the one ring a program path multiplies or inverts series in:
the dissections' right-hand sides are integer theta quotients.  A product
is cut to the smaller order, so precision never silently inflates.
``crank_gf``/``rank_gf`` hold their Laurent rows in a series, and the
q-Pochhammer products (which no program path builds) keep the ring of
their argument, but no series arithmetic runs on those.  Everything is
formal: no convergence, no floats.

The named constructors build the classical q-series: the Euler product
(q;q)_inf via its sparse pentagonal expansion, general q-Pochhammer
products, bilateral theta sums f(-q^r, -q^s), the partition generating
function, and the crank and rank generating functions whose coefficients
are Laurent polynomials in the statistic-counting symbol ``a``.

``crank_gf``/``rank_gf`` are the rows of the statistic tables, which
``partitions._columns`` builds from the column (Lambert-series) form, and
``crank_coordinates`` folds the same kernel in Z[a]/(a^M - 1), M the
multiplicative order of ``a`` in a quotient ring Z[a]/(m(a)), into that
ring's integer coordinates (the one quotient-ring route, held once per
modulus under ``("crank-coordinates", coefficients)``, the modulus'
ascending coefficients).  The fold reads one integer table of the powers
of ``a``, ``_powers_of_a``, which also folds the dissections' weights; it
reduces by ``_divstep``, the one polynomial remainder, which
:mod:`qdissect.ring` uses too.  Every ring the identities use makes ``a``
a root of unity; a modulus where ``a`` has no order M <= 2*TABLE_CAP + 1
is refused.  The other two routes to the crank and rank live in modules
of their own and use nothing here: the product formulas in
:mod:`qdissect.products`, the recurrences in :mod:`qdissect.recurrences`.
So a check of the table against one of them never loads this module; the
dissections' right-hand sides (:mod:`qdissect.dissections`) and the euler
rows of ``dissect`` do.  Every int argument passes ``partitions._check_order``
before any work: no order past ORDER_CAP.

Only ``crank_gf``/``rank_gf`` build ring objects (Laurent rows), and
``crank_coordinates`` reads the ``Modulus`` class to check its argument;
they reach :mod:`qdissect.ring` as an attribute of the package, which
imports it on first access, so the other series and the dissections'
integer kernel (``_crank_coordinates``) never load it.  No program path
calls any of the three: the row commands read the crank and rank rows
from the statistic tables themselves, so no request loads
:mod:`qdissect.ring`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import qdissect

from .memo import largest
from .partitions import (TABLE_CAP, _check_order, _columns, _format_vector, partition_count,
                         stat_table)

if TYPE_CHECKING:
    from .ring import Modulus


class TruncatedSeries:
    """Formal power series known exactly through q^order; * and inverse()
    take integer coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Sequence):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("a truncated series needs at least the q^0 coefficient")
        self._coeffs = coeffs

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coefficients(self) -> tuple:
        return self._coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(self._coeffs)

    def _int_coeffs(self) -> tuple[int, ...]:
        # the arithmetic would run a float as a float and a bool as 0 or 1
        for c in self._coeffs:
            if type(c) is not int:
                raise TypeError(f"series arithmetic takes int coefficients, not {c!r}")
        return self._coeffs

    def __mul__(self, other) -> "TruncatedSeries":
        """The product, cut to the smaller order; a coefficient that is not
        an int is refused before any work."""
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        x, y = self._int_coeffs(), other._int_coeffs()
        n = min(len(x), len(y))
        y = y[:n]
        out = [0] * n
        for i, xi in enumerate(x[:n]):
            if xi:
                for j, yj in enumerate(y[:n - i], i):
                    if yj:
                        out[j] += xi * yj
        return TruncatedSeries(out)

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse through the truncation order.

        Every coefficient must be an int (TypeError otherwise) and the
        constant term y_0 must equal 1 or -1 (ValueError otherwise), so it
        is its own inverse; the rest follows from the recurrence
        y_n = -y_0 * sum c_k y_{n-k}.
        """
        c = self._int_coeffs()
        y0 = c[0]
        if not (y0 == 1 or y0 == -1):
            raise ValueError(f"constant term {y0} is not 1 or -1")
        # the nonzero c_k, k >= 1: the series inverted (q-Pochhammer products,
        # theta sums) are sparse
        terms = [(k, ck) for k, ck in enumerate(c) if k and ck]
        out = [y0] + [0] * (len(c) - 1)
        for n in range(1, len(c)):
            acc = 0
            for k, ck in terms:
                if k > n:
                    break
                acc += ck * out[n - k]
            out[n] = -y0 * acc
        return TruncatedSeries(out)

    def __repr__(self) -> str:
        return f"TruncatedSeries(order={self.order})"


def euler_product(order: int) -> TruncatedSeries:
    """(q;q)_inf truncated: the sparse sum of (-1)^k q^(k(3k-1)/2) over all k,
    which is the theta sum f(-q, -q^2)."""
    return theta(1, 2, order)


def _pochhammer(z, exponents: range, order: int) -> TruncatedSeries:
    # prod over the exponents e (each <= order) of (1 - z q^e), each factor
    # multiplied in place, highest coefficient first; at e = 0 that reads
    # every coefficient c as it writes c - z*c
    zero = z * 0
    out = [zero + 1] + [zero] * order
    for e in exponents:
        for n in range(order, e - 1, -1):
            c = out[n - e]
            if c:
                out[n] = out[n] - z * c
    return TruncatedSeries(out)


def pochhammer_inf(z, start: int, step: int, order: int) -> TruncatedSeries:
    """Infinite product prod_{k>=0} (1 - z q^(start + k*step)), truncated.

    start >= 1 keeps the constant term equal to one; only the factors with
    exponent <= order contribute.  The coefficients lie in the ring of z.
    No program path builds one (the dissections write (q^k;q^k)_inf as the
    theta sum f(-q^k, -q^2k)); it stays because perfbench/tracer.py patches
    it by name.
    """
    _check_order("start", start, 1)
    _check_order("step", step, 1)
    _check_order("order", order)
    return _pochhammer(z, range(start, order + 1, step), order)


def pochhammer_fin(z, count: int, order: int, start: int = 0) -> TruncatedSeries:
    """Finite product prod_{k=0}^{count-1} (1 - z q^(start + k)), truncated.

    With start=1 this is the shifted product (zq;q)_count as a series in q.
    count=0 gives the empty product 1.  The coefficients lie in the ring of z.
    No program path builds one; it stays because perfbench/tracer.py
    patches it by name.
    """
    _check_order("count", count)
    _check_order("order", order)
    _check_order("start", start)
    return _pochhammer(z, range(start, min(start + count, order + 1)), order)


def theta(r: int, s: int, order: int) -> TruncatedSeries:
    """Bilateral theta sum f(-q^r, -q^s), the sum over n in Z of
    (-1)^n q^(r n(n+1)/2 + s n(n-1)/2).

    theta(1, 2, N) is the Euler product (q;q)_inf, by Euler's pentagonal
    number theorem.  Exponents r, s must be nonnegative and not both zero
    so the bilateral sum truncates.  The coefficients are ints.
    """
    _check_order("r", r)
    _check_order("s", s)
    _check_order("order", order)
    if r + s < 1:
        raise ValueError("r and s must not both be zero")
    out = [0] * (order + 1)
    # n = 0, 1, 2, ... and then n = -1, -2, ...: the exponent is strictly
    # increasing in |n| once n != 0, so the first overshoot on each side
    # ends that side
    for n, step in ((0, 1), (-1, -1)):
        while (e := (r * n * (n + 1) + s * n * (n - 1)) // 2) <= order:
            out[e] += -1 if n & 1 else 1
            n += step
    return TruncatedSeries(tuple(out))


def partition_gf(order: int) -> TruncatedSeries:
    """Generating function of the partition numbers: 1/(q;q)_inf, read from
    the cached p(n) of the pentagonal recurrence rather than inverted."""
    _check_order("order", order)
    return TruncatedSeries(tuple(partition_count(n) for n in range(order + 1)))


def _divstep(vec: list[int], mod: tuple[int, ...], degree: int) -> list[int]:
    # in-place remainder of vec by the monic polynomial mod (ascending coeffs)
    for i in range(len(vec) - 1, degree - 1, -1):
        t = vec[i]
        if t:
            vec[i] = 0
            base = i - degree
            for j in range(degree):
                vec[base + j] -= t * mod[j]
    return vec


def _powers_of_a(coefficients: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The integer coordinates of a^0..a^(M-1) in Z[a]/(m(a)), m the monic
    modulus with these ascending coefficients and M the multiplicative order
    of a: each power is the one before shifted up a place and reduced.
    Refused if a has no order M <= 2*TABLE_CAP + 1, the largest Laurent
    size."""
    degree = len(coefficients) - 1
    powers = [(1,) + (0,) * (degree - 1)]
    while len(powers) <= 2 * TABLE_CAP + 1:
        power = tuple(_divstep([0, *powers[-1]], coefficients, degree)[:degree])
        if power == powers[0]:
            return powers
        powers.append(power)
    raise ValueError(f"a has no multiplicative order <= {2 * TABLE_CAP + 1} "
                     f"modulo {_format_vector(coefficients)}")


def _crank_coordinates(order: int, coefficients: tuple[int, ...]) -> tuple[tuple, ...]:
    """The columns of ``crank_coordinates`` for the modulus with these
    ascending coefficients, held under ("crank-coordinates", coefficients)
    at the largest order so far.  The order is checked by the caller."""

    def build(n: int) -> tuple[tuple, ...]:
        # a refusal that depends only on the modulus: a held entry passed it
        powers = _powers_of_a(coefficients)
        columns = [[0] * (n + 1) for _ in range(len(coefficients) - 1)]
        for power, values in zip(powers, _columns("crank", n, len(powers))):
            for i, x in enumerate(power):
                if x:
                    columns[i] = [y + x * c for y, c in zip(columns[i], values)]
        return tuple(map(tuple, columns))

    held = largest(("crank-coordinates", coefficients), order, build)
    return held if len(held[0]) == order + 1 else tuple(c[:order + 1] for c in held)


def crank_coordinates(order: int, modulus: Modulus) -> tuple[tuple, ...]:
    """The crank series in Z[a]/(modulus) as d integer columns c_i, d the
    degree of the modulus: the q^n coefficient is sum_i c_i[n] a^i.  This is
    the one quotient-ring route to the crank.

    The column kernel runs in Z[a]/(a^M - 1), M the multiplicative order of
    a in the quotient, which maps onto the quotient: class j adds in the
    coordinates of a^j (``_powers_of_a``).  A modulus where a has no order
    M <= 2*TABLE_CAP + 1 is refused before any kernel work, and so is an
    order past ORDER_CAP or a modulus that is not a ``Modulus``.  The
    columns are held per modulus at the largest order so far, shared with
    the dissections, which call ``_crank_coordinates`` with the modulus'
    coefficients."""
    _check_order("order", order)
    if not isinstance(modulus, qdissect.ring.Modulus):
        raise ValueError(f"modulus must be a Modulus, not {modulus!r}")
    return _crank_coordinates(order, modulus.coeffs)


def _table_series(kind: str, order: int) -> TruncatedSeries:
    # the held table's rows, shared as they are: neither side writes them
    _check_order("order", order, cap=TABLE_CAP)
    rows = stat_table(kind, order).rows[:order + 1]
    return TruncatedSeries(map(qdissect.ring.LaurentPoly._raw, rows))


def crank_gf(order: int) -> TruncatedSeries:
    """Crank generating function (q;q)_inf / ((aq;q)_inf (q/a;q)_inf).

    The coefficient of q^n is a Laurent polynomial in ``a`` whose a^m
    coefficient counts partitions of n by crank m (with the usual signed
    conventions at n <= 1): row n of the crank table, refused beyond
    TABLE_CAP before any work.  crank_coordinates gives the series in a
    quotient ring.  No program path calls it (the CLI reads the crank table
    itself); it stays because perfbench/tracer.py patches it by name.
    """
    return _table_series("crank", order)


def rank_gf(order: int) -> TruncatedSeries:
    """Rank generating function, sum over n of q^(n^2) / ((aq;q)_n (q/a;q)_n):
    the rows of the rank table, refused beyond TABLE_CAP before any work.
    No program path calls it (the CLI reads the rank table itself); it stays
    because perfbench/tracer.py patches it by name."""
    return _table_series("rank", order)
