"""Truncated formal power series in q with exact coefficients.

A series is a dense coefficient vector c_0..c_N (N = truncation order,
inclusive).  The coefficients are ``int``, :class:`~qdissect.ring.LaurentPoly`
or :class:`~qdissect.ring.QuotientElem`, and each carries its own ring: the
zero that pads a series and the one that seeds a product come from the
coefficients themselves, so a series stays in one ring.  Everything is
formal: no convergence, no floats.  Binary operations truncate to the
smaller order, so precision never silently inflates.

The named constructors build the classical q-series: the Euler product
(q;q)_inf via its sparse pentagonal expansion, general q-Pochhammer
products, bilateral theta sums f(-q^r, -q^s), the partition generating
function, and the crank and rank generating functions whose coefficients
are Laurent polynomials in the statistic-counting symbol ``a``.

The crank and rank series come from two routes that share no code below
``partition_count``.  ``crank_gf``/``rank_gf`` are the rows of the
statistic tables, which ``partitions._columns`` builds from the column
(Lambert-series) form, and ``crank_coordinates`` folds the same kernel in
Z[a]/(a^M - 1), M the multiplicative order of ``a`` in a quotient ring
Z[a]/(m(a)), into that ring's integer coordinates (the one quotient-ring
route, held once per modulus).  Every ring the identities use makes ``a``
a root of unity; a modulus where ``a`` has no order M <= 2*TABLE_CAP + 1
is refused.  ``product_rows`` expands the product
formulas, the independent side of the ``crank-gf``/``rank-gf`` checks and
of the a = 1 side of ``component-4-vanishing``: one packed kernel over
Z[a]/(a^M - 1), M Python ints, one per residue class of the exponent of
``a``, each holding its q-coefficients as fixed-width digits, so that
division by a factor (1 - a^(+-1) q^k) is a few big-int shifts and
additions per class.  Like the tables, a build at the Laurent size
2N + 1 is refused beyond TABLE_CAP.
"""

from __future__ import annotations

import itertools
from math import isqrt
from typing import Callable, Sequence

from .memo import largest
from .partitions import TABLE_CAP, _columns, partition_count, stat_table
from .ring import LaurentPoly, Modulus, QuotientElem


def _check_order(order: int) -> None:
    if order < 0:
        raise ValueError("order must be >= 0")


class TruncatedSeries:
    """Formal power series known exactly through q^order."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Sequence):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("a truncated series needs at least the q^0 coefficient")
        self._coeffs = coeffs

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        _check_order(order)
        return cls((1,) + (0,) * order)

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        _check_order(order)
        return cls((0,) * (order + 1))

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coefficients(self) -> tuple:
        return self._coeffs

    def _zero(self):
        # the zero of this series' ring
        return self._coeffs[0] * 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(self._coeffs)

    def __add__(self, other) -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return TruncatedSeries(
            tuple(x + y for x, y in zip(self._coeffs[: n + 1], other._coeffs[: n + 1]))
        )

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(tuple(-c for c in self._coeffs))

    def __sub__(self, other) -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = min(self.order, other.order)
        x, y = self._coeffs, other._coeffs
        out = [x[0] * y[0] * 0] * (n + 1)
        for i in range(n + 1):
            xi = x[i]
            if not xi:
                continue
            for j in range(n + 1 - i):
                yj = y[j]
                if not yj:
                    continue
                out[i + j] = out[i + j] + xi * yj
        return TruncatedSeries(tuple(out))

    def shift(self, k: int) -> "TruncatedSeries":
        """Multiply by q^k (k >= 0).  Exact, so the order grows by k."""
        if k < 0:
            raise ValueError("shift must be nonnegative")
        return TruncatedSeries((self._zero(),) * k + self._coeffs)

    def truncate(self, order: int) -> "TruncatedSeries":
        """Drop coefficients above the given order (which must not exceed ours)."""
        if order > self.order:
            raise ValueError(f"cannot extend a series from order {self.order} to {order}")
        if order == self.order:
            return self
        return TruncatedSeries(self._coeffs[: order + 1])

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse through the truncation order.

        The constant term y_0 must equal 1 or -1 (ValueError otherwise), so
        it is its own inverse; the rest follows from the recurrence
        y_n = -y_0 * sum c_k y_{n-k}.
        """
        y0 = self._coeffs[0]
        if not (y0 == 1 or y0 == -1):
            raise ValueError(f"constant term {y0} is not 1 or -1")
        zero = y0 * 0
        out = [y0] + [zero] * self.order
        for n in range(1, self.order + 1):
            acc = zero
            for k in range(1, n + 1):
                ck = self._coeffs[k]
                if not ck:
                    continue
                yk = out[n - k]
                if not yk:
                    continue
                acc = acc + ck * yk
            if acc:
                out[n] = -(y0 * acc)
        return TruncatedSeries(tuple(out))

    def dissect(self, m: int) -> list["TruncatedSeries"]:
        """Split by exponent residue: returns P_0..P_{m-1} with P_k[j] = c_{jm+k}.

        Residue classes beyond the truncation order come back as order-0
        zero series; they carry no information but keep the list length m.
        """
        if m < 1:
            raise ValueError("dissection modulus must be >= 1")
        parts = []
        for k in range(m):
            sub = self._coeffs[k :: m] if k <= self.order else (self._zero(),)
            parts.append(TruncatedSeries(sub))
        return parts

    def map_coefficients(self, fn: Callable) -> "TruncatedSeries":
        """Apply fn to every coefficient, e.g. to lift it into another ring."""
        return TruncatedSeries(tuple(fn(c) for c in self._coeffs))

    def __repr__(self) -> str:
        return f"TruncatedSeries(order={self.order})"


def euler_product(order: int) -> TruncatedSeries:
    """(q;q)_inf truncated: the sparse sum of (-1)^k q^(k(3k-1)/2) over all k,
    which is the theta sum f(-q, -q^2)."""
    return theta(1, 2, order)


def pochhammer_inf(z, start: int, step: int, order: int) -> TruncatedSeries:
    """Infinite product prod_{k>=0} (1 - z q^(start + k*step)), truncated.

    start >= 1 keeps the constant term equal to one; only the factors with
    exponent <= order contribute.  The coefficients lie in the ring of z.
    """
    if start < 1:
        raise ValueError("start must be >= 1 so the constant term is one")
    if step < 1:
        raise ValueError("step must be >= 1")
    _check_order(order)
    zero = z * 0
    out = [zero] * (order + 1)
    out[0] = zero + 1
    e = start
    while e <= order:
        # multiply by (1 - z q^e) in place, highest coefficient first
        for n in range(order, e - 1, -1):
            c = out[n - e]
            if c:
                out[n] = out[n] - z * c
        e += step
    return TruncatedSeries(tuple(out))


def pochhammer_fin(z, count: int, order: int, start: int = 0) -> TruncatedSeries:
    """Finite product prod_{k=0}^{count-1} (1 - z q^(start + k)), truncated.

    With start=1 this is the shifted product (zq;q)_count as a series in q.
    count=0 gives the empty product 1.  The coefficients lie in the ring of z.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    _check_order(order)
    zero = z * 0
    one = zero + 1
    out = [zero] * (order + 1)
    out[0] = one
    for k in range(count):
        e = start + k
        if e > order:
            break
        if e == 0:
            # constant factor (1 - z)
            w = one - z
            for n in range(order + 1):
                if out[n]:
                    out[n] = out[n] * w
            continue
        for n in range(order, e - 1, -1):
            c = out[n - e]
            if c:
                out[n] = out[n] - z * c
    return TruncatedSeries(tuple(out))


def theta(r: int, s: int, order: int) -> TruncatedSeries:
    """Bilateral theta sum f(-q^r, -q^s), the sum over n in Z of
    (-1)^n q^(r n(n+1)/2 + s n(n-1)/2).

    theta(1, 2, N) is the Euler product (q;q)_inf, by Euler's pentagonal
    number theorem.  Exponents r, s must be nonnegative and not both zero
    so the bilateral sum truncates.  The coefficients are ints.
    """
    if r < 0 or s < 0 or r + s < 1:
        raise ValueError("exponents must be nonnegative and not both zero")
    _check_order(order)
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
    _check_order(order)
    return TruncatedSeries(tuple(partition_count(n) for n in range(order + 1)))


# The packed kernel of the product route.  A series in Z[a]/(a^M - 1),
# truncated after q^N, is a list of M Python ints: int r packs the
# q-coefficients of the residue class a^r as B-bit digits,
# c_0 + c_1 2^B + ... + c_N 2^(BN), reduced modulo 2^(B(N+1)).  Sending q to
# 2^B maps Z[q]/(q^(N+1)) onto the integers modulo 2^(B(N+1)), so adding
# series and multiplying by q^s cost one big-int addition and one shift per
# class.  The digits are read back as balanced residues in
# (-2^(B-1), 2^(B-1)); they are the true coefficients because _digit_bits
# keeps every |c_n| below 2^(B-1).


def _digit_bits(order: int) -> int:
    """Digit width B for packed crank and rank builds through q^order.

    Write |F| for the q-series whose q^n coefficient is the sum of the
    absolute values of all a^e q^n coefficients of F; then |FG| <= |F||G|
    coefficientwise, and a class coefficient in Z[a]/(a^M - 1) is at most
    the matching coefficient of |F|.  The crank numerator (q;q)_inf has
    coefficients in {-1, 0, 1}, so |(q;q)_inf| <= 1/(1 - q); a partial
    product of the factors 1 + (a^(+-1) q^k)^(2^i) has |.| <= 1/(1 - q^k).
    In the rank build, |T| <= H_k = 1/(1 - q) prod_{j >= k} (1 - q^j)^-2 by
    induction down k, since H_k has nondecreasing coefficients starting at
    1, so 1 + q^(2k-1) H_k <= H_k.  Either way every intermediate series is
    bounded by 1/((1 - q)(q;q)_inf^2), whose coefficients are nondecreasing:
    |c_n| <= sum_{j <= order} p(j) (p(0) + ... + p(order - j)).  B is one
    bit more than that bound, rounded up to whole bytes for the unpacking.
    """
    p = [partition_count(n) for n in range(order + 1)]
    below = list(itertools.accumulate(p))
    bound = sum(p[j] * below[order - j] for j in range(order + 1))
    return (bound.bit_length() + 8) // 8 * 8


def _divide_packed(classes: list[int], k: int, order: int, bits: int) -> list[int]:
    """A packed series divided by (1 - a q^k)(1 - q^k/a).

    1/(1 - x) = (1 + x)(1 + x^2)(1 + x^4)..., and with x = a^(+-1) q^k
    the factors 1 + a^e q^s with s > order are 1 modulo q^(order+1).
    Multiplying by 1 + a^e q^s adds
    class r - e, shifted up s digits, into class r.  Only the digits below
    q^(order+1-s) of the shifted class matter, so it is masked to those;
    the sum itself may carry past q^order, and the bits up there are
    dropped when the digits are read back.
    """
    size = len(classes)
    for e in (1, -1):
        s = k
        while s <= order:
            r = e % size
            low = (1 << bits * (order + 1 - s)) - 1
            shift = bits * s
            classes = [c + ((d & low) << shift) if d else c
                       for c, d in zip(classes, classes[-r:] + classes[:-r])]
            s *= 2
            e *= 2
    return classes


def _packed_crank(order: int, size: int, bits: int) -> list[int]:
    """(q;q)_inf / ((aq;q)_inf (q/a;q)_inf) through q^order in Z[a]/(a^size - 1)."""
    mask = (1 << bits * (order + 1)) - 1
    numerator = sum(c << bits * n for n, c in enumerate(euler_product(order).coefficients))
    classes = [numerator & mask] + [0] * (size - 1)
    for k in range(1, order + 1):
        classes = _divide_packed(classes, k, order, bits)
    return classes


def _packed_rank(order: int, size: int, bits: int) -> list[int]:
    """sum_n q^(n^2) / ((aq;q)_n (q/a;q)_n) through q^order in Z[a]/(a^size - 1).

    Built in the nested (Durfee) form T <- 1 + q^(2k-1) T / ((1 - aq^k)(1 - q^k/a))
    for k = isqrt(order) down to 1, since q^(n^2) = q^1 q^3 ... q^(2n-1).
    """
    mask = (1 << bits * (order + 1)) - 1
    classes = [1] + [0] * (size - 1)
    for k in range(isqrt(order), 0, -1):
        classes = [(c << bits * (2 * k - 1)) & mask for c in classes]
        classes = _divide_packed(classes, k, order, bits)
        classes[0] += 1
    return classes


def _unpacked(build: Callable, order: int, size: int) -> list[list[int]]:
    """Run a packed build through q^order in Z[a]/(a^size - 1) and read back
    the balanced digits c_0..c_order of every class."""
    bits = _digit_bits(order)
    width = bits // 8
    half = 1 << (bits - 1)
    mask = (1 << bits * (order + 1)) - 1
    # half added to every digit makes each one nonnegative, so no digit
    # borrows from the next one
    bias = half * (mask // ((1 << bits) - 1))
    columns = []
    for value in build(order, size, bits):
        raw = ((value + bias) & mask).to_bytes(width * (order + 1), "little")
        columns.append([int.from_bytes(raw[i:i + width], "little") - half
                        for i in range(0, len(raw), width)])
    return columns


def _powers_of_a(modulus: Modulus) -> list[QuotientElem]:
    """a^0..a^(M-1) in Z[a]/(modulus), where M is the multiplicative order
    of a.  Refused if a has no order M <= 2*TABLE_CAP + 1, the largest
    Laurent size."""
    a = modulus.project(LaurentPoly.monomial(1, 1))
    powers = [modulus.one()]
    while len(powers) <= 2 * TABLE_CAP + 1:
        power = powers[-1] * a
        if power == powers[0]:
            return powers
        powers.append(power)
    raise ValueError(f"a has no multiplicative order <= {2 * TABLE_CAP + 1} "
                     f"modulo {modulus}")


def product_rows(kind: str, order: int, size: int = 0) -> tuple[dict[int, int], ...]:
    """The q^0..q^order coefficients of the crank or rank product formula in
    Z[a]/(a^size - 1), each as {exponent: coefficient} without zeros, the
    exponents taken in -size/2..size/2.  Size 0 means the Laurent size
    2*order + 1, where they are the Laurent exponents: |crank| and |rank| of
    a partition of n are at most n, so no class wraps.

    Held per (kind, size) at the largest order so far.  An unknown kind and a
    Laurent-size build beyond TABLE_CAP are refused before any work."""
    if kind not in ("rank", "crank"):
        raise ValueError(f"unknown statistic kind {kind!r}")
    if not size and order > TABLE_CAP:
        raise ValueError(f"order {order} exceeds the table cap {TABLE_CAP}")

    def build(n: int) -> tuple[dict[int, int], ...]:
        classes = size or 2 * n + 1
        packed = _packed_crank if kind == "crank" else _packed_rank
        rows: list[dict[int, int]] = [{} for _ in range(n + 1)]
        for r, column in enumerate(_unpacked(packed, n, classes)):
            e = r if 2 * r < classes else r - classes
            for m, c in enumerate(column):
                if c:
                    rows[m][e] = c
        return tuple(rows)

    rows = largest(("product", kind, size), order, build)
    return rows if len(rows) == order + 1 else rows[:order + 1]


def crank_coordinates(order: int, modulus: Modulus) -> tuple[tuple, ...]:
    """The crank series in Z[a]/(modulus) as d integer columns c_i, d the
    degree of the modulus: the q^n coefficient is sum_i c_i[n] a^i.  This is
    the one quotient-ring route to the crank.

    The column kernel runs in Z[a]/(a^M - 1), M the multiplicative order of
    a in the quotient, which maps onto the quotient: class j adds in the
    residue of a^j.  A modulus where a has no order M <= 2*TABLE_CAP + 1 is
    refused before any kernel work; the order itself is not capped.  The
    columns are held per modulus at the largest order so far."""

    def build(n: int) -> tuple[tuple, ...]:
        # a refusal that depends only on the modulus: a held entry passed it
        powers = _powers_of_a(modulus)
        columns = [[0] * (n + 1) for _ in range(modulus.degree)]
        for power, values in zip(powers, _columns("crank", n, len(powers))):
            for i, x in enumerate(power.residue):
                if x:
                    columns[i] = [y + x * c for y, c in zip(columns[i], values)]
        return tuple(map(tuple, columns))

    held = largest(("crank-coordinates", modulus), order, build)
    return held if len(held[0]) == order + 1 else tuple(c[:order + 1] for c in held)


def _table_series(kind: str, order: int) -> TruncatedSeries:
    # the held table's rows, shared as they are: neither side writes them
    _check_order(order)
    if order > TABLE_CAP:
        raise ValueError(f"order {order} exceeds the table cap {TABLE_CAP}")
    rows = stat_table(kind, order).rows[:order + 1]
    return TruncatedSeries([LaurentPoly._raw(row) for row in rows])


def crank_gf(order: int) -> TruncatedSeries:
    """Crank generating function (q;q)_inf / ((aq;q)_inf (q/a;q)_inf).

    The coefficient of q^n is a Laurent polynomial in ``a`` whose a^m
    coefficient counts partitions of n by crank m (with the usual signed
    conventions at n <= 1): row n of the crank table, refused beyond
    TABLE_CAP before any work.  crank_coordinates gives the series in a
    quotient ring.
    """
    return _table_series("crank", order)


def rank_gf(order: int) -> TruncatedSeries:
    """Rank generating function, sum over n of q^(n^2) / ((aq;q)_n (q/a;q)_n):
    the rows of the rank table, refused beyond TABLE_CAP before any work."""
    return _table_series("rank", order)
