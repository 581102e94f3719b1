"""Truncated formal power series in q over a pluggable exact coefficient ring.

A series is a dense coefficient vector c_0..c_N (N = truncation order,
inclusive) together with a :class:`~qdissect.ring.CoefficientRing` handle.
Everything is formal: no convergence, no floats.  Binary operations
truncate to the smaller order, so precision never silently inflates.

The named constructors build the classical q-series: the Euler product
(q;q)_inf via its sparse pentagonal expansion, general q-Pochhammer
products, bilateral theta sums f(+-q^r, +-q^s), the partition generating
function, and the crank and rank generating functions whose coefficients
are Laurent polynomials in the statistic-counting symbol ``a`` (the crank
one also directly in a quotient ring Z[a]/(m(a))).  Both statistic
functions run one packed kernel: the series lives in Z[a]/(a^M - 1) as M
Python ints, one per residue class of the exponent of ``a``, each holding
its q-coefficients as fixed-width digits, so that division by a factor
(1 - a^(+-1) q^k) is a few big-int shifts and additions per class.  M is
the multiplicative order of ``a`` in the target ring, or 2N+1 for the
Laurent polynomials; each coefficient is projected once at the end.
"""

from __future__ import annotations

import itertools
from math import isqrt
from typing import Callable, Sequence

from .memo import largest
from .partitions import partition_count
from .ring import (
    INTEGER_RING,
    LAURENT_RING,
    CoefficientRing,
    LaurentPoly,
    Modulus,
    QuotientElem,
    quotient_ring,
)


class TruncatedSeries:
    """Formal power series known exactly through q^order."""

    __slots__ = ("_coeffs", "_ring")

    def __init__(self, coeffs: Sequence, ring: CoefficientRing = INTEGER_RING):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("a truncated series needs at least the q^0 coefficient")
        self._coeffs = coeffs
        self._ring = ring

    @classmethod
    def one(cls, order: int, ring: CoefficientRing = INTEGER_RING) -> "TruncatedSeries":
        return cls((ring.one,) + (ring.zero,) * order, ring)

    @classmethod
    def zero(cls, order: int, ring: CoefficientRing = INTEGER_RING) -> "TruncatedSeries":
        return cls((ring.zero,) * (order + 1), ring)

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def ring(self) -> CoefficientRing:
        return self._ring

    @property
    def coefficients(self) -> tuple:
        return self._coeffs

    def coefficient(self, n: int):
        if not 0 <= n <= self.order:
            raise ValueError(f"coefficient index {n} outside truncation order {self.order}")
        return self._coeffs[n]

    def _check_ring(self, other: "TruncatedSeries") -> None:
        if self._ring is not other._ring:
            raise ValueError(
                f"coefficient ring mismatch: {self._ring.name} vs {other._ring.name}"
            )

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._ring is other._ring and self._coeffs == other._coeffs

    def __hash__(self):
        return hash((self._ring.name, self._coeffs))

    def __add__(self, other) -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_ring(other)
        n = min(self.order, other.order)
        return TruncatedSeries(
            tuple(x + y for x, y in zip(self._coeffs[: n + 1], other._coeffs[: n + 1])),
            self._ring,
        )

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(tuple(-c for c in self._coeffs), self._ring)

    def __sub__(self, other) -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_ring(other)
        n = min(self.order, other.order)
        x, y = self._coeffs, other._coeffs
        zero = self._ring.zero
        out = [zero] * (n + 1)
        for i in range(n + 1):
            xi = x[i]
            if xi == zero:
                continue
            for j in range(n + 1 - i):
                yj = y[j]
                if yj == zero:
                    continue
                out[i + j] = out[i + j] + xi * yj
        return TruncatedSeries(tuple(out), self._ring)

    def shift(self, k: int) -> "TruncatedSeries":
        """Multiply by q^k (k >= 0).  Exact, so the order grows by k."""
        if k < 0:
            raise ValueError("shift must be nonnegative")
        return TruncatedSeries((self._ring.zero,) * k + self._coeffs, self._ring)

    def truncate(self, order: int) -> "TruncatedSeries":
        """Drop coefficients above the given order (which must not exceed ours)."""
        if order > self.order:
            raise ValueError(f"cannot extend a series from order {self.order} to {order}")
        if order == self.order:
            return self
        return TruncatedSeries(self._coeffs[: order + 1], self._ring)

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse through the truncation order.

        The constant term must be a unit of the coefficient ring (ValueError
        otherwise); the rest follows from the standard recurrence
        y_n = -y_0 * sum c_k y_{n-k}.
        """
        y0 = self._ring.invert_unit(self._coeffs[0])
        zero = self._ring.zero
        out = [y0] + [zero] * self.order
        for n in range(1, self.order + 1):
            acc = zero
            for k in range(1, n + 1):
                ck = self._coeffs[k]
                if ck == zero:
                    continue
                yk = out[n - k]
                if yk == zero:
                    continue
                acc = acc + ck * yk
            if acc != zero:
                out[n] = -(y0 * acc)
        return TruncatedSeries(tuple(out), self._ring)

    def substitute_power(self, m: int, order: int | None = None) -> "TruncatedSeries":
        """Substitute q -> q^m: coefficient of q^(mn) becomes c_n, zeros elsewhere.

        The default result order equals the input's.  A larger order may be
        requested up to m*(order+1) - 1, beyond which the substituted series
        would no longer be determined by the known coefficients.
        """
        if m < 1:
            raise ValueError("substitution power must be >= 1")
        if order is None:
            order = self.order
        if order > m * (self.order + 1) - 1:
            raise ValueError(
                f"order {order} not determined by a series of order {self.order} under q -> q^{m}"
            )
        if m == 1:
            return self.truncate(min(order, self.order))
        zero = self._ring.zero
        out = [zero] * (order + 1)
        for n, c in enumerate(self._coeffs):
            if m * n > order:
                break
            out[m * n] = c
        return TruncatedSeries(tuple(out), self._ring)

    def dissect(self, m: int) -> list["TruncatedSeries"]:
        """Split by exponent residue: returns P_0..P_{m-1} with P_k[j] = c_{jm+k}.

        Residue classes beyond the truncation order come back as order-0
        zero series; they carry no information but keep the list length m.
        """
        if m < 1:
            raise ValueError("dissection modulus must be >= 1")
        parts = []
        for k in range(m):
            sub = self._coeffs[k :: m] if k <= self.order else (self._ring.zero,)
            parts.append(TruncatedSeries(sub, self._ring))
        return parts

    def map_coefficients(self, fn: Callable, ring: CoefficientRing | None = None) -> "TruncatedSeries":
        """Apply fn to every coefficient, optionally landing in another ring."""
        return TruncatedSeries(tuple(fn(c) for c in self._coeffs), ring or self._ring)

    def __str__(self) -> str:
        zero = self._ring.zero
        chunks = []
        for n, c in enumerate(self._coeffs):
            if c == zero:
                continue
            cs = str(c)
            if n == 0:
                chunks.append(cs)
            else:
                qs = "q" if n == 1 else f"q^{n}"
                if cs == "1":
                    term = qs
                elif cs == "-1":
                    term = f"-{qs}"
                elif " " in cs or cs.startswith("-"):
                    term = f"({cs})*{qs}"
                else:
                    term = f"{cs}*{qs}"
                chunks.append(term if not chunks else
                              (f"+ {term}" if not term.startswith("-") else f"- {term[1:]}"))
        body = " ".join(chunks) if chunks else "0"
        return f"{body} + O(q^{self.order + 1})"

    def __repr__(self) -> str:
        return f"TruncatedSeries(order={self.order}, ring={self._ring.name})"


def reassemble(parts: Sequence[TruncatedSeries], order: int) -> TruncatedSeries:
    """Rebuild sum_k q^k P_k(q^m) from the m dissection components."""
    m = len(parts)
    total = TruncatedSeries.zero(order, parts[0].ring)
    for k, part in enumerate(parts):
        if k > order:
            break
        total = total + part.substitute_power(m, order - k).shift(k)
    return total


def euler_product(order: int, ring: CoefficientRing = INTEGER_RING) -> TruncatedSeries:
    """(q;q)_inf truncated: the sparse sum of (-1)^k q^(k(3k-1)/2) over all k,
    which is the theta sum f(-q, -q^2)."""
    return theta(1, 2, order, ring=ring)


def pochhammer_inf(z, start: int, step: int, order: int,
                   ring: CoefficientRing = INTEGER_RING) -> TruncatedSeries:
    """Infinite product prod_{k>=0} (1 - z q^(start + k*step)), truncated.

    start >= 1 keeps the constant term equal to one; only the factors with
    exponent <= order contribute.
    """
    if start < 1:
        raise ValueError("start must be >= 1 so the constant term is one")
    if step < 1:
        raise ValueError("step must be >= 1")
    zero = ring.zero
    out = [zero] * (order + 1)
    out[0] = ring.one
    e = start
    while e <= order:
        # multiply by (1 - z q^e) in place, highest coefficient first
        for n in range(order, e - 1, -1):
            c = out[n - e]
            if c != zero:
                out[n] = out[n] - z * c
        e += step
    return TruncatedSeries(tuple(out), ring)


def pochhammer_fin(z, count: int, order: int, start: int = 0,
                   ring: CoefficientRing = INTEGER_RING) -> TruncatedSeries:
    """Finite product prod_{k=0}^{count-1} (1 - z q^(start + k)), truncated.

    With start=1 this is the shifted product (zq;q)_count as a series in q.
    count=0 gives the empty product 1.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    zero = ring.zero
    out = [zero] * (order + 1)
    out[0] = ring.one
    for k in range(count):
        e = start + k
        if e > order:
            break
        if e == 0:
            # constant factor (1 - z)
            w = ring.one - z
            for n in range(order + 1):
                if out[n] != zero:
                    out[n] = out[n] * w
            continue
        for n in range(order, e - 1, -1):
            c = out[n - e]
            if c != zero:
                out[n] = out[n] - z * c
    return TruncatedSeries(tuple(out), ring)


def theta(r: int, s: int, order: int, sign_r: int = -1, sign_s: int = -1,
          ring: CoefficientRing = INTEGER_RING) -> TruncatedSeries:
    """Bilateral theta sum of (sign_r q^r)^(n(n+1)/2) (sign_s q^s)^(n(n-1)/2).

    With the default signs this is f(-q^r, -q^s), whose n-th term carries
    sign (-1)^n; theta(1, 2, N) is the Euler product (q;q)_inf, by
    Euler's pentagonal number theorem.  Exponents r, s must
    be nonnegative and not both zero so the bilateral sum truncates.
    """
    if sign_r not in (1, -1) or sign_s not in (1, -1):
        raise ValueError("signs must be +1 or -1")
    if r < 0 or s < 0 or r + s < 1:
        raise ValueError("exponents must be nonnegative and not both zero")
    if order < 0:
        raise ValueError("order must be >= 0")
    zero = ring.zero
    out = [zero] * (order + 1)

    def tri(k: int) -> int:
        return k * (k + 1) // 2

    def accumulate(n: int) -> bool:
        e = r * tri(n) + s * tri(n - 1)
        if e > order:
            return False
        sign = 1
        if sign_r == -1 and tri(n) % 2:
            sign = -sign
        if sign_s == -1 and tri(n - 1) % 2:
            sign = -sign
        out[e] = out[e] + ring.from_int(sign)
        return True

    accumulate(0)
    n = 1
    # the exponent is strictly increasing in |n| once n != 0, so the first
    # overshoot on each side ends that side
    while accumulate(n):
        n += 1
    n = -1
    while accumulate(n):
        n -= 1
    return TruncatedSeries(tuple(out), ring)


def partition_gf(order: int, ring: CoefficientRing = INTEGER_RING) -> TruncatedSeries:
    """Generating function of the partition numbers: 1/(q;q)_inf."""
    return euler_product(order, ring).inverse()


# The Laurent crank build runs with M = 2N+1 classes and moves about
# N^3 * B bits (B from _digit_bits, growing with N): about 0.5 s at order
# 200 and 1.7 s at 300 on a 2-core VM with CPython 3.11, past 4 s at 400.
# Quotient-ring builds in which a has a small finite order are not capped.
LAURENT_CRANK_CAP = 300


# The packed kernel behind crank_gf and rank_gf.  A series in Z[a]/(a^M - 1),
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


def _unpacked(classes: list[int], order: int, bits: int) -> list[list[int]]:
    """The balanced digits c_0..c_order of every packed class."""
    width = bits // 8
    half = 1 << (bits - 1)
    mask = (1 << bits * (order + 1)) - 1
    # half added to every digit makes each one nonnegative, so no digit
    # borrows from the next one
    bias = half * (mask // ((1 << bits) - 1))
    columns = []
    for value in classes:
        raw = ((value + bias) & mask).to_bytes(width * (order + 1), "little")
        columns.append([int.from_bytes(raw[i:i + width], "little") - half
                        for i in range(0, len(raw), width)])
    return columns


def _powers_of_a(modulus: Modulus, limit: int) -> list[QuotientElem] | None:
    """a^0..a^(M-1) in Z[a]/(modulus), where M is the multiplicative order
    of a; None if a has no order M <= limit."""
    a = modulus.project(LaurentPoly.monomial(1, 1))
    powers = [modulus.one()]
    while len(powers) <= limit:
        power = powers[-1] * a
        if power == powers[0]:
            return powers
        powers.append(power)
    return None


def _statistic_series(build: Callable[[int, int, int], list[int]], order: int,
                      modulus: Modulus | None) -> TruncatedSeries:
    """Run a packed build through q^order and project every coefficient once.

    With a of order M in Z[a]/(modulus) the build runs in Z[a]/(a^M - 1),
    which maps onto the quotient.  Otherwise it runs in Z[a]/(a^(2N+1) - 1),
    N = order, where the classes -N..N are the Laurent exponents: |crank|
    and |rank| of a partition of n are at most n, so no class wraps.
    """
    powers = None if modulus is None else _powers_of_a(modulus, 2 * order)
    size = 2 * order + 1 if powers is None else len(powers)
    bits = _digit_bits(order)
    columns = _unpacked(build(order, size, bits), order, bits)
    if powers is not None:
        residues = [[0] * (order + 1) for _ in range(modulus.degree)]
        for column, power in zip(columns, powers):
            for j, x in enumerate(power.residue):
                if x:
                    residues[j] = [y + x * c for y, c in zip(residues[j], column)]
        return TruncatedSeries([QuotientElem(vec, modulus) for vec in zip(*residues)],
                               quotient_ring(modulus))
    rows: list[dict[int, int]] = [{} for _ in range(order + 1)]
    for r, column in enumerate(columns):
        e = r if r <= order else r - size
        for n, c in enumerate(column):
            if c:
                rows[n][e] = c
    series = TruncatedSeries([LaurentPoly(row) for row in rows], LAURENT_RING)
    if modulus is None:
        return series
    return series.map_coefficients(modulus.project, quotient_ring(modulus))


def crank_gf(order: int, modulus: Modulus | None = None) -> TruncatedSeries:
    """Crank generating function (q;q)_inf / ((aq;q)_inf (q/a;q)_inf).

    The coefficient of q^n is a Laurent polynomial in ``a`` whose a^m
    coefficient counts partitions of n by crank m (with the usual signed
    conventions at n <= 1).  Given a modulus, each coefficient is instead
    the residue of that Laurent polynomial in Z[a]/(modulus).  A build that
    would run at Laurent size (no modulus, or one in which a has no order
    M <= 2N) is refused beyond LAURENT_CRANK_CAP before any work; quotient
    builds in which a has such an order are not capped.
    """
    if order > LAURENT_CRANK_CAP and (modulus is None
                                      or _powers_of_a(modulus, 2 * order) is None):
        raise ValueError(f"order {order} exceeds the Laurent crank cap {LAURENT_CRANK_CAP}")
    built = largest(("crank", modulus), order,
                    lambda n: _statistic_series(_packed_crank, n, modulus))
    return built.truncate(order)


def rank_gf(order: int) -> TruncatedSeries:
    """Rank generating function: sum over n of q^(n^2) / ((aq;q)_n (q/a;q)_n)."""
    built = largest(("rank",), order, lambda n: _statistic_series(_packed_rank, n, None))
    return built.truncate(order)
