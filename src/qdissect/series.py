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
functions are built by dividing a sparse numerator in place by their
factors (1 - a^(+-1) q^k), one ascending pass per factor.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .ring import (
    INTEGER_RING,
    LAURENT_RING,
    CoefficientRing,
    Modulus,
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

    def scale(self, c) -> "TruncatedSeries":
        """Multiply every coefficient by the ring element c."""
        return TruncatedSeries(tuple(x * c for x in self._coeffs), self._ring)

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
    """(q;q)_inf truncated: the sparse sum of (-1)^k q^(k(3k-1)/2) over all k."""
    if order < 0:
        raise ValueError("order must be >= 0")
    zero = ring.zero
    out = [zero] * (order + 1)
    out[0] = ring.one
    k = 1
    while True:
        e1 = k * (3 * k - 1) // 2
        e2 = k * (3 * k + 1) // 2
        if e1 > order:
            break
        sign = ring.from_int(-1 if k % 2 else 1)
        out[e1] = out[e1] + sign
        if e2 <= order:
            out[e2] = out[e2] + sign
        k += 1
    return TruncatedSeries(tuple(out), ring)


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
    sign (-1)^n; theta(1, 2, N) is the Euler product.  Exponents r, s must
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


# Largest series computed so far, reused for smaller orders: both generating
# functions are immutable, so slicing a longer computation down is exact.
# The crank series is kept per target ring, keyed by its modulus (None for
# the Laurent polynomials).
_crank_cache: dict[Modulus | None, TruncatedSeries] = {}
_rank_cache: TruncatedSeries | None = None


def _divide_by_crank_factors(coeffs: list, count: int) -> None:
    """Divide a series in place by (aq;q)_count (q/a;q)_count.

    Division by one factor (1 - a^e q^k) is the ascending recurrence
    c_n += a^e c_{n-k}; a^e is a unit monomial, so each step is a shift of
    the coefficient's exponents in every coefficient ring that has ``a``.
    Factors with k beyond the truncation order leave the series unchanged.
    """
    order = len(coeffs) - 1
    for k in range(1, min(count, order) + 1):
        for e in (1, -1):
            for n in range(k, order + 1):
                c = coeffs[n - k]
                if c:
                    coeffs[n] = coeffs[n] + c.times_a(e)


def crank_gf(order: int, modulus: Modulus | None = None) -> TruncatedSeries:
    """Crank generating function (q;q)_inf / ((aq;q)_inf (q/a;q)_inf).

    The coefficient of q^n is a Laurent polynomial in ``a`` whose a^m
    coefficient counts partitions of n by crank m (with the usual signed
    conventions at n <= 1).  Given a modulus, the product is built directly
    in Z[a]/(modulus) instead, and each coefficient is the residue of that
    Laurent polynomial.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    cached = _crank_cache.get(modulus)
    if cached is None or cached.order < order:
        ring = LAURENT_RING if modulus is None else quotient_ring(modulus)
        coeffs = list(euler_product(order, ring).coefficients)
        _divide_by_crank_factors(coeffs, order)
        cached = TruncatedSeries(coeffs, ring)
        _crank_cache[modulus] = cached
    return cached.truncate(order)


def rank_gf(order: int) -> TruncatedSeries:
    """Rank generating function: sum over n of q^(n^2) / ((aq;q)_n (q/a;q)_n)."""
    global _rank_cache
    if order < 0:
        raise ValueError("order must be >= 0")
    cached = _rank_cache
    if cached is None or cached.order < order:
        zero, one = LAURENT_RING.zero, LAURENT_RING.one
        total = [one] + [zero] * order          # n = 0 term
        n = 1
        while n * n <= order:
            term = [zero] * (order + 1)
            term[n * n] = one
            _divide_by_crank_factors(term, n)
            total = [x + y for x, y in zip(total, term)]
            n += 1
        cached = TruncatedSeries(total, LAURENT_RING)
        _rank_cache = cached
    return cached.truncate(order)
