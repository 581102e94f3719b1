"""The product route to the crank and rank series: the packed product formulas.

``product_rows`` expands the product formulas, the independent side of the
``crank-gf``/``rank-gf`` checks and of the a = 1 side of
``component-4-vanishing``: one packed kernel over Z[a]/(a^M - 1), M Python
ints, one per residue class of the exponent of ``a``, each holding its
q-coefficients as fixed-width digits, so that multiplying by a factor
(1 - q^k) and dividing by a factor (1 - a^(+-1) q^k) are a few big-int
shifts and additions per class.  Like the tables, a build at the Laurent
size 2N + 1 is refused beyond TABLE_CAP, and every int argument passes
``partitions._check_order`` before any work.

The route shares no code with the column form (``partitions._columns``),
the recurrences (:mod:`qdissect.recurrences`) or the series of
:mod:`qdissect.series` below ``partition_count``, which only sizes the
digits: it builds its own numerator (q;q)_inf, so it shares nothing with
``theta`` either, which the dissections' right-hand sides use.
``partition_count`` is called as ``partitions.partition_count``, where a
caller that rebinds it (perfbench's tracer) finds it.
"""

from __future__ import annotations

import itertools
from math import isqrt
from typing import Callable

from . import partitions
from .memo import largest
from .partitions import ORDER_CAP, _check_kind, _check_order

# A series in Z[a]/(a^M - 1), truncated after q^N, is a list of M Python
# ints: int r packs the q-coefficients of the residue class a^r as B-bit
# digits, c_0 + c_1 2^B + ... + c_N 2^(BN), reduced modulo 2^(B(N+1)).
# Sending q to 2^B is a ring map from Z[q]/(q^(N+1)) onto the integers
# modulo 2^(B(N+1)), so adding series and multiplying by q^s cost one
# big-int addition and one shift per class, and a product of packed factors
# is the packed product.  The digits are read back as balanced residues in
# (-2^(B-1), 2^(B-1)); they are the true coefficients because _digit_bits
# keeps every |c_n| of the result below 2^(B-1).


def _digit_bits(order: int) -> int:
    """Digit width B for packed crank and rank builds through q^order.

    Only the series read back need the bound: every step is the ring map
    above, so a partial product whose digits pass it, such as the crank
    numerator built as prod (1 - q^k), still packs the exact product.

    Write |F| for the q-series whose q^n coefficient is the sum of the
    absolute values of all a^e q^n coefficients of F; then |FG| <= |F||G|
    coefficientwise, and a class coefficient in Z[a]/(a^M - 1) is at most
    the matching coefficient of |F|.  The crank numerator (q;q)_inf has
    coefficients in {-1, 0, 1}, so |(q;q)_inf| <= 1/(1 - q); a partial
    product of the factors 1 + (a^(+-1) q^k)^(2^i) has |.| <= 1/(1 - q^k).
    In the rank build, |T| <= H_k = 1/(1 - q) prod_{j >= k} (1 - q^j)^-2 by
    induction down k, since H_k has nondecreasing coefficients starting at
    1, so 1 + q^(2k-1) H_k <= H_k.  Either way every series after a division
    is bounded by 1/((1 - q)(q;q)_inf^2), whose coefficients are
    nondecreasing: |c_n| <= sum_{j <= order} p(j) (p(0) + ... + p(order - j)).
    B is one bit more than that bound, rounded up to whole bytes for the
    unpacking.
    """
    p = [partitions.partition_count(n) for n in range(order + 1)]
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
    """(q;q)_inf / ((aq;q)_inf (q/a;q)_inf) through q^order in Z[a]/(a^size - 1).

    The numerator is the packed product of the factors (1 - q^k), k <= order,
    in class 0: one shift, subtraction and mask per factor."""
    mask = (1 << bits * (order + 1)) - 1
    numerator = 1
    for k in range(1, order + 1):
        numerator = (numerator - (numerator << bits * k)) & mask
    classes = [numerator] + [0] * (size - 1)
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


def product_rows(kind: str, order: int, size: int = 0) -> tuple[dict[int, int], ...]:
    """The q^0..q^order coefficients of the crank or rank product formula in
    Z[a]/(a^size - 1), each as {exponent: coefficient} without zeros, the
    exponents taken in -size/2..size/2.  Size 0 means the Laurent size
    2*order + 1, where they are the Laurent exponents: |crank| and |rank| of
    a partition of n are at most n, so no class wraps.

    Held per (kind, size) at the largest order so far.  An unknown kind, a
    Laurent-size build beyond TABLE_CAP and a bad size are refused before
    any work.  The work grows about linearly in size and faster than
    linearly in order, so size * order must be at most 4*ORDER_CAP.  The
    largest crank build that lets in, (order, size) = (5000, 4), takes
    9.4 s; (5000, 1) takes 4.6 s, (2000, 10) 1.6 s, (1000, 20) 0.5 s and
    (400, 50) 0.14 s, while the refused (2000, 50) takes 9.6 s (2-core VM,
    CPython 3.11)."""
    _check_kind(kind)
    _check_order("order", order, table=not size)
    _check_order("size", size, cap=4 * ORDER_CAP // (order or 1))

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
    # a slice of the whole tuple is the tuple itself
    return rows[:order + 1]
