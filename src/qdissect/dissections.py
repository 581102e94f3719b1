"""The crank's 2-, 3- and 5-dissections, checked in cyclotomic quotient rings.

The 2-, 3- and 5-dissections share one verifier body,
``_verify_dissection``, and are checked in the quotient rings
Z[a]/(a^4+1), Z[a]/(a^6+a^3+1) and Z[a]/(a^4+a^3+a^2+a+1), after rescaling
q so that every exponent is integral, with one integer column per
coordinate a^0..a^(d-1).  The crank side is ``series.crank_coordinates``.
Each right-hand side is one row of ``_DISSECTIONS``: per component k its
weight w_k and its integer series S_k, a product of theta sums
f(-q^r, -q^s)^e, where (q^k;q^k)_inf is written f(-q^k, -q^2k).  One
builder, ``_rhs_coordinates``, walks the rows; it builds each power once
per build, so each theta sum is inverted at most once, and its
coordinates are kept at the largest order built so far in
:mod:`qdissect.memo` and sliced down.  Both sides are built once, at the
root a itself; the 5-dissection's other primitive roots a -> a^r map only
a failure witness.
``_verify_component_4`` also reads the 5-dissection's right-hand side, and
the product route (:mod:`qdissect.products`) at a = 1, which it reaches
as an attribute of the package, so a dissection never loads that route.

The public verifiers are the one-line calls in :mod:`qdissect.identities`.
Series are called through their home module (``series.theta``), where a
caller that rebinds them (perfbench's tracer) finds them.
"""

from __future__ import annotations

import time

import qdissect

from . import ring, series
from .identities import (Columns, FailureWitness, VerificationReport, _first_indivisible,
                         _first_mismatch, _perturbed, _report)
from .memo import largest
from .partitions import _check_order

# The right-hand sides: identity -> (m, modulus, components).  Component k
# pairs its weight w_k, as Laurent terms {exponent of a: coefficient} at the
# root a itself (2cos(2*pi*j/m) is a^j + a^-j), with its integer series S_k,
# as theta exponents {(r, s): e} for the product of f(-q^r, -q^s)^e.
# (q^k;q^k)_inf is f(-q^k, -q^2k), and 1/(-q^4;q^4)_inf is
# (q^4;q^4)_inf / (q^8;q^8)_inf.
_DISSECTIONS = {
    "dissection-2": (2, ring.PHI8, (
        ({0: 1}, {(8, 16): -1, (6, 10): 1, (4, 8): 1}),
        ({1: 1, 0: -1, -1: 1}, {(8, 16): -1, (2, 14): 1, (4, 8): 1}))),
    "dissection-3": (3, ring.PHI9, (
        ({0: 1}, {(27, 54): -1, (6, 21): 1, (12, 15): 1}),
        ({1: 1, 0: -1, -1: 1}, {(27, 54): -1, (3, 24): 1, (12, 15): 1}),
        ({2: 1, -2: 1}, {(27, 54): -1, (3, 24): 1, (6, 21): 1}))),
    # weights 1, -4cos^2(2*pi/5), 2cos(4*pi/5), -2cos(2*pi/5)
    "dissection-5": (5, ring.PHI5, (
        ({0: 1}, {(5, 20): -2, (10, 15): 1, (25, 50): 2}),
        ({2: -1, 0: -2, -2: -1}, {(5, 20): -1, (25, 50): 2}),
        ({2: 1, -2: 1}, {(10, 15): -1, (25, 50): 2}),
        ({1: -1, -1: -1}, {(10, 15): -2, (5, 20): 1, (25, 50): 2}))),
}


def _rhs_coordinates(identity: str, order: int) -> Columns:
    """The coordinates of sum_k q^k w_k S_k, held per identity."""
    _, modulus, components = _DISSECTIONS[identity]

    def build(n: int) -> Columns:
        powers: dict[tuple, series.TruncatedSeries] = {}

        def power(r: int, s: int, e: int) -> series.TruncatedSeries:
            # f(-q^r, -q^s)^e, built once per build: each theta sum is
            # inverted at most once
            if (r, s, e) not in powers:
                unit = 1 if e > 0 else -1
                powers[r, s, e] = (series.theta(r, s, n) if e == 1
                                   else power(r, s, 1).inverse() if e == -1
                                   else power(r, s, unit) * power(r, s, e - unit))
            return powers[r, s, e]

        columns = [[0] * (n + 1) for _ in range(modulus.degree)]
        for k, (weight, factors) in enumerate(components):
            # the dense inverse factors first, then each sparse theta sum on
            # the left: a product walks its left operand's nonzero terms
            part = None
            for (r, s), e in sorted(factors.items(), key=lambda factor: factor[1] > 0):
                part = power(r, s, e) if part is None else power(r, s, e) * part
            for column, w in zip(columns, modulus.project(ring.LaurentPoly(weight)).residue):
                if w:
                    for j, c in enumerate(part.coefficients[:n + 1 - k], k):
                        column[j] += w * c
        return tuple(map(tuple, columns))

    held = largest((identity,), order, build)
    return held if len(held[0]) == order + 1 else tuple(c[:order + 1] for c in held)


def _verify_dissection(identity: str, order: int, perturb_power: int | None,
                       root: int = 1) -> VerificationReport:
    m, modulus, _ = _DISSECTIONS[identity]
    _check_order("order", order, m, m)
    if perturb_power is not None:
        _check_order("perturbation power", perturb_power, cap=order)
    started = time.perf_counter()
    lhs = series.crank_coordinates(order, modulus)
    rhs = _perturbed(_rhs_coordinates(identity, order), perturb_power)
    # both sides are compared at the root a itself: a -> a^root is a ring
    # automorphism, so they agree after it exactly where they agree before,
    # and it fixes the one that _perturbed adds; it maps only the witness
    witness = _first_mismatch(
        lhs, rhs,
        lambda values: str(modulus.project(
            ring.QuotientElem(values, modulus).as_laurent().substitute_power(root))),
        f"quotient({modulus})")
    return _report(identity, order, witness, started)


def _verify_component_4(order: int) -> VerificationReport:
    """The body of ``identities.verify_component_4_vanishing``."""
    m, modulus, _ = _DISSECTIONS["dissection-5"]
    _check_order("order", order, m, m)
    started = time.perf_counter()
    powers = range(4, order + 1, m)
    witness = None

    # the right-hand side that dissection-5 holds, its coordinates per power
    rhs = _rhs_coordinates("dissection-5", order)
    for n, values in zip(powers, zip(*[c[4::m] for c in rhs])):
        if any(values):
            witness = FailureWitness(n, "0", str(ring.QuotientElem(values, modulus)),
                                     f"quotient({modulus})")
            break

    if witness is None:
        at_one = tuple(row.get(0, 0) for row in qdissect.products.product_rows("crank", order, 1))
        witness = (_first_mismatch((series.partition_gf(order).coefficients,), (at_one,),
                                   lambda values: str(values[0]), "integer")
                   or _first_indivisible(powers, at_one.__getitem__))

    return _report("component-4-vanishing", order, witness, started)
