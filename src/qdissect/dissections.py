"""The crank's 2-, 3- and 5-dissections, checked in cyclotomic quotient rings.

The 2-, 3- and 5-dissections share one verifier body,
``_verify_dissection``, and are checked in the quotient rings
Z[a]/(a^4+1), Z[a]/(a^6+a^3+1) and Z[a]/(a^4+a^3+a^2+a+1), after rescaling
q so that every exponent is integral, with one integer column per
coordinate a^0..a^(d-1).  The crank side is ``series.crank_coordinates``;
each right-hand side states only its weights w_k and integer theta
quotients S_k, and its coordinates are kept at the largest order built so
far in :mod:`qdissect.memo` and sliced down (``_rhs_coordinates``).  Both
sides are built once, at the root a itself; the 5-dissection's other
primitive roots a -> a^r map only a failure witness.
``_verify_component_4`` also reads the 5-dissection's right-hand side, and
the product route (:mod:`qdissect.products`) at a = 1, which it reaches
as an attribute of the package, so a dissection never loads that route.

The public verifiers are the one-line calls in :mod:`qdissect.identities`.
Series are called through their home module (``series.theta``), where a
caller that rebinds them (perfbench's tracer) finds them.
"""

from __future__ import annotations

import time
from functools import cache

import qdissect

from . import ring, series
from .identities import (Columns, FailureWitness, VerificationReport, _first_indivisible,
                         _first_mismatch, _perturbed, _report)
from .memo import largest
from .partitions import _check_order

# The right-hand sides: integer series S_k, and below their weights w_k in
# a, stated at the root a itself.  2cos(2*pi*k/m) is realized exactly as
# a^k + a^-k.


def _dissection_2_parts(order: int) -> tuple[series.TruncatedSeries, ...]:
    inv = series.pochhammer_inf(-1, 4, 4, order).inverse()
    return series.theta(6, 10, order) * inv, series.theta(2, 14, order) * inv


def _dissection_3_parts(order: int) -> tuple[series.TruncatedSeries, ...]:
    t_a = series.theta(6, 21, order)
    t_b = series.theta(12, 15, order)
    inv = series.pochhammer_inf(1, 27, 27, order).inverse()
    c_inv = series.theta(3, 24, order) * inv
    return t_a * t_b * inv, c_inv * t_b, c_inv * t_a


def _dissection_5_parts(order: int) -> tuple[series.TruncatedSeries, ...]:
    t1 = series.theta(10, 15, order)
    t2 = series.theta(5, 20, order)
    t5sq = series.theta(25, 50, order)
    t5sq = t5sq * t5sq                         # f(-q^25)^2
    inv1, inv2 = t1.inverse(), t2.inverse()
    return t1 * t5sq * (inv2 * inv2), t5sq * inv2, t5sq * inv1, t2 * t5sq * (inv1 * inv1)


@cache
def _dissections() -> dict[str, tuple]:
    """identity -> (m, modulus, weights w_k, builder of the S_k), built on
    first use: the moduli and weights are ring objects."""
    one = ring.LaurentPoly.ONE
    two_cos_1 = ring.LaurentPoly({1: 1, -1: 1})
    two_cos_2 = ring.LaurentPoly({2: 1, -2: 1})
    return {
        "dissection-2": (2, ring.PHI8, (one, two_cos_1 - 1), _dissection_2_parts),
        "dissection-3": (3, ring.PHI9, (one, two_cos_1 - 1, two_cos_2), _dissection_3_parts),
        # -4cos^2(2*pi/5), 2cos(4*pi/5), -2cos(2*pi/5)
        "dissection-5": (5, ring.PHI5, (one, -two_cos_2 - 2, two_cos_2, -two_cos_1),
                         _dissection_5_parts),
    }


def _rhs_coordinates(identity: str, order: int) -> Columns:
    """The coordinates of sum_k q^k w_k S_k, held per identity."""
    _, modulus, weights, parts = _dissections()[identity]

    def build(n: int) -> Columns:
        columns = [[0] * (n + 1) for _ in range(modulus.degree)]
        for k, (weight, part) in enumerate(zip(weights, parts(n))):
            for column, w in zip(columns, modulus.project(weight).residue):
                if w:
                    for j, c in enumerate(part.coefficients[:n + 1 - k], k):
                        column[j] += w * c
        return tuple(map(tuple, columns))

    held = largest((identity,), order, build)
    return held if len(held[0]) == order + 1 else tuple(c[:order + 1] for c in held)


def _verify_dissection(identity: str, order: int, perturb_power: int | None,
                       root: int = 1) -> VerificationReport:
    m, modulus, _, _ = _dissections()[identity]
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
    m, modulus, _, _ = _dissections()["dissection-5"]
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
