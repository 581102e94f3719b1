"""The crank's 2-, 3- and 5-dissections, checked in cyclotomic quotient rings.

The 2-, 3- and 5-dissections share one verifier body,
``_verify_dissection``, and are checked in the quotient rings
Z[a]/(a^4+1), Z[a]/(a^6+a^3+1) and Z[a]/(a^4+a^3+a^2+a+1), after rescaling
q so that every exponent is integral, with one integer column per
coordinate a^0..a^(d-1).  The crank side is ``series._crank_coordinates``,
the held kernel of ``series.crank_coordinates``.  Each right-hand side is
one row of ``_DISSECTIONS``: its modulus as ascending coefficients, and
per component k its weight w_k and its integer series S_k, a product of
theta sums f(-q^r, -q^s)^e, where (q^k;q^k)_inf is written f(-q^k, -q^2k).
One builder, ``_rhs_coordinates``, walks the rows; it builds each power
once per build, so each theta sum is inverted at most once, folds each
weight through the integer powers of a (``series._powers_of_a``, the
table the crank side folds by), and its coordinates are kept at the
largest order built so far in :mod:`qdissect.memo` and sliced down.  Both
sides are built once, at the root a itself, in plain integers; the
5-dissection's other primitive roots a -> a^r map only a failure witness,
which ``_at_root`` maps in the same integer coordinates, reduced once by
``series._divstep``, the library's one polynomial remainder: no check,
passing or failing, builds a ring object.  Each ring's name, and every
witness, are written by ``partitions._format_vector``, the rule the ring
prints by.
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

from . import series
from .identities import (Columns, FailureWitness, VerificationReport, _first_indivisible,
                         _first_mismatch, _perturbed, _report)
from .memo import largest
from .partitions import _check_order, _format_vector

# The right-hand sides: identity -> (m, modulus, components).  The modulus
# is its ascending coefficients.  Component k pairs its weight w_k, as
# Laurent terms {exponent of a: coefficient} at the root a itself
# (2cos(2*pi*j/m) is a^j + a^-j), with its integer series S_k, as theta
# exponents {(r, s): e} for the product of f(-q^r, -q^s)^e.
# (q^k;q^k)_inf is f(-q^k, -q^2k), and 1/(-q^4;q^4)_inf is
# (q^4;q^4)_inf / (q^8;q^8)_inf.
_DISSECTIONS = {
    "dissection-2": (2, (1, 0, 0, 0, 1), (                  # a^4 + 1
        ({0: 1}, {(8, 16): -1, (6, 10): 1, (4, 8): 1}),
        ({1: 1, 0: -1, -1: 1}, {(8, 16): -1, (2, 14): 1, (4, 8): 1}))),
    "dissection-3": (3, (1, 0, 0, 1, 0, 0, 1), (            # a^6 + a^3 + 1
        ({0: 1}, {(27, 54): -1, (6, 21): 1, (12, 15): 1}),
        ({1: 1, 0: -1, -1: 1}, {(27, 54): -1, (3, 24): 1, (12, 15): 1}),
        ({2: 1, -2: 1}, {(27, 54): -1, (3, 24): 1, (6, 21): 1}))),
    # weights 1, -4cos^2(2*pi/5), 2cos(4*pi/5), -2cos(2*pi/5)
    "dissection-5": (5, (1, 1, 1, 1, 1), (                  # a^4 + a^3 + a^2 + a + 1
        ({0: 1}, {(5, 20): -2, (10, 15): 1, (25, 50): 2}),
        ({2: -1, 0: -2, -2: -1}, {(5, 20): -1, (25, 50): 2}),
        ({2: 1, -2: 1}, {(10, 15): -1, (25, 50): 2}),
        ({1: -1, -1: -1}, {(10, 15): -2, (5, 20): 1, (25, 50): 2}))),
}

# the ring each identity's witnesses name, rendered once
_RING_NAMES = {identity: f"quotient({_format_vector(modulus)})"
               for identity, (_, modulus, _) in _DISSECTIONS.items()}


def _weight_coordinates(weight: dict[int, int], powers: list[tuple]) -> list[int]:
    """The coordinates of sum_e c_e a^e, given those of a^0..a^(M-1): a^e
    is a^(e mod M)."""
    return [sum(c * powers[e % len(powers)][i] for e, c in weight.items())
            for i in range(len(powers[0]))]


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

        powers_of_a = series._powers_of_a(modulus)
        columns = [[0] * (n + 1) for _ in range(len(modulus) - 1)]
        for k, (weight, factors) in enumerate(components):
            # the dense inverse factors first, then each sparse theta sum on
            # the left: a product walks its left operand's nonzero terms
            part = None
            for (r, s), e in sorted(factors.items(), key=lambda factor: factor[1] > 0):
                part = power(r, s, e) if part is None else power(r, s, e) * part
            for column, w in zip(columns, _weight_coordinates(weight, powers_of_a)):
                if w:
                    for j, c in enumerate(part.coefficients[:n + 1 - k], k):
                        column[j] += w * c
        return tuple(map(tuple, columns))

    held = largest((identity,), order, build)
    return held if len(held[0]) == order + 1 else tuple(c[:order + 1] for c in held)


def _at_root(values: tuple, modulus: tuple[int, ...], root: int) -> str:
    """A witness coefficient, given as its coordinates v_i at the root a,
    rendered at the root a^root: sum_i v_i a^(i*root), reduced by the
    modulus (ascending coefficients)."""
    degree = len(modulus) - 1
    vec = [0] * ((degree - 1) * root + 1)
    vec[::root] = values
    return _format_vector(series._divstep(vec, modulus, degree)[:degree])


def _verify_dissection(identity: str, order: int, perturb_power: int | None,
                       root: int = 1) -> VerificationReport:
    m, modulus, _ = _DISSECTIONS[identity]
    _check_order("order", order, m, m)
    if perturb_power is not None:
        _check_order("perturbation power", perturb_power, cap=order)
    started = time.perf_counter()
    lhs = series._crank_coordinates(order, modulus)
    rhs = _perturbed(_rhs_coordinates(identity, order), perturb_power)
    # both sides are compared at the root a itself: a -> a^root is a ring
    # automorphism, so they agree after it exactly where they agree before,
    # and it fixes the one that _perturbed adds; it maps only the witness
    witness = _first_mismatch(lhs, rhs, lambda values: _at_root(values, modulus, root),
                              _RING_NAMES[identity])
    return _report(identity, order, witness, started)


def _verify_component_4(order: int) -> VerificationReport:
    """The body of ``identities.verify_component_4_vanishing``."""
    m = _DISSECTIONS["dissection-5"][0]
    _check_order("order", order, m, m)
    started = time.perf_counter()
    powers = range(4, order + 1, m)
    witness = None

    # the right-hand side that dissection-5 holds, its coordinates per power
    rhs = _rhs_coordinates("dissection-5", order)
    for n, values in zip(powers, zip(*[c[4::m] for c in rhs])):
        if any(values):
            witness = FailureWitness(n, "0", _format_vector(values),
                                     _RING_NAMES["dissection-5"])
            break

    if witness is None:
        at_one = tuple(row.get(0, 0) for row in qdissect.products.product_rows("crank", order, 1))
        witness = (_first_mismatch((series.partition_gf(order).coefficients,), (at_one,),
                                   lambda values: str(values[0]), "integer")
                   or _first_indivisible(powers, at_one.__getitem__))

    return _report("component-4-vanishing", order, witness, started)
