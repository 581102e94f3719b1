"""Mechanical verification of the classical crank/rank identities.

Each verifier compares two independently computed sides of an identity,
coefficient by exact coefficient, and returns a :class:`VerificationReport`
with the first failing power of q when the sides disagree.  Both sides are
held as columns (the coefficient of q^n is the tuple of every column's n-th
entry), compared as tuples, and rendered by ``_first_mismatch`` only for a
witness.  The 2-, 3- and 5-dissections share one verifier body and are
checked in the cyclotomic quotient rings Z[a]/(a^4+1), Z[a]/(a^6+a^3+1) and
Z[a]/(a^4+a^3+a^2+a+1), after rescaling q so that every exponent is
integral, with one integer column per coordinate a^0..a^(d-1).  Their
right-hand sides are kept at the largest order built so far in
:mod:`qdissect.memo` and sliced down, as ``series.crank_coordinates`` keeps
the crank side.  Both sides are built once, at the root a itself; the
5-dissection's other primitive roots a -> a^r map only a failure witness.

The statistic tables (the column form) are checked against the two other
routes of :mod:`qdissect.partitions`: the product formulas (``crank-gf``,
``rank-gf``) and the recurrences (``crank-columns``, ``rank-columns``).

Verifiers accept an optional ``perturb_power``: a deliberate one-coefficient
corruption of the comparison (``_perturbed``; the table side of the table
checks, the right-hand side of the dissections), used by the mutation tests
and the CLI self-test flag to confirm the checks can actually fail.  Every
order, n_max and perturbation power must be an ``int`` (not a ``bool``) and
is refused before any work otherwise.
"""

from __future__ import annotations

import time
from typing import Callable

from .memo import largest
from .partitions import TABLE_CAP, _Record, partition_count, recurrence_rows, stat_table
from .ring import PHI5, PHI8, PHI9, LaurentPoly, QuotientElem
from .series import (TruncatedSeries, crank_coordinates, crank_gf, partition_gf,
                     pochhammer_inf, product_rows, theta)

# modulus -> the residue r of Ramanujan's congruence p(modulus*n + r) = 0 mod modulus
RESIDUE_FOR_MODULUS = {5: 4, 7: 5, 11: 6}
EQUIDISTRIBUTION_MODULI = {"crank": (5, 7, 11), "rank": (5, 7)}
# a -> a^r for these r sends a primitive 5th root of unity to each of the four
FIFTH_ROOTS = (1, 2, 3, 4)


class FailureWitness(_Record):
    """First failing coefficient: the power of q and both rendered values."""

    __slots__ = ("power", "expected", "actual", "ring")

    def __init__(self, power: int, expected: str, actual: str, ring: str):
        self._set(power, expected, actual, ring)


class VerificationReport(_Record):
    """Outcome of one verifier run; ``status`` is "pass" or "fail".

    ``elapsed`` (wall seconds) takes no part in equality or hashing, so
    reruns of the same check compare equal.
    """

    __slots__ = ("identity", "order", "status", "failure_witness", "elapsed")

    def __init__(self, identity: str, order: int, status: str,
                 failure_witness: FailureWitness | None, elapsed: float):
        self._set(identity, order, status, failure_witness, elapsed)

    def _key(self) -> tuple:
        return (self.identity, self.order, self.status, self.failure_witness)

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def _report(identity: str, order: int, witness: FailureWitness | None,
            started: float) -> VerificationReport:
    return VerificationReport(
        identity, order, "fail" if witness else "pass", witness,
        time.perf_counter() - started,
    )


Columns = tuple[tuple, ...]


def _first_mismatch(expected: Columns, actual: Columns, render: Callable[[tuple], str],
                    ring: str) -> FailureWitness | None:
    """The first power of q at which two series of one order, held as
    columns, differ, with both coefficients rendered by render (which gets
    the tuple of column entries at that power); None if they agree."""
    if expected == actual:
        return None
    for n in range(len(expected[0])):
        e, a = tuple(c[n] for c in expected), tuple(c[n] for c in actual)
        if e != a:
            return FailureWitness(n, render(e), render(a), ring)
    return None


def _check_int(name: str, value: int) -> None:
    # before any work, as _check_perturb_power: a bool would run as 0 or 1,
    # and a float would fail deep inside
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, not {value!r}")


def _check_perturb_power(power: int | None, order: int) -> None:
    # every verifier calls this before any work, so a self-test that could
    # not perturb anything is refused instead of reporting a pass
    if power is not None and (type(power) is not int or not 0 <= power <= order):
        raise ValueError(f"perturbation power {power} outside order {order}")


def _perturbed(columns: Columns, power: int | None,
               plus_one: Callable = lambda c: c + 1) -> Columns:
    """columns with the ring's one added to the q^power coefficient: plus_one
    applied to the first column's entry, which is a whole integer or Laurent
    coefficient, or the a^0 coordinate of a quotient-ring one.  The result
    is new tuples, so a held series is never written."""
    if power is None:
        return columns
    first = columns[0]
    return (first[:power] + (plus_one(first[power]),) + first[power + 1:],) + columns[1:]


# ---------------------------------------------------------------------------
# the statistic tables vs. the product formulas and the recurrences

def _verify_table(identity: str, kind: str, order: int, least: int,
                  other: Callable[[str, int], tuple], perturb_power: int | None
                  ) -> VerificationReport:
    """Rows 0..order of the statistic table (the column form) against the
    rows other(kind, order) of another route."""
    _check_int("order", order)
    if order < least:
        raise ValueError(f"order must be >= {least}")
    if order > TABLE_CAP:
        raise ValueError(f"order {order} exceeds the table cap {TABLE_CAP}")
    _check_perturb_power(perturb_power, order)
    started = time.perf_counter()
    # the other route first: a refusal of its own then comes before any table
    # work.  Rows are dicts without zeros, so they compare as they are
    actual = (tuple(other(kind, order)),)
    expected = _perturbed((stat_table(kind, order).rows[:order + 1],), perturb_power,
                          lambda row: (LaurentPoly(row) + 1).terms)
    witness = _first_mismatch(expected, actual, lambda values: str(LaurentPoly(values[0])),
                              "laurent")
    return _report(identity, order, witness, started)


def verify_crank_gf(order: int, perturb_power: int | None = None) -> VerificationReport:
    """Coefficients of the crank product formula equal the crank table,
    rows 0..order."""
    return _verify_table("crank-gf", "crank", order, 2, product_rows, perturb_power)


def verify_rank_gf(order: int, perturb_power: int | None = None) -> VerificationReport:
    """Coefficients of the rank series sum q^(n^2) / ((aq;q)_n (q/a;q)_n)
    equal the rank table, rows 0..order."""
    return _verify_table("rank-gf", "rank", order, 1, product_rows, perturb_power)


def verify_crank_columns(order: int, perturb_power: int | None = None) -> VerificationReport:
    """The crank table equals the (ones, parts above the ones) recurrence of
    ``partitions.recurrence_rows``, rows 0..order."""
    return _verify_table("crank-columns", "crank", order, 2, recurrence_rows, perturb_power)


def verify_rank_columns(order: int, perturb_power: int | None = None) -> VerificationReport:
    """The rank table equals the (largest part, number of parts) recurrence
    of ``partitions.recurrence_rows``, rows 0..order."""
    return _verify_table("rank-columns", "rank", order, 1, recurrence_rows, perturb_power)


# ---------------------------------------------------------------------------
# arithmetic congruences and equidistribution

def verify_congruence(modulus: int, n_max: int) -> VerificationReport:
    """p(modulus*n + residue) is divisible by modulus for all n <= n_max,
    for the three classical moduli 5, 7, 11 and their residues 4, 5, 6."""
    residue = RESIDUE_FOR_MODULUS.get(modulus)
    if residue is None:
        raise ValueError(f"unsupported congruence modulus {modulus}")
    _check_int("n_max", n_max)
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    started = time.perf_counter()
    witness = None
    for n in range(n_max + 1):
        arg = modulus * n + residue
        rem = partition_count(arg) % modulus
        if rem:
            witness = FailureWitness(arg, "0", str(rem), f"integers mod {modulus}")
            break
    return _report(f"congruence-{modulus}-{residue}", n_max, witness, started)


def verify_equidistribution(statistic: str, modulus: int, n_max: int) -> VerificationReport:
    """Every residue class of the statistic modulo `modulus` holds exactly
    p(modulus*n + residue)/modulus partitions, with the residue of the
    congruence mod `modulus` (RESIDUE_FOR_MODULUS).

    Supported: crank for moduli 5, 7, 11; rank for moduli 5 and 7 only (the
    rank does not equidistribute modulo 11).
    """
    if statistic not in EQUIDISTRIBUTION_MODULI:
        raise ValueError(f"unknown statistic {statistic!r}")
    if modulus not in EQUIDISTRIBUTION_MODULI[statistic]:
        raise ValueError(f"equidistribution of the {statistic} is not available mod {modulus}")
    residue = RESIDUE_FOR_MODULUS[modulus]
    _check_int("n_max", n_max)
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    size = modulus * n_max + residue
    if size > TABLE_CAP:
        raise ValueError(f"order {n_max} needs the {statistic} table to n = {size}, past "
                         f"the table cap {TABLE_CAP}; the largest order is "
                         f"{(TABLE_CAP - residue) // modulus}")
    started = time.perf_counter()
    table = stat_table(statistic, size)
    witness = None
    for n in range(n_max + 1):
        arg = modulus * n + residue
        total = partition_count(arg)
        if total % modulus:
            witness = FailureWitness(arg, f"multiple of {modulus}", str(total), "integer")
            break
        share = total // modulus
        for k, got in enumerate(table.count_mod(modulus, arg)):
            if got != share:
                witness = FailureWitness(arg, str(share), f"{got} (class {k})", "integer")
                break
        if witness:
            break
    return _report(f"equidist-{statistic}-{modulus}", n_max, witness, started)


# ---------------------------------------------------------------------------
# dissections in the cyclotomic quotient rings, in integer coordinates

# The right-hand sides: integer series S_k, and below their weights w_k in
# a, stated at the root a itself.  2cos(2*pi*k/m) is realized exactly as
# a^k + a^-k.

def _dissection_2_parts(order: int) -> tuple[TruncatedSeries, ...]:
    inv = pochhammer_inf(-1, 4, 4, order).inverse()
    return theta(6, 10, order) * inv, theta(2, 14, order) * inv


def _dissection_3_parts(order: int) -> tuple[TruncatedSeries, ...]:
    t_a = theta(6, 21, order)
    t_b = theta(12, 15, order)
    inv = pochhammer_inf(1, 27, 27, order).inverse()
    c_inv = theta(3, 24, order) * inv
    return t_a * t_b * inv, c_inv * t_b, c_inv * t_a


def _dissection_5_parts(order: int) -> tuple[TruncatedSeries, ...]:
    t1 = theta(10, 15, order)
    t2 = theta(5, 20, order)
    t5sq = theta(25, 50, order)
    t5sq = t5sq * t5sq                         # f(-q^25)^2
    inv1, inv2 = t1.inverse(), t2.inverse()
    return t1 * t5sq * (inv2 * inv2), t5sq * inv2, t5sq * inv1, t2 * t5sq * (inv1 * inv1)


_ONE = LaurentPoly.ONE
_TWO_COS_1 = LaurentPoly({1: 1, -1: 1})
_TWO_COS_2 = LaurentPoly({2: 1, -2: 1})

# identity -> (m, modulus, weights w_k, builder of the S_k)
_DISSECTIONS = {
    "dissection-2": (2, PHI8, (_ONE, _TWO_COS_1 - 1), _dissection_2_parts),
    "dissection-3": (3, PHI9, (_ONE, _TWO_COS_1 - 1, _TWO_COS_2), _dissection_3_parts),
    # -4cos^2(2*pi/5), 2cos(4*pi/5), -2cos(2*pi/5)
    "dissection-5": (5, PHI5, (_ONE, -_TWO_COS_2 - 2, _TWO_COS_2, -_TWO_COS_1),
                     _dissection_5_parts),
}


def _rhs_coordinates(identity: str, order: int) -> Columns:
    """The coordinates of sum_k q^k w_k S_k, held per identity."""
    _, modulus, weights, parts = _DISSECTIONS[identity]

    def build(n: int) -> Columns:
        columns = [[0] * (n + 1) for _ in range(modulus.degree)]
        for k, (weight, part) in enumerate(zip(weights, parts(n))):
            for column, w in zip(columns, modulus.project(weight).residue):
                if w:
                    for j, c in enumerate(part.coefficients[:n + 1 - k], k):
                        column[j] += w * c
        return tuple(map(tuple, columns))

    return tuple(c[:order + 1] for c in largest((identity,), order, build))


def _verify_dissection(identity: str, order: int, perturb_power: int | None,
                       root: int = 1) -> VerificationReport:
    m, modulus, _, _ = _DISSECTIONS[identity]
    _check_int("order", order)
    if order < m or order % m:
        raise ValueError(f"order must be a positive multiple of {m}")
    _check_perturb_power(perturb_power, order)
    started = time.perf_counter()
    lhs = crank_coordinates(order, modulus)
    rhs = _perturbed(_rhs_coordinates(identity, order), perturb_power)
    # both sides are compared at the root a itself: a -> a^root is a ring
    # automorphism, so they agree after it exactly where they agree before,
    # and it fixes the one that _perturbed adds; it maps only the witness
    witness = _first_mismatch(
        lhs, rhs,
        lambda values: str(modulus.project(
            QuotientElem(values, modulus).as_laurent().substitute_power(root))),
        f"quotient({modulus})")
    return _report(identity, order, witness, started)


def verify_2_dissection(order: int, perturb_power: int | None = None) -> VerificationReport:
    """Crank generating function splits into its even/odd parts in
    Z[a]/(a^4+1), with q already rescaled so all exponents are integral."""
    return _verify_dissection("dissection-2", order, perturb_power)


def verify_3_dissection(order: int, perturb_power: int | None = None) -> VerificationReport:
    """Crank generating function splits by exponent residue mod 3 in
    Z[a]/(a^6+a^3+1), after rescaling q to clear third powers."""
    return _verify_dissection("dissection-3", order, perturb_power)


def verify_5_dissection(order: int, root_power: int = 1,
                        perturb_power: int | None = None) -> VerificationReport:
    """Crank generating function splits by exponent residue mod 5 as an
    equality in Z[a]/(a^4+a^3+a^2+a+1), after rescaling q to clear fifth
    powers.

    root_power selects which primitive 5th root the symbol plays
    (a -> a^root_power); the identity holds for all four.  The map is an
    automorphism of the ring, so both sides are built and compared once, at
    root 1, and only a failure witness is mapped to the chosen root.
    """
    if type(root_power) is not int or root_power not in FIFTH_ROOTS:
        raise ValueError("root_power must be 1, 2, 3 or 4")
    return _verify_dissection("dissection-5", order, perturb_power, root_power)


def verify_component_4_vanishing(order: int) -> VerificationReport:
    """Nothing lands in exponent class 4 mod 5: the 5-dissection right-hand
    side has an identically zero fourth component, and the fourth component
    of the partition generating function (the crank series at a=1) is
    divisible by 5 coefficient-wise.  The crank at a = 1 comes from the
    product formula in Z[a]/(a - 1), checked against the p(n) of the
    pentagonal recurrence: the column form gives p(n) there by itself, as
    (1 - a) kills every term but 1/(q;q)_inf."""
    _check_int("order", order)
    if order < 5 or order % 5:
        raise ValueError("order must be a positive multiple of 5")
    started = time.perf_counter()
    witness = None

    # the right-hand side that dissection-5 holds
    rhs = _rhs_coordinates("dissection-5", order)
    for n in range(4, order + 1, 5):
        values = tuple(c[n] for c in rhs)
        if any(values):
            witness = FailureWitness(n, "0", str(QuotientElem(values, PHI5)),
                                     f"quotient({PHI5})")
            break

    if witness is None:
        at_one = (tuple(row.get(0, 0) for row in product_rows("crank", order, 1)),)
        witness = _first_mismatch((partition_gf(order).coefficients,), at_one,
                                  lambda values: str(values[0]), "integer")

    if witness is None:
        for n in range(4, order + 1, 5):
            c = at_one[0][n]
            if c % 5:
                witness = FailureWitness(n, "0 mod 5", str(c % 5), "integers mod 5")
                break

    return _report("component-4-vanishing", order, witness, started)


def crank_coefficients(order: int = 20) -> list[LaurentPoly]:
    """The Laurent-polynomial coefficients of q^0..q^order of the crank
    generating function (default: the first 21)."""
    return list(crank_gf(order).coefficients)
