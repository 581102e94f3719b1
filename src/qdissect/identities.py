"""Mechanical verification of the classical crank/rank identities.

Each verifier compares two independently computed sides of an identity,
coefficient by exact coefficient, and returns a :class:`VerificationReport`
with the first failing power of q when the sides disagree.  Both sides are
held as columns (the coefficient of q^n is the tuple of every column's n-th
entry), compared as tuples, and rendered by ``_first_mismatch`` only for a
witness.  This module holds every public verifier; the work of each
lies in the module of the route it checks, so that a one-shot process
loads only that route:

- The statistic tables (the column form, :mod:`qdissect.partitions`) are
  checked against the product formulas of :mod:`qdissect.products`
  (``crank-gf``, ``rank-gf``) and the recurrences of
  :mod:`qdissect.recurrences` (``crank-columns``, ``rank-columns``), here
  in ``_verify_table``.
- The congruences and equidistribution read only p(n) and the column
  form, here.
- The 2-, 3- and 5-dissections and component-4-vanishing are checked in
  cyclotomic quotient rings by :mod:`qdissect.dissections`, against
  theta quotients of :mod:`qdissect.series`.

The verifiers reach those modules as attributes of the package
(``qdissect.products``), which imports each on first access, and call
them through it, where a caller that rebinds a name finds it.

A shape difference fails at the first power one side lacks ("missing").
The congruences p(mn + r) = 0 (mod m) and component-4's mod-5 check share
one divisibility loop, ``_first_indivisible``; equidistribution checks
m*N(k, m, n) = p(n), which implies the congruence, on the m classes of the
column form in Z[a]/(a^m - 1): no statistic table, so no table cap.

Verifiers accept an optional ``perturb_power``: a deliberate one-coefficient
corruption of the comparison (``_perturbed``; the table side of the table
checks, the right-hand side of the dissections), used by the mutation tests
and the CLI self-test flag to confirm the checks can actually fail.  Every
order, n_max and perturbation power passes the library's one check,
``partitions._check_order`` (an ``int``, not a ``bool``, in range), before
any work and before any held entry is read: no check touches a power of q
past ``ORDER_CAP`` (so the congruences and equidistribution cap n_max where
m*n_max + r would pass it), the table checks none past ``TABLE_CAP``, and a
perturbation power lies in 0..order.

No verifier builds a ring object or loads :mod:`qdissect.ring`, passing
or failing.  The dissections and component-4-vanishing compute, and map a
failure witness to a root, in integer coordinates, written by
``partitions._format_vector``.  A table check adds its perturbation to the
a^0 entry of a row dict and renders its witness with
``partitions._format_terms``, the rule ``LaurentPoly`` prints by.
"""

from __future__ import annotations

import time
from itertools import compress, count, zip_longest
from operator import ne
from typing import TYPE_CHECKING, Callable

import qdissect

from .memo import largest
from .partitions import (FIFTH_ROOTS, ORDER_CAP, TABLE_CAP, _check_order, _columns,
                         _format_terms, _Record, partition_count, stat_table)

if TYPE_CHECKING:
    from .ring import LaurentPoly

# modulus -> the residue r of Ramanujan's congruence p(modulus*n + r) = 0 mod modulus
RESIDUE_FOR_MODULUS = {5: 4, 7: 5, 11: 6}
EQUIDISTRIBUTION_MODULI = {"crank": (5, 7, 11), "rank": (5, 7)}


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
    """The first power of q at which two series held as columns differ, or
    one side lacks, with both coefficients rendered by render (which gets
    the tuple of column entries at that power); None if they agree."""
    if expected == actual:
        return None
    # each column pair's first differing index, found in one C-level pass,
    # or the first power the shorter lacks (a column one side lacks is
    # empty); a side without a whole q^n coefficient shows "missing"
    pairs = list(zip_longest(expected, actual, fillvalue=()))
    n = min([next(compress(count(), map(ne, e, a)), min(len(e), len(a))) for e, a in pairs])
    return FailureWitness(n, *[render(tuple(c[n] for c in side)) if n < min(map(len, side))
                               else "missing" for side in zip(*pairs)], ring)


def _perturbed(columns: Columns, power: int | None,
               plus_one: Callable = lambda c: c + 1) -> Columns:
    """columns with the ring's one added to the q^power coefficient: plus_one
    applied to the first column's entry, which is a whole Laurent coefficient
    (a row dict), or the a^0 coordinate of a quotient-ring one.  The result
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
    _check_order("order", order, least, cap=TABLE_CAP)
    # a self-test that could not perturb anything is refused, not passed
    if perturb_power is not None:
        _check_order("perturbation power", perturb_power, cap=order)
    started = time.perf_counter()
    # the other route first: a refusal of its own then comes before any table
    # work.  Rows are dicts without zeros, so they compare as they are
    actual = (tuple(other(kind, order)),)
    rows = stat_table(kind, order).rows
    # a row is a Laurent polynomial as {exponent: coefficient} without zeros:
    # its one adds to the a^0 entry, and it prints as LaurentPoly prints it
    expected = _perturbed(
        (rows if len(rows) == order + 1 else rows[:order + 1],), perturb_power,
        lambda row: {e: c for e, c in {**row, 0: row.get(0, 0) + 1}.items() if c})
    witness = _first_mismatch(
        expected, actual, lambda values: _format_terms(sorted(values[0].items(), reverse=True)),
        "laurent")
    return _report(identity, order, witness, started)


def verify_crank_gf(order: int, perturb_power: int | None = None) -> VerificationReport:
    """Coefficients of the crank product formula equal the crank table,
    rows 0..order."""
    return _verify_table("crank-gf", "crank", order, 2, qdissect.products.product_rows,
                         perturb_power)


def verify_rank_gf(order: int, perturb_power: int | None = None) -> VerificationReport:
    """Coefficients of the rank series sum q^(n^2) / ((aq;q)_n (q/a;q)_n)
    equal the rank table, rows 0..order."""
    return _verify_table("rank-gf", "rank", order, 1, qdissect.products.product_rows,
                         perturb_power)


def verify_crank_columns(order: int, perturb_power: int | None = None) -> VerificationReport:
    """The crank table equals the (ones, parts above the ones) recurrence of
    ``recurrences.recurrence_rows``, rows 0..order."""
    return _verify_table("crank-columns", "crank", order, 2,
                         qdissect.recurrences.recurrence_rows, perturb_power)


def verify_rank_columns(order: int, perturb_power: int | None = None) -> VerificationReport:
    """The rank table equals the (largest part, number of parts) recurrence
    of ``recurrences.recurrence_rows``, rows 0..order."""
    return _verify_table("rank-columns", "rank", order, 1,
                         qdissect.recurrences.recurrence_rows, perturb_power)


# ---------------------------------------------------------------------------
# arithmetic congruences and equidistribution

def _first_indivisible(powers: range, value: Callable[[int], int]) -> FailureWitness | None:
    """The first n in powers (all n = r mod m, m = powers.step) at which m
    does not divide value(n), with its remainder; None if m divides all."""
    modulus = powers.step
    for n in powers:
        remainder = value(n) % modulus
        if remainder:
            return FailureWitness(n, "0", str(remainder), f"integers mod {modulus}")
    return None


def verify_congruence(modulus: int, n_max: int) -> VerificationReport:
    """p(modulus*n + residue) is divisible by modulus for all n <= n_max,
    for the three classical moduli 5, 7, 11 and their residues 4, 5, 6."""
    # the type first: 5.0 == 5, and a list is not hashable
    if type(modulus) is not int or modulus not in RESIDUE_FOR_MODULUS:
        raise ValueError(f"unsupported congruence modulus {modulus!r}")
    residue = RESIDUE_FOR_MODULUS[modulus]
    _check_order("n_max", n_max, cap=(ORDER_CAP - residue) // modulus)
    started = time.perf_counter()
    witness = _first_indivisible(range(residue, modulus * n_max + residue + 1, modulus),
                                 partition_count)
    return _report(f"congruence-{modulus}-{residue}", n_max, witness, started)


def verify_equidistribution(statistic: str, modulus: int, n_max: int) -> VerificationReport:
    """m*N(k, m, n) = p(n) for every class k, m = `modulus` and n = m*j +
    residue, j <= n_max (RESIDUE_FOR_MODULUS): the N(k, m, n) partitions of
    n whose statistic is k mod m, class k of ``partitions._columns`` at
    size m, held per (statistic, m), are the same number in every class.

    Supported: crank for moduli 5, 7, 11; rank for moduli 5 and 7 only (the
    rank does not equidistribute modulo 11).
    """
    # the types first: 5.0 == 5, and a list is not hashable
    if type(statistic) is not str or statistic not in EQUIDISTRIBUTION_MODULI:
        raise ValueError(f"unknown statistic {statistic!r}")
    if type(modulus) is not int or modulus not in EQUIDISTRIBUTION_MODULI[statistic]:
        raise ValueError(
            f"equidistribution of the {statistic} is not available mod {modulus!r}")
    residue = RESIDUE_FOR_MODULUS[modulus]
    _check_order("n_max", n_max, cap=(ORDER_CAP - residue) // modulus)
    size = modulus * n_max + residue
    started = time.perf_counter()
    classes = largest(("classes", statistic, modulus), size,
                      lambda n: tuple(map(tuple, _columns(statistic, n, modulus))))
    for n in range(residue, size + 1, modulus):
        p = partition_count(n)
        for k, got in enumerate([column[n] for column in classes]):
            if modulus * got != p:
                return _report(f"equidist-{statistic}-{modulus}", n_max, FailureWitness(
                    n, str(p), f"{modulus * got} (class {k})", "integer"), started)
    return _report(f"equidist-{statistic}-{modulus}", n_max, None, started)


# ---------------------------------------------------------------------------
# dissections in the cyclotomic quotient rings: qdissect.dissections

def verify_2_dissection(order: int, perturb_power: int | None = None) -> VerificationReport:
    """Crank generating function splits into its even/odd parts in
    Z[a]/(a^4+1), with q already rescaled so all exponents are integral."""
    return qdissect.dissections._verify_dissection("dissection-2", order, perturb_power)


def verify_3_dissection(order: int, perturb_power: int | None = None) -> VerificationReport:
    """Crank generating function splits by exponent residue mod 3 in
    Z[a]/(a^6+a^3+1), after rescaling q to clear third powers."""
    return qdissect.dissections._verify_dissection("dissection-3", order, perturb_power)


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
    return qdissect.dissections._verify_dissection("dissection-5", order, perturb_power,
                                                  root_power)


def verify_component_4_vanishing(order: int) -> VerificationReport:
    """Nothing lands in exponent class 4 mod 5: the 5-dissection right-hand
    side has an identically zero fourth component, and the fourth component
    of the partition generating function (the crank series at a=1) is
    divisible by 5 coefficient-wise.  The crank at a = 1 comes from the
    product formula in Z[a]/(a - 1), checked against the p(n) of the
    pentagonal recurrence: the column form gives p(n) there by itself, as
    (1 - a) kills every term but 1/(q;q)_inf."""
    return qdissect.dissections._verify_component_4(order)


def crank_coefficients(order: int = 20) -> list[LaurentPoly]:
    """The Laurent-polynomial coefficients of q^0..q^order of the crank
    generating function (default: the first 21).  No program path calls it;
    it stays because perfbench/tracer.py patches it by name."""
    return list(qdissect.series.crank_gf(order).coefficients)
