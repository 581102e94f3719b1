"""Mechanical verification of the classical crank/rank identities.

Each verifier compares two independently computed sides of an identity,
coefficient by exact coefficient, and returns a :class:`VerificationReport`
with the first failing power of q when the sides disagree; series are
compared by one helper, ``_first_mismatch``.  The 2-, 3- and 5-dissections
share one verifier body and are checked as equalities of images in the
matching cyclotomic quotient ring (a^4+1, a^6+a^3+1 and a^4+a^3+a^2+a+1),
after rescaling q so that every exponent is integral.  Each right-hand side
states weights w_k (Laurent polynomials in a) and integer series S_k, and
one helper sums q^k w_k S_k into the ring.  The right-hand sides depend
only on the order (and, for the 5-dissection, the root), so each is kept
at the largest order built so far in :mod:`qdissect.memo`, like the
left-hand sides, and sliced down for smaller requests.

Verifiers accept an optional ``perturb_power``: a deliberate one-coefficient
corruption of the comparison (``_perturbed``; the table side of the
generating function checks, the right-hand side of the dissections), used
by the mutation tests and the CLI self-test flag to confirm the checks can
actually fail.
"""

from __future__ import annotations

import time
from typing import Callable

from .memo import largest
from .partitions import _Record, partition_count, stat_table
from .ring import (
    INTEGER_RING,
    LAURENT_RING,
    PHI5,
    PHI8,
    PHI9,
    LaurentPoly,
    Modulus,
    quotient_ring,
)
from .series import TruncatedSeries, crank_gf, pochhammer_inf, rank_gf, theta

CONGRUENCE_PAIRS = ((5, 4), (7, 5), (11, 6))
EQUIDISTRIBUTION_MODULI = {"crank": (5, 7, 11), "rank": (5, 7)}
RESIDUE_FOR_MODULUS = {5: 4, 7: 5, 11: 6}
# a -> a^r for these r sends a primitive 5th root of unity to each of the four
FIFTH_ROOTS = (1, 2, 3, 4)

# Z[a]/(a - 1): the specialisation a = 1, where the crank series is 1/(q;q)_inf
_AT_ONE = Modulus((-1, 1))


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


def _first_mismatch(expected: TruncatedSeries, actual: TruncatedSeries) -> FailureWitness | None:
    for n in range(min(expected.order, actual.order) + 1):
        e, a = expected.coefficient(n), actual.coefficient(n)
        if e != a:
            return FailureWitness(n, str(e), str(a), expected.ring.name)
    return None


def _check_perturb_power(power: int | None, order: int) -> None:
    # every verifier calls this before any work, so a self-test that could
    # not perturb anything is refused instead of reporting a pass
    if power is not None and not 0 <= power <= order:
        raise ValueError(f"perturbation power {power} outside order {order}")


def _perturbed(series: TruncatedSeries, power: int | None) -> TruncatedSeries:
    if power is None:
        return series
    coeffs = list(series.coefficients)
    coeffs[power] = coeffs[power] + series.ring.one
    return TruncatedSeries(coeffs, series.ring)


# ---------------------------------------------------------------------------
# generating function vs. combinatorial count

def _verify_gf_against_table(identity: str, kind: str, order: int,
                             build: Callable[[int], TruncatedSeries],
                             perturb_power: int | None) -> VerificationReport:
    _check_perturb_power(perturb_power, order)
    started = time.perf_counter()
    # the table first: it refuses orders beyond the enumeration cap before
    # any series is built
    table = stat_table(kind, order)
    series = build(order)
    expected = TruncatedSeries([LaurentPoly(table.row(n)) for n in range(order + 1)],
                               LAURENT_RING)
    return _report(identity, order,
                   _first_mismatch(_perturbed(expected, perturb_power), series), started)


def verify_crank_gf(order: int, perturb_power: int | None = None) -> VerificationReport:
    """Coefficients of the crank product formula equal the crank counting
    table: conventions at n <= 1, the (ones, parts above the ones)
    recurrence of ``partitions.build_stat_table`` for 2 <= n <= order."""
    if order < 2:
        raise ValueError("order must be >= 2")
    return _verify_gf_against_table("crank-gf", "crank", order, crank_gf, perturb_power)


def verify_rank_gf(order: int, perturb_power: int | None = None) -> VerificationReport:
    """Coefficients of the rank series equal the rank counting table, from
    the (largest part, number of parts) recurrence of
    ``partitions.build_stat_table``."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return _verify_gf_against_table("rank-gf", "rank", order, rank_gf, perturb_power)


# ---------------------------------------------------------------------------
# arithmetic congruences and equidistribution

def verify_congruence(modulus: int, residue: int, n_max: int) -> VerificationReport:
    """p(modulus*n + residue) is divisible by modulus for all n <= n_max,
    for the three classical pairs (5,4), (7,5), (11,6)."""
    if (modulus, residue) not in CONGRUENCE_PAIRS:
        raise ValueError(f"unsupported congruence pair ({modulus}, {residue})")
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


def verify_equidistribution(statistic: str, modulus: int, residue: int,
                            n_max: int) -> VerificationReport:
    """Every residue class of the statistic modulo `modulus` holds exactly
    p(modulus*n + residue)/modulus partitions.

    Supported: crank for moduli 5, 7, 11; rank for moduli 5 and 7 only (the
    rank does not equidistribute modulo 11).
    """
    if statistic not in EQUIDISTRIBUTION_MODULI:
        raise ValueError(f"unknown statistic {statistic!r}")
    if modulus not in EQUIDISTRIBUTION_MODULI[statistic]:
        raise ValueError(f"equidistribution of the {statistic} is not available mod {modulus}")
    if residue != RESIDUE_FOR_MODULUS[modulus]:
        raise ValueError(f"residue must be {RESIDUE_FOR_MODULUS[modulus]} for modulus {modulus}")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    started = time.perf_counter()
    table = stat_table(statistic, modulus * n_max + residue)
    witness = None
    for n in range(n_max + 1):
        arg = modulus * n + residue
        total = partition_count(arg)
        if total % modulus:
            witness = FailureWitness(arg, f"multiple of {modulus}", str(total), "integer")
            break
        share = total // modulus
        for k in range(modulus):
            got = table.count_mod(k, modulus, arg)
            if got != share:
                witness = FailureWitness(arg, str(share), f"{got} (class {k})", "integer")
                break
        if witness:
            break
    return _report(f"equidist-{statistic}-{modulus}", n_max, witness, started)


# ---------------------------------------------------------------------------
# dissections in the cyclotomic quotient rings

def _weighted_sum(modulus: Modulus,
                  terms: list[tuple[LaurentPoly, TruncatedSeries]]) -> TruncatedSeries:
    """sum_k q^k w_k S_k in Z[a]/(modulus) from the pairs (w_k, S_k): each
    integer series S_k enters the ring once, times the projected weight."""
    ring = quotient_ring(modulus)
    total = None
    for k, (weight, part) in enumerate(terms):
        w = modulus.project(weight)
        term = part.map_coefficients(lambda c: w * c, ring).shift(k)
        total = term if total is None else total + term
    return total


def _verify_dissection(key: tuple, m: int, modulus: Modulus, order: int,
                       perturb_power: int | None, build: Callable[[int], TruncatedSeries],
                       root_power: int = 1) -> VerificationReport:
    """The crank product in Z[a]/(modulus), with a -> a^root_power, against
    the m-dissection right-hand side held under key, whose first entry is
    the identity's name."""
    if order < m or order % m:
        raise ValueError(f"order must be a positive multiple of {m}")
    _check_perturb_power(perturb_power, order)
    started = time.perf_counter()
    if root_power == 1:
        lhs = crank_gf(order, modulus)
    else:
        def mapped(n: int) -> TruncatedSeries:
            return crank_gf(n, modulus).map_coefficients(
                lambda c: modulus.project(c.as_laurent().substitute_power(root_power)))
        # held per root, like the series it maps
        lhs = largest(("crank", modulus, root_power), order, mapped).truncate(order)
    rhs = largest(key, order, build).truncate(order)
    return _report(key[0], order, _first_mismatch(lhs, _perturbed(rhs, perturb_power)),
                   started)


# The right-hand sides: integer series S_k with their weights w_k in a.
# 2cos(2*pi*k/m) is realized exactly as a^k + a^-k.

def _dissection_2_rhs(order: int) -> TruncatedSeries:
    inv = pochhammer_inf(-1, 4, 4, order).inverse()
    return _weighted_sum(PHI8, [
        (LaurentPoly.ONE, theta(6, 10, order) * inv),
        (LaurentPoly({1: 1, 0: -1, -1: 1}), theta(2, 14, order) * inv),
    ])


def verify_2_dissection(order: int, perturb_power: int | None = None) -> VerificationReport:
    """Crank generating function splits into its even/odd parts in
    Z[a]/(a^4+1), with q already rescaled so all exponents are integral."""
    return _verify_dissection(("dissection-2",), 2, PHI8, order, perturb_power,
                              _dissection_2_rhs)


def _dissection_3_rhs(order: int) -> TruncatedSeries:
    t_a = theta(6, 21, order)
    t_b = theta(12, 15, order)
    inv = pochhammer_inf(1, 27, 27, order).inverse()
    c_inv = theta(3, 24, order) * inv
    return _weighted_sum(PHI9, [
        (LaurentPoly.ONE, t_a * t_b * inv),
        (LaurentPoly({1: 1, 0: -1, -1: 1}), c_inv * t_b),
        (LaurentPoly({2: 1, -2: 1}), c_inv * t_a),
    ])


def verify_3_dissection(order: int, perturb_power: int | None = None) -> VerificationReport:
    """Crank generating function splits by exponent residue mod 3 in
    Z[a]/(a^6+a^3+1), after rescaling q to clear third powers."""
    return _verify_dissection(("dissection-3",), 3, PHI9, order, perturb_power,
                              _dissection_3_rhs)


def _dissection_5_rhs(order: int, root_power: int) -> TruncatedSeries:
    # the root enters only through the weights
    t1 = theta(10, 15, order)
    t2 = theta(5, 20, order)
    t5sq = theta(25, 50, order)
    t5sq = t5sq * t5sq                         # f(-q^25)^2
    inv1, inv2 = t1.inverse(), t2.inverse()
    r = root_power
    return _weighted_sum(PHI5, [
        (LaurentPoly.ONE, t1 * t5sq * (inv2 * inv2)),
        (LaurentPoly({2 * r: -1, 0: -2, -2 * r: -1}), t5sq * inv2),   # -4cos^2(2r*pi/5)
        (LaurentPoly({2 * r: 1, -2 * r: 1}), t5sq * inv1),            # 2cos(4r*pi/5)
        (LaurentPoly({r: -1, -r: -1}), t2 * t5sq * (inv1 * inv1)),    # -2cos(2r*pi/5)
    ])


def verify_5_dissection(order: int, root_power: int = 1,
                        perturb_power: int | None = None) -> VerificationReport:
    """Crank generating function splits by exponent residue mod 5 as an
    equality in Z[a]/(a^4+a^3+a^2+a+1), after rescaling q to clear fifth
    powers.

    root_power selects which primitive 5th root the symbol plays on the
    left-hand side (a -> a^root_power); the identity holds for all four.
    The left-hand side is built once in Z[a]/Phi5; the other roots apply
    the Galois automorphism a -> a^root_power to each coefficient, and the
    mapped series is held per root in :mod:`qdissect.memo`.
    """
    if root_power not in FIFTH_ROOTS:
        raise ValueError("root_power must be 1, 2, 3 or 4")
    # one memo entry per root; component-4-vanishing reads the root-1 entry
    return _verify_dissection(("dissection-5", root_power), 5, PHI5, order, perturb_power,
                              lambda n: _dissection_5_rhs(n, root_power), root_power)


def verify_component_4_vanishing(order: int) -> VerificationReport:
    """Nothing lands in exponent class 4 mod 5: the 5-dissection right-hand
    side has an identically zero fourth component, and the fourth component
    of the partition generating function (the crank series at a=1) is
    divisible by 5 coefficient-wise."""
    if order < 5 or order % 5:
        raise ValueError("order must be a positive multiple of 5")
    started = time.perf_counter()
    witness = None

    rhs = largest(("dissection-5", 1), order, lambda n: _dissection_5_rhs(n, 1))
    rhs4 = rhs.truncate(order).dissect(5)[4]
    ring5 = quotient_ring(PHI5)
    for j in range(rhs4.order + 1):
        c = rhs4.coefficient(j)
        if c != ring5.zero:
            witness = FailureWitness(5 * j + 4, "0", str(c), ring5.name)
            break

    if witness is None:
        at_one = crank_gf(order, _AT_ONE).map_coefficients(
            lambda c: c.residue[0], INTEGER_RING
        )
        counts = TruncatedSeries([partition_count(n) for n in range(order + 1)])
        witness = _first_mismatch(counts, at_one)

    if witness is None:
        comp4 = at_one.dissect(5)[4]
        for j in range(comp4.order + 1):
            c = comp4.coefficient(j)
            if c % 5:
                witness = FailureWitness(5 * j + 4, "0 mod 5", str(c % 5), "integers mod 5")
                break

    return _report("component-4-vanishing", order, witness, started)


def crank_coefficients(order: int = 20) -> list[LaurentPoly]:
    """The Laurent-polynomial coefficients of q^0..q^order of the crank
    generating function (default: the first 21)."""
    return list(crank_gf(order).coefficients)
