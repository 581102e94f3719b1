"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every comparison is exact (integer / ring equality, tolerance zero).  Run
with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import random
import time

from qdissect.partitions import build_stat_table, enumerate_partitions, partition_count
from qdissect.ring import LaurentPoly
from qdissect.series import (
    TruncatedSeries,
    crank_gf,
    euler_product,
    rank_gf,
    theta,
)
from qdissect.identities import (
    verify_2_dissection,
    verify_3_dissection,
    verify_5_dissection,
    verify_component_4_vanishing,
    verify_congruence,
    verify_crank_gf,
    verify_equidistribution,
    verify_rank_gf,
)

SEED = 20260810


def announce(number, name, body):
    started = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS "
          f"[{time.perf_counter() - started:.1f}s]")


def test_criterion_1_crank_gf_matches_combinatorics():
    def body():
        report = verify_crank_gf(40)
        assert report.passed, report
        # spot-check the convention row explicitly
        table = build_stat_table("crank", 1)
        assert table.row(1) == {-1: 1, 0: -1, 1: 1}
        assert crank_gf(1).coefficients[1] == LaurentPoly({-1: 1, 0: -1, 1: 1})

    announce(1, "crank gf vs combinatorial count to order 40", body)


def test_criterion_2_rank_gf_matches_combinatorics():
    def body():
        report = verify_rank_gf(30)
        assert report.passed, report

    announce(2, "rank gf vs combinatorial count to order 30", body)


def test_criterion_3_partition_congruences():
    def body():
        assert verify_congruence(5, 20).passed
        assert verify_congruence(7, 15).passed
        assert verify_congruence(11, 10).passed
        # pentagonal recurrence cross-checked against full enumeration
        for n in range(41):
            assert partition_count(n) == sum(1 for _ in enumerate_partitions(n))

    announce(3, "congruences mod 5/7/11 + recurrence vs enumeration", body)


def test_criterion_4_equidistribution():
    def body():
        assert verify_equidistribution("crank", 5, 8).passed   # 5n+4 <= 44
        assert verify_equidistribution("crank", 7, 5).passed   # 7n+5 <= 40
        assert verify_equidistribution("crank", 11, 3).passed  # 11n+6 <= 39
        assert verify_equidistribution("rank", 5, 8).passed    # 5n+4 <= 44
        assert verify_equidistribution("rank", 7, 5).passed    # 7n+5 <= 40

    announce(4, "crank/rank equidistribution", body)


def test_criterion_5_dissection_2():
    def body():
        report = verify_2_dissection(80)
        assert report.passed, report
        # monotone truncation consistency at intermediate even orders
        for order in (2, 20, 40, 60):
            assert verify_2_dissection(order).passed

    announce(5, "2-dissection in Z[a]/(a^4+1) to order 80", body)


def test_criterion_6_dissection_3():
    def body():
        report = verify_3_dissection(81)
        assert report.passed, report
        for order in (3, 27, 54):
            assert verify_3_dissection(order).passed

    announce(6, "3-dissection in Z[a]/(a^6+a^3+1) to order 81", body)


def test_criterion_7_dissection_5():
    def body():
        for root in (1, 2, 3, 4):
            report = verify_5_dissection(100, root_power=root)
            assert report.passed, report
        for order in (5, 50):
            assert verify_5_dissection(order).passed
        report = verify_component_4_vanishing(100)
        assert report.passed, report

    announce(7, "5-dissection in Z[a]/(a^4+a^3+a^2+a+1) to order 100, all roots", body)


def _random_laurent(rng):
    return LaurentPoly(
        {rng.randint(-6, 6): rng.randint(-20, 20) for _ in range(rng.randint(0, 6))}
    )


def test_criterion_8_property_suite():
    def body():
        rng = random.Random(SEED)
        zero, one = LaurentPoly.ZERO, LaurentPoly.ONE
        for _ in range(1000):
            p, q, r = (_random_laurent(rng) for _ in range(3))
            assert (p + q) + r == p + (q + r)
            assert p + q == q + p
            assert (p * q) * r == p * (q * r)
            assert p * q == q * p
            assert p * (q + r) == p * q + p * r
            assert p + zero == p
            assert p * one == p
            assert p + (-p) == zero

        for _ in range(200):
            coeffs = [rng.choice((1, -1))] + [rng.randint(-9, 9) for _ in range(25)]
            x = TruncatedSeries(coeffs)
            assert x * x.inverse() == TruncatedSeries.one(x.order)

        for m in (2, 3, 5, 7):
            for _ in range(100):
                coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(1, 41))]
                parts = TruncatedSeries(coeffs).dissect(m)
                assert [parts[n % m].coefficients[n // m] for n in range(len(coeffs))] == coeffs

        naive = [0] * 201
        naive[0] = 1
        for k in range(1, 201):
            for n in range(200, k - 1, -1):
                naive[n] -= naive[n - k]
        assert list(euler_product(200).coefficients) == naive

        cgf, rgf = crank_gf(40), rank_gf(40)
        for n in range(41):
            assert cgf.coefficients[n].is_palindromic()
            assert rgf.coefficients[n].is_palindromic()

        for r in range(1, 11):
            for s in range(1, 11):
                assert theta(r, s, 30) == theta(s, r, 30)

    announce(8, "property suite (ring axioms, roundtrips, palindromy, symmetry)", body)


def test_criterion_9_falsifiability():
    def body():
        for verifier, order in ((verify_2_dissection, 80),
                                (verify_3_dissection, 81),
                                (verify_5_dissection, 100)):
            report = verifier(order, perturb_power=1)
            assert report.status == "fail"
            assert report.failure_witness is not None
            assert report.failure_witness.power == 1

    announce(9, "dissection verifiers fail on perturbed input with witness", body)
