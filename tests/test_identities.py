import pytest

from qdissect import identities, memo
from qdissect.identities import (
    FailureWitness,
    VerificationReport,
    crank_coefficients,
    verify_2_dissection,
    verify_3_dissection,
    verify_5_dissection,
    verify_component_4_vanishing,
    verify_congruence,
    verify_crank_gf,
    verify_equidistribution,
    verify_rank_gf,
)
from qdissect.identities import _dissection_2_rhs, _dissection_3_rhs, _dissection_5_rhs
from qdissect.partitions import Partition, build_stat_table, enumerate_partitions
from qdissect.ring import PHI5, PHI8, PHI9, LaurentPoly, QuotientElem, quotient_ring
from qdissect.series import TruncatedSeries, pochhammer_inf, theta


def test_verify_crank_gf_passes():
    report = verify_crank_gf(12)
    assert report.passed
    assert report.status == "pass"
    assert report.failure_witness is None
    with pytest.raises(ValueError):
        verify_crank_gf(1)


def test_verify_crank_gf_detects_flipped_table_entry():
    report = verify_crank_gf(12, perturb_power=5)
    assert report.status == "fail"
    assert report.failure_witness.power == 5
    assert report.failure_witness.ring == "laurent"


def test_verify_rank_gf_passes():
    assert verify_rank_gf(10).passed
    report = verify_rank_gf(10, perturb_power=3)
    assert not report.passed
    assert report.failure_witness.power == 3
    with pytest.raises(ValueError):
        verify_rank_gf(0)


@pytest.mark.parametrize("verify", [verify_crank_gf, verify_rank_gf, verify_2_dissection,
                                    verify_3_dissection, verify_5_dissection])
def test_perturbation_leaves_cached_table_intact(verify):
    # the verifiers share one cached table per statistic and one cached
    # right-hand side per dissection; a perturbed run must not write its
    # corruption into either
    for power in (0, 4, 30):
        assert verify(30, perturb_power=power).failure_witness.power == power
        assert verify(30).passed


PHI5_RING = "quotient(a^4 + a^3 + a^2 + a + 1)"


@pytest.mark.parametrize("verify,order,kwargs,witness", [
    (verify_crank_gf, 20, {"perturb_power": 7},
     (7, "a^7 + a^5 + a^4 + a^3 + a^2 + 2a + 2 + 2a^-1 + a^-2 + a^-3 + a^-4 + a^-5 + a^-7",
      "a^7 + a^5 + a^4 + a^3 + a^2 + 2a + 1 + 2a^-1 + a^-2 + a^-3 + a^-4 + a^-5 + a^-7",
      "laurent")),
    (verify_rank_gf, 20, {"perturb_power": 7},
     (7, "a^6 + a^4 + a^3 + 2a^2 + a + 4 + a^-1 + 2a^-2 + a^-3 + a^-4 + a^-6",
      "a^6 + a^4 + a^3 + 2a^2 + a + 3 + a^-1 + 2a^-2 + a^-3 + a^-4 + a^-6", "laurent")),
    (verify_2_dissection, 20, {"perturb_power": 1},
     (1, "-a^3 + a - 1", "-a^3 + a", "quotient(a^4 + 1)")),
    (verify_3_dissection, 21, {"perturb_power": 1},
     (1, "-a^5 - a^2 + a - 1", "-a^5 - a^2 + a", "quotient(a^6 + a^3 + 1)")),
    (verify_5_dissection, 20, {"root_power": 1, "perturb_power": 1},
     (1, "-a^3 - a^2 - 2", "-a^3 - a^2 - 1", PHI5_RING)),
    (verify_5_dissection, 20, {"root_power": 2, "perturb_power": 1},
     (1, "a^3 + a^2 - 1", "a^3 + a^2", PHI5_RING)),
    (verify_5_dissection, 20, {"root_power": 3, "perturb_power": 1},
     (1, "a^3 + a^2 - 1", "a^3 + a^2", PHI5_RING)),
    (verify_5_dissection, 20, {"root_power": 4, "perturb_power": 1},
     (1, "-a^3 - a^2 - 2", "-a^3 - a^2 - 1", PHI5_RING)),
], ids=["crank-gf", "rank-gf", "dissection-2", "dissection-3",
        "dissection-5-root-1", "dissection-5-root-2", "dissection-5-root-3",
        "dissection-5-root-4"])
def test_failure_witnesses_are_frozen(verify, order, kwargs, witness):
    # the gf verifiers perturb the table (expected), the dissections their
    # right-hand side (actual); every rendered value is pinned
    w = verify(order, **kwargs).failure_witness
    assert (w.power, w.expected, w.actual, w.ring) == witness


def test_verify_congruence():
    assert verify_congruence(5, 4, 8).passed
    assert verify_congruence(7, 5, 6).passed
    assert verify_congruence(11, 6, 4).passed
    with pytest.raises(ValueError):
        verify_congruence(5, 3, 8)
    with pytest.raises(ValueError):
        verify_congruence(13, 6, 8)


def test_verify_equidistribution():
    assert verify_equidistribution("crank", 5, 4, 2).passed
    assert verify_equidistribution("crank", 7, 5, 1).passed
    assert verify_equidistribution("crank", 11, 6, 1).passed
    assert verify_equidistribution("rank", 5, 4, 2).passed
    assert verify_equidistribution("rank", 7, 5, 1).passed


def test_equidistribution_usage_errors():
    with pytest.raises(ValueError):
        verify_equidistribution("rank", 11, 6, 1)     # fails mathematically, refused
    with pytest.raises(ValueError):
        verify_equidistribution("crank", 5, 3, 1)     # wrong residue
    with pytest.raises(ValueError):
        verify_equidistribution("median", 5, 4, 1)


def test_dissection_2():
    assert verify_2_dissection(20).passed
    for bad in (0, 7, -2):
        with pytest.raises(ValueError):
            verify_2_dissection(bad)


def test_dissection_3():
    assert verify_3_dissection(21).passed
    with pytest.raises(ValueError):
        verify_3_dissection(20)


def test_dissection_5_all_roots():
    for root in (1, 2, 3, 4):
        assert verify_5_dissection(20, root_power=root).passed
    with pytest.raises(ValueError):
        verify_5_dissection(21)
    with pytest.raises(ValueError):
        verify_5_dissection(20, root_power=5)


def test_dissection_5_inverts_each_theta_once(monkeypatch):
    calls = []
    original = TruncatedSeries.inverse

    def counted(self):
        calls.append(self.order)
        return original(self)

    monkeypatch.setattr(TruncatedSeries, "inverse", counted)
    assert verify_5_dissection(20).passed
    assert len(calls) == 2

    # a smaller order is a slice of the held right-hand side
    def refuse(order, root_power):
        raise AssertionError("right-hand side rebuilt")

    monkeypatch.setattr(identities, "_dissection_5_rhs", refuse)
    assert verify_5_dissection(10).passed
    assert verify_component_4_vanishing(15).passed
    assert len(calls) == 2


# oracle: the right-hand sides built with every factor, product and inverse
# in the quotient ring itself
def quotient_rhs_2(order):
    ring = quotient_ring(PHI8)
    inv = pochhammer_inf(ring.from_int(-1), 4, 4, order, ring).inverse()
    even = theta(6, 10, order, ring=ring) * inv
    odd = theta(2, 14, order, ring=ring) * inv
    weight = PHI8.project(LaurentPoly({1: 1, 0: -1, -1: 1}))
    return even + odd.map_coefficients(lambda c: c * weight).shift(1)


def quotient_rhs_3(order):
    ring = quotient_ring(PHI9)
    t_a = theta(6, 21, order, ring=ring)
    t_b = theta(12, 15, order, ring=ring)
    t_c = theta(3, 24, order, ring=ring)
    inv = pochhammer_inf(ring.one, 27, 27, order, ring).inverse()
    w1 = PHI9.project(LaurentPoly({1: 1, 0: -1, -1: 1}))
    w2 = PHI9.project(LaurentPoly({2: 1, -2: 1}))
    return (t_a * t_b
            + (t_c * t_b).map_coefficients(lambda c: c * w1).shift(1)
            + (t_c * t_a).map_coefficients(lambda c: c * w2).shift(2)) * inv


def quotient_rhs_5(order, r):
    ring = quotient_ring(PHI5)
    t1 = theta(10, 15, order, ring=ring)
    t2 = theta(5, 20, order, ring=ring)
    t5sq = theta(25, 50, order, ring=ring) * theta(25, 50, order, ring=ring)
    w1 = PHI5.project(LaurentPoly({2 * r: 1, 0: 2, -2 * r: 1}))
    w2 = PHI5.project(LaurentPoly({2 * r: 1, -2 * r: 1}))
    w3 = PHI5.project(LaurentPoly({r: 1, -r: 1}))
    return (t1 * t5sq * (t2 * t2).inverse()
            + (t5sq * t2.inverse()).map_coefficients(lambda c: c * -w1).shift(1)
            + (t5sq * t1.inverse()).map_coefficients(lambda c: c * w2).shift(2)
            + (t2 * t5sq * (t1 * t1).inverse()).map_coefficients(lambda c: c * -w3).shift(3))


def test_integer_route_rhs_equals_quotient_ring_construction():
    assert _dissection_2_rhs(20) == quotient_rhs_2(20)
    assert _dissection_3_rhs(21) == quotient_rhs_3(21)
    for r in (1, 2, 3, 4):
        assert _dissection_5_rhs(20, r) == quotient_rhs_5(20, r)


def test_dissection_verifiers_need_no_quotient_inverse(monkeypatch):
    calls = []
    original = QuotientElem.inverse

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(QuotientElem, "inverse", counted)
    assert verify_2_dissection(20).passed
    assert verify_3_dissection(21).passed
    for r in (1, 2, 3, 4):
        assert verify_5_dissection(20, root_power=r).passed
    assert calls == []


@pytest.mark.parametrize("verifier,order", [
    (verify_2_dissection, 10),
    (verify_3_dissection, 9),
    (verify_5_dissection, 10),
])
def test_dissection_verifiers_are_falsifiable(verifier, order):
    report = verifier(order, perturb_power=1)
    assert report.status == "fail"
    assert report.failure_witness is not None
    assert report.failure_witness.power == 1
    # the witness renders both ring elements
    assert report.failure_witness.expected != report.failure_witness.actual


def test_perturbation_power_validated():
    with pytest.raises(ValueError):
        verify_2_dissection(10, perturb_power=11)


def test_dissections_pass_at_every_intermediate_order():
    # truncation consistency: not just the headline orders
    # and each slice of a held right-hand side equals a direct build
    for verify, key, build, top, step in (
        (verify_2_dissection, ("dissection-2",), _dissection_2_rhs, 80, 2),
        (verify_3_dissection, ("dissection-3",), _dissection_3_rhs, 81, 3),
        (verify_5_dissection, ("dissection-5", 1), lambda n: _dissection_5_rhs(n, 1), 100, 5),
    ):
        assert verify(top).passed                 # warms the series caches
        held_order, held = memo._held[key]
        assert held_order == top
        for order in range(step, top + 1, step):
            assert verify(order).passed
            assert held.truncate(order) == build(order)


def test_component_4_vanishing():
    assert verify_component_4_vanishing(20).passed
    with pytest.raises(ValueError):
        verify_component_4_vanishing(12)


def test_crank_coefficients_low_orders():
    coeffs = crank_coefficients(2)
    assert coeffs[0] == LaurentPoly.ONE
    assert coeffs[1] == LaurentPoly({1: 1, 0: -1, -1: 1})
    assert coeffs[2] == LaurentPoly({2: 1, -2: 1})
    assert len(crank_coefficients()) == 21


def test_agreement_chain_gf_table_coefficients():
    # generating function expansion == statistic table for every n >= 2
    coeffs = crank_coefficients(12)
    table = build_stat_table("crank", 12)
    for n in range(2, 13):
        assert coeffs[n].terms == table.row(n)


def test_reports_are_deterministic():
    first = verify_2_dissection(10)
    second = verify_2_dissection(10)
    assert first == second          # elapsed is excluded from comparison
    assert first.elapsed >= 0.0
    f1 = verify_congruence(5, 4, 6)
    f2 = verify_congruence(5, 4, 6)
    assert f1 == f2
    assert f1.identity == "congruence-5-4"
    assert f1.order == 6


def test_witness_fields():
    w = FailureWitness(3, "a", "b", "laurent")
    report = VerificationReport("x", 5, "fail", w, 0.0)
    assert not report.passed
    assert report.failure_witness.expected == "a"


def test_records_compare_by_value_and_refuse_assignment():
    witness = FailureWitness(3, "a", "b", "laurent")
    same = FailureWitness(3, "a", "b", "laurent")
    assert witness == same and hash(witness) == hash(same)
    assert witness != FailureWitness(4, "a", "b", "laurent")

    report = VerificationReport("x", 5, "fail", witness, 0.25)
    rerun = VerificationReport("x", 5, "fail", same, 7.5)
    assert report == rerun and hash(report) == hash(rerun)    # elapsed ignored
    assert report != VerificationReport("x", 5, "pass", witness, 0.25)
    assert report != VerificationReport("x", 5, "fail", FailureWitness(3, "a", "c", "laurent"),
                                        0.25)

    assert len(set(enumerate_partitions(8))) == 22
    assert Partition((2, 1)) == Partition((2, 1)) != Partition((2,))

    table = build_stat_table("crank", 6)
    assert table == build_stat_table("crank", 6)
    assert table != build_stat_table("rank", 6)
    with pytest.raises(TypeError):
        hash(table)

    for record, name in ((witness, "power"), (report, "elapsed"),
                         (Partition((2, 1)), "parts"), (table, "rows")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            setattr(record, "extra", None)
