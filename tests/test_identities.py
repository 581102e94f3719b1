import functools

import pytest
from hypothesis import given, settings, strategies as st

from qdissect import identities, memo, partitions, series
from qdissect.identities import (
    FIFTH_ROOTS,
    FailureWitness,
    VerificationReport,
    crank_coefficients,
    verify_2_dissection,
    verify_3_dissection,
    verify_5_dissection,
    verify_component_4_vanishing,
    verify_congruence,
    verify_crank_columns,
    verify_crank_gf,
    verify_equidistribution,
    verify_rank_columns,
    verify_rank_gf,
)
from qdissect.identities import _rhs_coordinates
from qdissect.partitions import (Partition, build_stat_table, enumerate_partitions,
                                 partition_count)
from qdissect.ring import PHI5, PHI8, PHI9, LaurentPoly, Modulus, QuotientElem
from qdissect.series import TruncatedSeries, crank_coordinates, crank_gf, pochhammer_inf, theta


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


@pytest.mark.parametrize("verify", [verify_crank_gf, verify_rank_gf, verify_crank_columns,
                                    verify_rank_columns, verify_2_dissection,
                                    verify_3_dissection, verify_5_dissection]
                         + [functools.partial(verify_5_dissection, root_power=r)
                            for r in (2, 3, 4)])
def test_perturbation_leaves_cached_table_intact(verify):
    # the verifiers share one cached table per statistic and held coordinates
    # per dissection, for every root; a perturbed run must not write its
    # corruption into either, and component-4-vanishing reads the same
    # right-hand side
    for power in (0, 4, 30):
        assert verify(30, perturb_power=power).failure_witness.power == power
        assert verify(30).passed
        assert verify_component_4_vanishing(30).passed


PHI5_RING = "quotient(a^4 + a^3 + a^2 + a + 1)"


@pytest.mark.parametrize("verify,order,kwargs,witness", [
    (verify_crank_gf, 20, {"perturb_power": 7},
     (7, "a^7 + a^5 + a^4 + a^3 + a^2 + 2a + 2 + 2a^-1 + a^-2 + a^-3 + a^-4 + a^-5 + a^-7",
      "a^7 + a^5 + a^4 + a^3 + a^2 + 2a + 1 + 2a^-1 + a^-2 + a^-3 + a^-4 + a^-5 + a^-7",
      "laurent")),
    (verify_rank_gf, 20, {"perturb_power": 7},
     (7, "a^6 + a^4 + a^3 + 2a^2 + a + 4 + a^-1 + 2a^-2 + a^-3 + a^-4 + a^-6",
      "a^6 + a^4 + a^3 + 2a^2 + a + 3 + a^-1 + 2a^-2 + a^-3 + a^-4 + a^-6", "laurent")),
    (verify_crank_columns, 20, {"perturb_power": 7},
     (7, "a^7 + a^5 + a^4 + a^3 + a^2 + 2a + 2 + 2a^-1 + a^-2 + a^-3 + a^-4 + a^-5 + a^-7",
      "a^7 + a^5 + a^4 + a^3 + a^2 + 2a + 1 + 2a^-1 + a^-2 + a^-3 + a^-4 + a^-5 + a^-7",
      "laurent")),
    (verify_rank_columns, 20, {"perturb_power": 7},
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
], ids=["crank-gf", "rank-gf", "crank-columns", "rank-columns", "dissection-2",
        "dissection-3", "dissection-5-root-1", "dissection-5-root-2", "dissection-5-root-3",
        "dissection-5-root-4"])
def test_failure_witnesses_are_frozen(verify, order, kwargs, witness):
    # the table verifiers perturb the table (expected), the dissections their
    # right-hand side (actual); every rendered value is pinned
    w = verify(order, **kwargs).failure_witness
    assert (w.power, w.expected, w.actual, w.ring) == witness


def test_verify_congruence():
    assert verify_congruence(5, 8).passed
    assert verify_congruence(7, 6).passed
    assert verify_congruence(11, 4).passed
    with pytest.raises(ValueError, match="unsupported congruence modulus 13"):
        verify_congruence(13, 8)


def test_verify_equidistribution():
    assert verify_equidistribution("crank", 5, 2).passed
    assert verify_equidistribution("crank", 7, 1).passed
    assert verify_equidistribution("crank", 11, 1).passed
    assert verify_equidistribution("rank", 5, 2).passed
    assert verify_equidistribution("rank", 7, 1).passed


def test_equidistribution_usage_errors():
    # fails mathematically, refused
    with pytest.raises(ValueError, match="the rank is not available mod 11"):
        verify_equidistribution("rank", 11, 1)
    with pytest.raises(ValueError, match="the crank is not available mod 13"):
        verify_equidistribution("crank", 13, 1)
    with pytest.raises(ValueError, match="unknown statistic 'median'"):
        verify_equidistribution("median", 5, 1)


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
    # the theta quotients are built once for all four roots and for
    # component-4-vanishing
    calls = []
    original = TruncatedSeries.inverse

    def counted(self):
        calls.append(self.order)
        return original(self)

    monkeypatch.setattr(TruncatedSeries, "inverse", counted)
    for root in FIFTH_ROOTS:
        assert verify_5_dissection(20, root_power=root).passed
    assert verify_component_4_vanishing(20).passed
    assert len(calls) == 2

    # a smaller order is a slice of what is held: no theta series is built
    def refuse(*args, **kwargs):
        raise AssertionError("right-hand side rebuilt")

    monkeypatch.setattr(identities, "theta", refuse)
    for root in FIFTH_ROOTS:
        assert verify_5_dissection(10, root_power=root).passed
    assert verify_component_4_vanishing(15).passed
    assert len(calls) == 2


# oracle: the right-hand sides built with every factor, product and inverse
# in the quotient ring itself; the integer theta series are lifted into it
def lifted_theta(modulus, r, s, order):
    return theta(r, s, order).map_coefficients(modulus.from_int)


def quotient_rhs_2(order):
    inv = pochhammer_inf(PHI8.from_int(-1), 4, 4, order).inverse()
    even = lifted_theta(PHI8, 6, 10, order) * inv
    odd = lifted_theta(PHI8, 2, 14, order) * inv
    weight = PHI8.project(LaurentPoly({1: 1, 0: -1, -1: 1}))
    return even + odd.map_coefficients(lambda c: c * weight).shift(1)


def quotient_rhs_3(order):
    t_a = lifted_theta(PHI9, 6, 21, order)
    t_b = lifted_theta(PHI9, 12, 15, order)
    t_c = lifted_theta(PHI9, 3, 24, order)
    inv = pochhammer_inf(PHI9.one(), 27, 27, order).inverse()
    w1 = PHI9.project(LaurentPoly({1: 1, 0: -1, -1: 1}))
    w2 = PHI9.project(LaurentPoly({2: 1, -2: 1}))
    return (t_a * t_b
            + (t_c * t_b).map_coefficients(lambda c: c * w1).shift(1)
            + (t_c * t_a).map_coefficients(lambda c: c * w2).shift(2)) * inv


def quotient_rhs_5(order, r):
    t1 = lifted_theta(PHI5, 10, 15, order)
    t2 = lifted_theta(PHI5, 5, 20, order)
    t5sq = lifted_theta(PHI5, 25, 50, order) * lifted_theta(PHI5, 25, 50, order)
    w1 = PHI5.project(LaurentPoly({2 * r: 1, 0: 2, -2 * r: 1}))
    w2 = PHI5.project(LaurentPoly({2 * r: 1, -2 * r: 1}))
    w3 = PHI5.project(LaurentPoly({r: 1, -r: 1}))
    return (t1 * t5sq * (t2 * t2).inverse()
            + (t5sq * t2.inverse()).map_coefficients(lambda c: c * -w1).shift(1)
            + (t5sq * t1.inverse()).map_coefficients(lambda c: c * w2).shift(2)
            + (t2 * t5sq * (t1 * t1).inverse()).map_coefficients(lambda c: c * -w3).shift(3))


def columns(series):
    """The integer coordinate columns of a quotient-ring series."""
    return tuple(zip(*(c.residue for c in series.coefficients)))


def mapped_columns(cols, modulus, root):
    """Columns over Z[a]/(modulus) with a -> a^root applied to every coefficient."""
    return tuple(zip(*(modulus.project(QuotientElem(v, modulus).as_laurent()
                                       .substitute_power(root)).residue
                       for v in zip(*cols))))


def test_integer_route_rhs_equals_quotient_ring_construction():
    assert _rhs_coordinates("dissection-2", 20) == columns(quotient_rhs_2(20))
    assert _rhs_coordinates("dissection-3", 21) == columns(quotient_rhs_3(21))
    # the other fifth roots are the automorphisms a -> a^r of the root-1 sum
    at_root_1 = _rhs_coordinates("dissection-5", 20)
    for r in FIFTH_ROOTS:
        assert mapped_columns(at_root_1, PHI5, r) == columns(quotient_rhs_5(20, r))


# oracle: the left-hand side mapped coefficient by coefficient, and the
# first mismatch and perturbation over quotient-ring series
def mapped_crank(order, modulus, root):
    return crank_gf(order).map_coefficients(
        lambda c: modulus.project(c.substitute_power(root)))


def oracle_perturbed(series, power):
    if power is None:
        return series
    coeffs = list(series.coefficients)
    coeffs[power] = coeffs[power] + 1
    return TruncatedSeries(coeffs)


def oracle_first_mismatch(expected, actual):
    for n in range(min(expected.order, actual.order) + 1):
        e, a = expected.coefficients[n], actual.coefficients[n]
        if e != a:
            return FailureWitness(n, str(e), str(a), f"quotient({e.modulus})")
    return None


ORACLE_ORDER = 60
DISSECTIONS = {2: (verify_2_dissection, PHI8, lambda n, r: quotient_rhs_2(n)),
               3: (verify_3_dissection, PHI9, lambda n, r: quotient_rhs_3(n)),
               5: (verify_5_dissection, PHI5, quotient_rhs_5)}


@functools.lru_cache(maxsize=None)
def oracle_sides(m, root):
    _, modulus, rhs = DISSECTIONS[m]
    return mapped_crank(ORACLE_ORDER, modulus, root), rhs(ORACLE_ORDER, root)


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_dissection_reports_equal_the_quotient_ring_oracle(data):
    m = data.draw(st.sampled_from(sorted(DISSECTIONS)), label="m")
    order = m * data.draw(st.integers(1, ORACLE_ORDER // m), label="order / m")
    root = data.draw(st.sampled_from(FIFTH_ROOTS), label="root") if m == 5 else 1
    power = data.draw(st.none() | st.integers(0, order), label="perturb_power")
    lhs, rhs = oracle_sides(m, root)
    expected = oracle_first_mismatch(lhs.truncate(order),
                                     oracle_perturbed(rhs.truncate(order), power))
    verify = DISSECTIONS[m][0]
    kwargs = {"root_power": root} if m == 5 else {}
    report = verify(order, perturb_power=power, **kwargs)
    assert (report.identity, report.order) == (f"dissection-{m}", order)
    assert report.status == ("pass" if expected is None else "fail")
    assert report.failure_witness == expected


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


@pytest.mark.parametrize("value", [True, False, 2.0, 2.5, "2", None])
def test_perturb_and_root_powers_must_be_ints(monkeypatch, value):
    # refused before any work: nothing is built, and a bool is not read as 0 or 1
    def refuse(*args, **kwargs):
        raise AssertionError("work before the arguments were checked")

    refuse_all_work(monkeypatch)
    checks = [functools.partial(verify_5_dissection, 30, root_power=value)]
    if value is not None:
        checks += [functools.partial(verify, 30, perturb_power=value)
                   for verify in (verify_crank_gf, verify_rank_gf, verify_crank_columns,
                                  verify_rank_columns, verify_2_dissection,
                                  verify_3_dissection, verify_5_dissection)]
    for check in checks:
        with pytest.raises(ValueError):
            check()


def refuse_all_work(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("work before the arguments were checked")

    for name in ("stat_table", "crank_coordinates", "_rhs_coordinates", "product_rows",
                 "recurrence_rows", "partition_count", "partition_gf"):
        monkeypatch.setattr(identities, name, refuse)


@pytest.mark.parametrize("value", [True, False, 20.0, 2.5, "20", None])
@pytest.mark.parametrize("verify", [
    verify_crank_gf, verify_rank_gf, verify_crank_columns, verify_rank_columns,
    functools.partial(verify_congruence, 5),
    functools.partial(verify_equidistribution, "crank", 5),
    verify_2_dissection, verify_3_dissection, verify_5_dissection,
    verify_component_4_vanishing,
], ids=["crank-gf", "rank-gf", "crank-columns", "rank-columns", "congruence",
        "equidistribution", "dissection-2", "dissection-3", "dissection-5",
        "component-4-vanishing"])
def test_orders_must_be_ints(monkeypatch, verify, value):
    # refused before any work: a bool is not read as 0 or 1, and a float
    # does not fail deep inside
    refuse_all_work(monkeypatch)
    with pytest.raises(ValueError, match="must be an int"):
        verify(value)


def test_dissections_pass_at_every_intermediate_order():
    # truncation consistency: not just the headline orders; and each slice
    # of the held coordinates (immutable tuples) equals a build from an
    # empty memo
    for verify, identity, modulus, top, step in (
        (verify_2_dissection, "dissection-2", PHI8, 80, 2),
        (verify_3_dissection, "dissection-3", PHI9, 81, 3),
        (verify_5_dissection, "dissection-5", PHI5, 100, 5),
    ):
        assert verify(top).passed                 # warms the caches
        builds = {(identity,): lambda n: _rhs_coordinates(identity, n),
                  ("crank-coordinates", modulus): lambda n: crank_coordinates(n, modulus)}
        held = {key: memo._held[key] for key in builds}
        for held_order, coords in held.values():
            assert held_order == top
            assert type(coords) is tuple and all(type(c) is tuple for c in coords)
            assert len(coords) == modulus.degree
        for order in range(step, top + 1, step):
            assert verify(order).passed
            kept, memo._held = memo._held, {}
            try:
                direct = {key: build(order) for key, build in builds.items()}
            finally:
                memo._held = kept
            for key, (_, coords) in held.items():
                assert tuple(c[:order + 1] for c in coords) == direct[key]


@pytest.mark.parametrize("root", [2, 3, 4])
def test_root_mapped_crank_series_held(monkeypatch, root):
    assert verify_5_dissection(60, root).passed
    held_order, held = memo._held[("crank-coordinates", PHI5)]
    assert held_order == 60

    # a warm request slices what is held: no ring or series arithmetic
    def refuse(*args, **kwargs):
        raise AssertionError("ring or series work on a warm request")

    project, substitute_power = Modulus.project, LaurentPoly.substitute_power
    projected = []
    with monkeypatch.context() as patched:
        for cls, attr in ((LaurentPoly, "substitute_power"), (Modulus, "project"),
                          (QuotientElem, "__mul__"), (TruncatedSeries, "__mul__"),
                          (TruncatedSeries, "inverse")):
            patched.setattr(cls, attr, refuse)
        for order in (60, 30, 5):
            assert verify_5_dissection(order, root).passed
        # a failing one maps its two witness coefficients to the root and
        # projects them back, and does no other ring or series work
        patched.setattr(LaurentPoly, "substitute_power", substitute_power)
        patched.setattr(Modulus, "project",
                        lambda self, p: projected.append(p) or project(self, p))
        w = verify_5_dissection(30, root, perturb_power=11).failure_witness
    assert len(projected) == 2
    expected = mapped_crank(30, PHI5, root).coefficients[11]
    assert (w.power, w.expected, w.actual) == (11, str(expected), str(expected + 1))

    for order in range(5, 61, 5):
        assert tuple(c[:order + 1] for c in held) == columns(mapped_crank(order, PHI5, 1))


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
    f1 = verify_congruence(5, 6)
    f2 = verify_congruence(5, 6)
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


# --- every route can fail on its own ------------------------------------------------

def _corrupt_columns(monkeypatch):
    """One wrong entry in the column kernel: class 0 at q^7 (every table, crank_gf,
    rank_gf and crank_coordinates read it)."""
    columns = partitions._columns

    def corrupted(kind, order, size):
        out = [list(c) for c in columns(kind, order, size)]
        if order >= 7:
            out[0][7] += 1
        return out

    monkeypatch.setattr(partitions, "_columns", corrupted)
    monkeypatch.setattr(series, "_columns", corrupted)


def _corrupt_product(monkeypatch, name):
    """One wrong entry in a packed product build: class 0 at q^7."""
    packed = getattr(series, name)

    def corrupted(order, size, bits):
        classes = packed(order, size, bits)
        return [classes[0] + (1 << bits * 7)] + classes[1:]

    monkeypatch.setattr(series, name, corrupted)


def _corrupt_recurrence(monkeypatch, name):
    rows = getattr(partitions, name)

    def corrupted(n_max):
        out = rows(n_max)
        out[7][0] = out[7].get(0, 0) + 1
        return out

    monkeypatch.setattr(partitions, name, corrupted)


@pytest.mark.parametrize("verify,corrupt", [
    (verify_crank_gf, _corrupt_columns),
    (verify_crank_gf, lambda mp: _corrupt_product(mp, "_packed_crank")),
    (verify_rank_gf, _corrupt_columns),
    (verify_rank_gf, lambda mp: _corrupt_product(mp, "_packed_rank")),
    (verify_crank_columns, _corrupt_columns),
    (verify_crank_columns, lambda mp: _corrupt_recurrence(mp, "_crank_rows")),
    (verify_rank_columns, _corrupt_columns),
    (verify_rank_columns, lambda mp: _corrupt_recurrence(mp, "_rank_rows")),
    (verify_component_4_vanishing, lambda mp: _corrupt_product(mp, "_packed_crank")),
], ids=["crank-gf-table", "crank-gf-product", "rank-gf-table", "rank-gf-product",
        "crank-columns-table", "crank-columns-recurrence", "rank-columns-table",
        "rank-columns-recurrence", "component-4-product"])
def test_each_side_of_a_table_check_can_fail(monkeypatch, verify, corrupt):
    corrupt(monkeypatch)
    report = verify(30)
    assert report.status == "fail"
    assert report.failure_witness.power == 7


@pytest.mark.parametrize("verify,order,identity", [
    (verify_2_dissection, 20, "dissection-2"),
    (verify_3_dissection, 21, "dissection-3"),
    (verify_5_dissection, 20, "dissection-5"),
])
def test_each_side_of_a_dissection_can_fail(monkeypatch, verify, order, identity):
    # the crank side through the column kernel, the right-hand side through
    # its first integer series S_0
    with monkeypatch.context() as mp:
        _corrupt_columns(mp)
        assert verify(order).failure_witness.power == 7
    memo._held.clear()
    m, modulus, weights, parts = identities._DISSECTIONS[identity]

    def corrupted(n):
        first, *rest = parts(n)
        return (first + TruncatedSeries((0,) * 7 + (1,) + (0,) * (n - 7)), *rest)

    monkeypatch.setitem(identities._DISSECTIONS, identity, (m, modulus, weights, corrupted))
    assert verify(order).failure_witness.power == 7


def test_component_4_vanishing_fails_on_its_right_hand_side(monkeypatch):
    m, modulus, weights, parts = identities._DISSECTIONS["dissection-5"]

    def corrupted(n):
        first, *rest = parts(n)
        return (first + TruncatedSeries((0,) * 9 + (1,) + (0,) * (n - 9)), *rest)

    monkeypatch.setitem(identities._DISSECTIONS, "dissection-5",
                        (m, modulus, weights, corrupted))
    assert verify_component_4_vanishing(30).failure_witness.power == 9


def test_a_wrong_partition_number_fails_both_a_one_checks(monkeypatch):
    # p(24) one too large: the column form multiplies by the wrong p(n), and
    # the a = 1 side of component-4-vanishing is compared with it, while the
    # product formula never reads p(n)
    wrong = [partition_count(n) for n in range(61)]
    wrong[24] += 1
    monkeypatch.setattr(partitions, "_pcounts", wrong)
    for verify in (verify_component_4_vanishing, verify_crank_gf):
        report = verify(60)
        assert report.status == "fail"
        assert report.failure_witness.power == 24
