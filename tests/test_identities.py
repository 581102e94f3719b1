import functools
import hashlib

import pytest
from hypothesis import example, given, settings, strategies as st

from qdissect import cli, dissections, identities, memo, partitions, products, recurrences, series
from qdissect.identities import (
    EQUIDISTRIBUTION_MODULI,
    FIFTH_ROOTS,
    RESIDUE_FOR_MODULUS,
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
from qdissect.dissections import _rhs_coordinates
from qdissect.partitions import (ORDER_CAP, TABLE_CAP, Partition, build_stat_table,
                                 enumerate_partitions, partition_count)
from qdissect.ring import PHI5, PHI8, PHI9, LaurentPoly, Modulus, QuotientElem
from qdissect.series import TruncatedSeries, crank_coordinates, crank_gf, theta
from series_oracle import add, inverse, lift, mul, product, shift


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
    # refused before the membership test: 5.0 == 5, and a list is unhashable
    for modulus, text in ((5.0, "5.0"), ([5], r"\[5\]"), (True, "True")):
        with pytest.raises(ValueError, match=f"^unsupported congruence modulus {text}$"):
            verify_congruence(modulus, 3)


def test_verify_equidistribution():
    assert verify_equidistribution("crank", 5, 2).passed
    assert verify_equidistribution("crank", 7, 1).passed
    assert verify_equidistribution("crank", 11, 1).passed
    assert verify_equidistribution("rank", 5, 2).passed
    assert verify_equidistribution("rank", 7, 1).passed


@pytest.mark.parametrize("statistic,modulus", [
    (statistic, m) for statistic, moduli in EQUIDISTRIBUTION_MODULI.items() for m in moduli])
def test_equidistribution_classes_equal_the_product_route(statistic, modulus):
    # the classes the check holds against the product formula at size m,
    # which shares no code with the column form below partition_count (its
    # exponents lie in -m/2..m/2, so they are read mod m), and up to the
    # table cap against the table's fold as well
    assert verify_equidistribution(statistic, modulus, 400 // modulus).passed
    held, classes = memo._held[("classes", statistic, modulus)]
    assert held >= 400
    table = partitions.stat_table(statistic, TABLE_CAP)
    for n, row in enumerate(products.product_rows(statistic, 400, modulus)[2:], 2):
        counts = [0] * modulus
        for e, c in row.items():
            counts[e % modulus] += c
        assert [column[n] for column in classes] == counts, n
        if n <= TABLE_CAP:
            assert table.count_mod(modulus, n) == tuple(counts), n


def test_equidistribution_usage_errors():
    # fails mathematically, refused
    with pytest.raises(ValueError, match="the rank is not available mod 11"):
        verify_equidistribution("rank", 11, 1)
    with pytest.raises(ValueError, match="the crank is not available mod 13"):
        verify_equidistribution("crank", 13, 1)
    with pytest.raises(ValueError, match="unknown statistic 'median'"):
        verify_equidistribution("median", 5, 1)
    # refused before the membership tests, on a cold memo and once the
    # classes are held: 5.0 == 5, and a list is unhashable
    for warm in (False, True):
        if warm:
            assert verify_equidistribution("crank", 5, 3).passed
        with pytest.raises(ValueError, match="^unknown statistic \\['crank'\\]$"):
            verify_equidistribution(["crank"], 5, 3)
        for modulus, text in ((5.0, "5.0"), ([5], r"\[5\]")):
            with pytest.raises(ValueError, match=f"^equidistribution of the crank is not "
                                                 f"available mod {text}$"):
                verify_equidistribution("crank", modulus, 3)


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


# identity -> (the checks that read its right-hand side, theta sums it inverts)
RHS_READERS = {
    "dissection-2": ((verify_2_dissection,), 1),
    "dissection-3": ((verify_3_dissection,), 1),
    "dissection-5": ((*[functools.partial(verify_5_dissection, root_power=root)
                        for root in FIFTH_ROOTS], verify_component_4_vanishing), 2),
}


@pytest.mark.parametrize("identity", sorted(RHS_READERS))
def test_each_dissection_inverts_each_theta_once(monkeypatch, identity):
    # the theta quotients are built once for every check that reads them:
    # the four roots and component-4-vanishing share the 5-dissection's
    checks, inverses = RHS_READERS[identity]
    calls = []
    original = TruncatedSeries.inverse

    def counted(self):
        calls.append(self.order)
        return original(self)

    monkeypatch.setattr(TruncatedSeries, "inverse", counted)
    for check in checks:
        assert check(60).passed
    assert calls == [60] * inverses

    # a smaller order is a slice of what is held: no theta series is built
    def refuse(*args, **kwargs):
        raise AssertionError("right-hand side rebuilt")

    monkeypatch.setattr(series, "theta", refuse)
    for check in checks:
        assert check(30).passed
    assert len(calls) == inverses


# the right-hand sides' coordinates as first built from hand-written
# products of theta sums and q-Pochhammer products
RHS_DIGESTS = {
    ("dissection-2", 400): "fea2e1d120a7be0bd18814c1f25d77d51d7f1bbe7d7b4f46c1d64331bb2a323a",
    ("dissection-3", 399): "67d8e0279d46e71c305ff94f76b4d93989c399a261f44a0bf0613a12ba96c9a9",
    ("dissection-5", 400): "934e401023a3f6c8d0d0e54dc65992057fb9721f74b33d859414691f98b44776",
}


@pytest.mark.parametrize("identity,order", sorted(RHS_DIGESTS))
def test_right_hand_side_coordinates_are_pinned(identity, order):
    digest = hashlib.sha256(repr(_rhs_coordinates(identity, order)).encode()).hexdigest()
    assert digest == RHS_DIGESTS[identity, order]


def refuse_names(monkeypatch, names):
    def refuse(*args, **kwargs):
        raise AssertionError("one side of the dissection shares code with the other")

    for home, attr in names:
        monkeypatch.setattr(home, attr, refuse)


# what the crank side folds by and reads, in its home and where series reads it
CRANK_SIDE = ((series, "_powers_of_a"), (series, "_divstep"), (series, "_crank_coordinates"),
              (series, "_columns"), (series, "partition_count"), (partitions, "_columns"),
              (partitions, "partition_count"))
RHS_SIDE = ((series, "theta"), (TruncatedSeries, "__mul__"), (TruncatedSeries, "inverse"))


@pytest.mark.parametrize("identity,order", sorted(RHS_DIGESTS))
def test_each_side_of_a_dissection_stands_alone(monkeypatch, identity, order):
    # north star 3: the right-hand side reads theta and the series
    # arithmetic, the crank side the column kernel and the powers of a, and
    # neither reads the other's, so one bug cannot corrupt both.  The two
    # sides are equal, so one digest pins both
    modulus = dissections._DISSECTIONS[identity][1]
    with monkeypatch.context() as patched:
        refuse_names(patched, CRANK_SIDE)
        rhs = _rhs_coordinates(identity, order)
    with monkeypatch.context() as patched:
        refuse_names(patched, RHS_SIDE)
        lhs = series._crank_coordinates(order, modulus)
    for side in (rhs, lhs):
        assert hashlib.sha256(repr(side).encode()).hexdigest() == RHS_DIGESTS[identity, order]


# the witness of each dissection at its default order when the powers of a
# fold every class to zero: the crank side is 0, the right-hand side's q^0
# coefficient is the weight 1 of component 0
ZERO_FOLD_WITNESSES = {
    "dissection-2": (verify_2_dissection, FailureWitness(0, "0", "1", "quotient(a^4 + 1)")),
    "dissection-3": (verify_3_dissection,
                     FailureWitness(0, "0", "1", "quotient(a^6 + a^3 + 1)")),
    "dissection-5": (verify_5_dissection,
                     FailureWitness(0, "0", "1", "quotient(a^4 + a^3 + a^2 + a + 1)")),
}


@pytest.mark.parametrize("identity", sorted(ZERO_FOLD_WITNESSES))
def test_a_zero_fold_of_the_crank_side_fails_every_dissection(monkeypatch, identity):
    # a mutation of the crank side's kernel alone: were the weights folded
    # by the same table, both sides would read zero and the check would pass
    real = series._powers_of_a
    monkeypatch.setattr(series, "_powers_of_a",
                        lambda coefficients: [(0,) * len(p) for p in real(coefficients)])
    verify, witness = ZERO_FOLD_WITNESSES[identity]
    report = verify(cli.IDENTITIES[identity][0])
    assert report.status == "fail"
    assert report.failure_witness == witness


@pytest.mark.parametrize("identity,ring_modulus", [
    ("dissection-2", PHI8), ("dissection-3", PHI9), ("dissection-5", PHI5)],
    ids=["dissection-2", "dissection-3", "dissection-5"])
def test_each_table_modulus_is_its_cyclotomic_ring(identity, ring_modulus):
    # the table holds plain coefficients, named as the quotient ring prints them
    assert dissections._DISSECTIONS[identity][1] == ring_modulus.coeffs
    assert dissections._RING_NAMES[identity] == f"quotient({ring_modulus})"


# each row's weights as sums of 2cos(2*pi*j/M) = a^j + a^-j, written as
# Laurent polynomials {exponent of a: coefficient}
ONE, TWO_COS_MINUS_ONE = {0: 1}, {1: 1, 0: -1, -1: 1}
TWO_COS_TWICE = {2: 1, -2: 1}
WEIGHTS_IN_A = {
    "dissection-2": (ONE, TWO_COS_MINUS_ONE),
    "dissection-3": (ONE, TWO_COS_MINUS_ONE, TWO_COS_TWICE),
    "dissection-5": (ONE, {2: -1, 0: -2, -2: -1}, TWO_COS_TWICE, {1: -1, -1: -1}),
}


@pytest.mark.parametrize("identity", sorted(dissections._DISSECTIONS))
def test_each_weight_is_the_projection_of_its_laurent_form(identity):
    # provenance: a row's coordinates {i: v_i} are the quotient ring's
    # projection of the weight's Laurent form, each i a coordinate
    # 0..degree-1 and no v_i zero
    _, modulus, components = dissections._DISSECTIONS[identity]
    assert len(components) == len(WEIGHTS_IN_A[identity])
    for (weight, _), laurent in zip(components, WEIGHTS_IN_A[identity]):
        assert set(weight) <= set(range(len(modulus) - 1)) and all(weight.values())
        projected = Modulus(modulus).project(LaurentPoly(laurent)).residue
        assert weight == {i: v for i, v in enumerate(projected) if v}


# residues with zeros, small, big and negative coordinates
RESIDUE_COORDINATES = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-2**80, 2**80))


@pytest.mark.parametrize("modulus,roots", [
    (PHI5, st.sampled_from(FIFTH_ROOTS)), (PHI8, st.integers(1, 17)), (PHI9, st.integers(1, 19))],
    ids=["phi5", "phi8", "phi9"])
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_witness_at_a_root_is_the_ring_projection(modulus, roots, data):
    # the integer witness map against the ring's: substitute a -> a^root in
    # the residue's Laurent polynomial and project it back
    values = tuple(data.draw(st.lists(RESIDUE_COORDINATES, min_size=modulus.degree,
                                      max_size=modulus.degree), label="values"))
    root = data.draw(roots, label="root")
    expected = modulus.project(QuotientElem(values, modulus).as_laurent().substitute_power(root))
    assert dissections._at_root(values, modulus.coeffs, root) == str(expected)


@pytest.mark.parametrize("identity", sorted(dissections._DISSECTIONS))
def test_each_right_hand_side_series_is_a_series_in_q_to_the_m(identity):
    # every theta sum f(-q^r, -q^s) of a row is a series in q^m, so every S_k is one
    m, _, components = dissections._DISSECTIONS[identity]
    assert all(r % m == 0 and s % m == 0 for _, factors in components for r, s in factors)
# oracle: the right-hand sides built with every factor, product and inverse
# in the quotient ring itself, by the tests' own series arithmetic; the
# integer theta series are lifted into it
def lifted_theta(modulus, r, s, order):
    return lift(theta(r, s, order).coefficients, modulus.from_int)


def weighted(series, weight, k, modulus):
    """The quotient-ring series times weight * q^k."""
    return shift(lift(series, lambda c: c * weight), k, modulus.zero())


def quotient_rhs_2(order):
    zero, one = PHI8.zero(), PHI8.one()
    inv = inverse(product(PHI8.from_int(-1), range(4, order + 1, 4), order + 1, zero, one),
                  zero, one)
    even = mul(lifted_theta(PHI8, 6, 10, order), inv, zero)
    odd = mul(lifted_theta(PHI8, 2, 14, order), inv, zero)
    return add(even, weighted(odd, PHI8.project(LaurentPoly({1: 1, 0: -1, -1: 1})), 1, PHI8))


def quotient_rhs_3(order):
    zero, one = PHI9.zero(), PHI9.one()
    t_a = lifted_theta(PHI9, 6, 21, order)
    t_b = lifted_theta(PHI9, 12, 15, order)
    t_c = lifted_theta(PHI9, 3, 24, order)
    inv = inverse(product(one, range(27, order + 1, 27), order + 1, zero, one), zero, one)
    w1 = PHI9.project(LaurentPoly({1: 1, 0: -1, -1: 1}))
    w2 = PHI9.project(LaurentPoly({2: 1, -2: 1}))
    total = add(add(mul(t_a, t_b, zero), weighted(mul(t_c, t_b, zero), w1, 1, PHI9)),
                weighted(mul(t_c, t_a, zero), w2, 2, PHI9))
    return mul(total, inv, zero)


def quotient_rhs_5(order, r):
    zero, one = PHI5.zero(), PHI5.one()
    t1 = lifted_theta(PHI5, 10, 15, order)
    t2 = lifted_theta(PHI5, 5, 20, order)
    t5sq = mul(lifted_theta(PHI5, 25, 50, order), lifted_theta(PHI5, 25, 50, order), zero)
    inv1, inv2 = inverse(t1, zero, one), inverse(t2, zero, one)
    w1 = PHI5.project(LaurentPoly({2 * r: 1, 0: 2, -2 * r: 1}))
    w2 = PHI5.project(LaurentPoly({2 * r: 1, -2 * r: 1}))
    w3 = PHI5.project(LaurentPoly({r: 1, -r: 1}))
    return functools.reduce(add, (
        mul(mul(t1, t5sq, zero), mul(inv2, inv2, zero), zero),
        weighted(mul(t5sq, inv2, zero), -w1, 1, PHI5),
        weighted(mul(t5sq, inv1, zero), w2, 2, PHI5),
        weighted(mul(mul(t2, t5sq, zero), mul(inv1, inv1, zero), zero), -w3, 3, PHI5)))


def columns(series):
    """The integer coordinate columns of quotient-ring coefficients."""
    return tuple(zip(*(c.residue for c in series)))


def mapped_columns(cols, modulus, root):
    """Columns over Z[a]/(modulus) with a -> a^root applied to every coefficient."""
    return tuple(zip(*(modulus.project(QuotientElem(v, modulus).as_laurent()
                                       .substitute_power(root)).residue
                       for v in zip(*cols))))


@pytest.mark.parametrize("order", [20, 150])
def test_integer_route_rhs_equals_quotient_ring_construction(order):
    assert _rhs_coordinates("dissection-2", order) == columns(quotient_rhs_2(order))
    assert _rhs_coordinates("dissection-3", order + 1) == columns(quotient_rhs_3(order + 1))
    # the other fifth roots are the automorphisms a -> a^r of the root-1 sum
    at_root_1 = _rhs_coordinates("dissection-5", order)
    for r in FIFTH_ROOTS:
        assert mapped_columns(at_root_1, PHI5, r) == columns(quotient_rhs_5(order, r))


# oracle: the left-hand side mapped coefficient by coefficient, and the
# first mismatch and perturbation over quotient-ring series
def mapped_crank(order, modulus, root):
    return lift(crank_gf(order).coefficients,
                lambda c: modulus.project(c.substitute_power(root)))


def oracle_perturbed(series, power):
    if power is None:
        return series
    coeffs = list(series)
    coeffs[power] = coeffs[power] + 1
    return coeffs


def oracle_first_mismatch(expected, actual):
    for n in range(min(len(expected), len(actual))):
        e, a = expected[n], actual[n]
        if e != a:
            return FailureWitness(n, str(e), str(a), f"quotient({e.modulus})")
    return None


def tuple_first_mismatch(expected, actual, render, ring):
    # the reference: compare the tuple of column entries power by power
    for n in range(len(expected[0])):
        e, a = tuple(c[n] for c in expected), tuple(c[n] for c in actual)
        if e != a:
            return FailureWitness(n, render(e), render(a), ring)
    return None


@given(st.integers(1, 3).flatmap(lambda width: st.integers(1, 8).flatmap(
    lambda length: st.lists(st.tuples(*[st.integers(-2, 2)] * length),
                            min_size=2 * width, max_size=2 * width))))
@example([(1, 2, 3), (1, 2, 0), (4, 5, 6), (4, 0, 6)])
@example([(1, 2), (1, 2), (3, 4), (3, 4)])
def test_first_mismatch_equals_the_power_by_power_comparison(columns):
    # a mismatch may sit in any column, and a later column may differ first
    expected, actual = tuple(columns[::2]), tuple(columns[1::2])
    assert identities._first_mismatch(expected, actual, repr, "Z") == \
        tuple_first_mismatch(expected, actual, repr, "Z")


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
    expected = oracle_first_mismatch(lhs[:order + 1],
                                     oracle_perturbed(rhs[:order + 1], power))
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

    for module, names in ((identities, ("stat_table", "_columns", "partition_count", "largest")),
                          (series, ("crank_coordinates", "_crank_coordinates",
                                    "partition_gf")),
                          (dissections, ("_rhs_coordinates", "largest")),
                          (products, ("product_rows",)), (recurrences, ("recurrence_rows",))):
        for name in names:
            monkeypatch.setattr(module, name, refuse)


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


def refuse_kernels(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("work before the arguments were checked")

    for module, names in ((series, ("largest", "_columns", "partition_count", "stat_table")),
                          (products, ("largest", "_unpacked")),
                          (partitions, ("largest", "_columns", "_descending_parts")),
                          (recurrences, ("_crank_rows", "_rank_rows"))):
        for kernel in names:
            monkeypatch.setattr(module, kernel, refuse)


# every series and table entry point, each called with one order
ENTRY_POINTS = {
    "euler_product": lambda order: series.euler_product(order),
    "theta": lambda order: series.theta(1, 2, order),
    "pochhammer_inf": lambda order: series.pochhammer_inf(1, 1, 1000, order),
    "pochhammer_fin": lambda order: series.pochhammer_fin(1, 3, order),
    "partition_gf": lambda order: series.partition_gf(order),
    "crank_gf": lambda order: series.crank_gf(order),
    "rank_gf": lambda order: series.rank_gf(order),
    "crank_coordinates": lambda order: series.crank_coordinates(order, PHI8),
    "product_rows": lambda order: products.product_rows("crank", order),
    "build_stat_table": lambda order: partitions.build_stat_table("crank", order),
    "stat_table": lambda order: partitions.stat_table("crank", order),
    "recurrence_rows": lambda order: recurrences.recurrence_rows("crank", order),
    "partition_count": lambda n: partitions.partition_count(n),
    "enumerate_partitions": lambda n: list(partitions.enumerate_partitions(n)),
}
# the entry points whose Laurent-size work stops at the table cap
TABLE_CAPPED = {"crank_gf", "rank_gf", "product_rows", "build_stat_table", "stat_table",
                "recurrence_rows"}


@pytest.mark.parametrize("value,message", [
    (True, "must be an int"), (False, "must be an int"), (2.0, "must be an int"),
    (2.5, "must be an int"), ("2", "must be an int"), (None, "must be an int"),
    (-1, "must be >= 0"),
    (ORDER_CAP + 1,
     f" {ORDER_CAP + 1} exceeds the (order cap {ORDER_CAP}|table cap {TABLE_CAP})$")])
@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_series_and_table_orders_must_be_ints(monkeypatch, name, value, message):
    # one check for every entry point, before any kernel work and before the
    # memo, so that what is held (here the crank table, its product rows and
    # the crank coordinates mod Phi8) cannot answer first
    assert verify_2_dissection(20).passed and verify_crank_gf(20).passed
    refuse_kernels(monkeypatch)
    with pytest.raises(ValueError, match=message):
        ENTRY_POINTS[name](value)


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_series_and_table_orders_at_their_cap_pass_the_check(monkeypatch, name):
    # the cap is inclusive: the largest order gets past the check, to the
    # patched work or, for the sparse series and p(n), to the end
    cap, bound = (TABLE_CAP, "table") if name in TABLE_CAPPED else (ORDER_CAP, "order")
    refuse_kernels(monkeypatch)
    try:
        ENTRY_POINTS[name](cap)
    except AssertionError as exc:
        assert str(exc) == "work before the arguments were checked"
    with pytest.raises(ValueError, match=f" {cap + 1} exceeds the {bound} cap {cap}$"):
        ENTRY_POINTS[name](cap + 1)


# every other int argument: (entry point, argument name, least value, cap)
INT_ARGUMENTS = {
    "pochhammer_inf-start": (lambda v: series.pochhammer_inf(1, v, 1, 10), "start", 1, ORDER_CAP),
    "pochhammer_inf-step": (lambda v: series.pochhammer_inf(1, 1, v, 10), "step", 1, ORDER_CAP),
    "pochhammer_fin-count": (lambda v: series.pochhammer_fin(1, v, 10), "count", 0, ORDER_CAP),
    "pochhammer_fin-start": (lambda v: series.pochhammer_fin(1, 3, 10, start=v), "start", 0,
                             ORDER_CAP),
    "theta-r": (lambda v: series.theta(v, 2, 10), "r", 0, ORDER_CAP),
    "theta-s": (lambda v: series.theta(1, v, 10), "s", 0, ORDER_CAP),
    # bound now: refuse_all_work patches the name, which the verifiers call.
    # size * order is at most 4*ORDER_CAP
    "product_rows-size": (functools.partial(products.product_rows, "crank", 5), "size", 0,
                          4 * ORDER_CAP // 5),
    "row-n": (lambda v: TABLE.row(v), "n", 0, 6),
    "count_mod-t": (lambda v: TABLE.count_mod(v, 3), "t", 1, ORDER_CAP),
    "count_mod-n": (lambda v: TABLE.count_mod(5, v), "n", 0, 6),
    "verify_crank_gf-perturb_power": (lambda v: verify_crank_gf(10, perturb_power=v),
                                      "perturbation power", 0, 10),
    # an order equal to the table cap is not the table cap
    "verify_2_dissection-perturb_power": (lambda v: verify_2_dissection(300, perturb_power=v),
                                          "perturbation power", 0, 300),
    # nor is the table cap or the order cap itself, passed as an order
    "verify_crank_gf-perturb_power-at-the-table-cap": (
        lambda v: verify_crank_gf(TABLE_CAP, perturb_power=v), "perturbation power", 0,
        TABLE_CAP),
    "verify_2_dissection-perturb_power-at-the-order-cap": (
        lambda v: verify_2_dissection(ORDER_CAP, perturb_power=v), "perturbation power", 0,
        ORDER_CAP),
}
TABLE = partitions.StatTable("crank", tuple({0: 1} for _ in range(7)))


@pytest.mark.parametrize("name", sorted(INT_ARGUMENTS))
def test_every_int_argument_is_checked_before_any_work(monkeypatch, name):
    call, argument, least, cap = INT_ARGUMENTS[name]
    refuse_kernels(monkeypatch)
    refuse_all_work(monkeypatch)
    # a perturbation power of None is no perturbation
    for value in (True, False, 2.0, "2") + (() if argument == "perturbation power" else (None,)):
        with pytest.raises(ValueError, match=f"^{argument} must be an int, not {value!r}$"):
            call(value)
    with pytest.raises(ValueError, match=f"^{argument} must be >= {least}$"):
        call(least - 1)
    # a perturbation power's bound is the order, written as a number, as the
    # CLI writes it
    named = cap == ORDER_CAP and argument != "perturbation power"
    bound = f"the order cap {cap}" if named else cap
    with pytest.raises(ValueError, match=f"^{argument} {cap + 1} exceeds {bound}$"):
        call(cap + 1)
    assert memo._held == {}
    # the largest value gets past the check, to the patched work or the end
    try:
        call(cap)
    except AssertionError as exc:
        assert str(exc) == "work before the arguments were checked"


# verifier -> (the largest order whose check stays within ORDER_CAP, step)
CAPPED = {
    **{f"congruence-{m}": (functools.partial(verify_congruence, m),
                           (ORDER_CAP - r) // m, 1) for m, r in RESIDUE_FOR_MODULUS.items()},
    **{f"equidist-{statistic}-{m}": (functools.partial(verify_equidistribution, statistic, m),
                                     (ORDER_CAP - RESIDUE_FOR_MODULUS[m]) // m, 1)
       for statistic, moduli in EQUIDISTRIBUTION_MODULI.items() for m in moduli},
    "dissection-2": (verify_2_dissection, ORDER_CAP // 2 * 2, 2),
    "dissection-3": (verify_3_dissection, ORDER_CAP // 3 * 3, 3),
    "dissection-5": (verify_5_dissection, ORDER_CAP // 5 * 5, 5),
    "component-4-vanishing": (verify_component_4_vanishing, ORDER_CAP // 5 * 5, 5),
}


@pytest.mark.parametrize("name", sorted(CAPPED))
def test_orders_past_the_order_cap_are_refused_before_any_work(monkeypatch, name):
    # the largest order within the cap gets as far as the work, which is
    # patched to raise; the next one is refused before it, naming the order
    verify, last, step = CAPPED[name]
    refuse_all_work(monkeypatch)
    with pytest.raises(AssertionError, match="work before the arguments were checked"):
        verify(last)
    with pytest.raises(ValueError, match=f"^(order {last + step} exceeds the order cap "
                                         f"{ORDER_CAP}|n_max {last + step} exceeds {last})$"):
        verify(last + step)


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
                  ("crank-coordinates", modulus.coeffs): lambda n: crank_coordinates(n, modulus)}
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


def test_held_columns_answer_their_own_order_as_they_are(monkeypatch):
    # a request at the held order gets the held tuples themselves; a smaller
    # one gets new, shorter ones
    compared = []
    for module in (identities, dissections):
        monkeypatch.setattr(module, "_perturbed", lambda columns, power, plus_one=None:
                            compared.append(columns) or columns)
    assert verify_2_dissection(40).passed and verify_crank_gf(30).passed
    assert compared[1][0] is memo._held[("table", "crank")][1].rows
    for key, get in ((("dissection-2",), lambda n: _rhs_coordinates("dissection-2", n)),
                     (("crank-coordinates", PHI8.coeffs), lambda n: crank_coordinates(n, PHI8)),
                     (("product", "crank", 0), lambda n: products.product_rows("crank", n))):
        order, held = memo._held[key]
        assert get(order) is held
        assert get(order - 2) is not held


@pytest.mark.parametrize("root", [2, 3, 4])
def test_root_mapped_crank_series_held(monkeypatch, root):
    assert verify_5_dissection(60, root).passed
    held_order, held = memo._held[("crank-coordinates", PHI5.coeffs)]
    assert held_order == 60

    # a warm request slices what is held, and a failing one maps its witness
    # in integer coordinates: no ring object and no series arithmetic
    def refuse(*args, **kwargs):
        raise AssertionError("ring or series work on a warm request")

    with monkeypatch.context() as patched:
        for cls, attr in ((LaurentPoly, "substitute_power"), (Modulus, "__init__"),
                          (Modulus, "project"), (QuotientElem, "__init__"),
                          (QuotientElem, "as_laurent"), (QuotientElem, "__mul__"),
                          (TruncatedSeries, "__mul__"), (TruncatedSeries, "inverse")):
            patched.setattr(cls, attr, refuse)
        for order in (60, 30, 5):
            assert verify_5_dissection(order, root).passed
        w = verify_5_dissection(30, root, perturb_power=11).failure_witness
    expected = mapped_crank(30, PHI5, root)[11]
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
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is not None


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


def _corrupt_product(monkeypatch, name, power=7):
    """One wrong entry in a packed product build: class 0 at q^power."""
    packed = getattr(products, name)

    def corrupted(order, size, bits):
        classes = packed(order, size, bits)
        return [classes[0] + (1 << bits * power)] + classes[1:]

    monkeypatch.setattr(products, name, corrupted)


def _corrupt_recurrence(monkeypatch, name):
    rows = getattr(recurrences, name)

    def corrupted(n_max):
        out = rows(n_max)
        out[7][0] = out[7].get(0, 0) + 1
        return out

    monkeypatch.setattr(recurrences, name, corrupted)


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
    corrupt_s0(monkeypatch, identity, 7)
    assert verify(order).failure_witness.power == 7


def corrupt_s0(monkeypatch, identity, power):
    """S_0 of the identity's row times f(-q^power, -q^1000), which is
    1 - q^power below q^1000: S_0 first changes at q^power."""
    m, modulus, ((weight, factors), *rest) = dissections._DISSECTIONS[identity]
    monkeypatch.setitem(dissections._DISSECTIONS, identity, (
        m, modulus, ((weight, {**factors, (power, 1000): 1}), *rest)))


def test_component_4_vanishing_fails_on_its_right_hand_side(monkeypatch):
    corrupt_s0(monkeypatch, "dissection-5", 9)
    assert verify_component_4_vanishing(30).failure_witness.power == 9


def _wrong_partition_number(monkeypatch, n):
    """p(n) one too large in the pentagonal-recurrence cache."""
    wrong = [partition_count(k) for k in range(61)]
    wrong[n] += 1
    monkeypatch.setattr(partitions, "_pcounts", wrong)


def test_a_wrong_partition_number_fails_both_a_one_checks(monkeypatch):
    # p(24) one too large: the column form multiplies by the wrong p(n), and
    # the a = 1 side of component-4-vanishing is compared with it, while the
    # product formula never reads p(n)
    _wrong_partition_number(monkeypatch, 24)
    for verify in (verify_component_4_vanishing, verify_crank_gf):
        report = verify(60)
        assert report.status == "fail"
        assert report.failure_witness.power == 24


@pytest.mark.parametrize("modulus,witness", [
    (5, (24, "0", "1", "integers mod 5")),
    (7, (19, "0", "1", "integers mod 7")),
    (11, (17, "0", "1", "integers mod 11")),
], ids=["congruence-5-4", "congruence-7-5", "congruence-11-6"])
def test_each_congruence_can_fail(monkeypatch, modulus, witness):
    # p(n) one too large at one argument of the residue class
    _wrong_partition_number(monkeypatch, witness[0])
    w = verify_congruence(modulus, 4).failure_witness
    assert (w.power, w.expected, w.actual, w.ring) == witness


@pytest.mark.parametrize("statistic,modulus,k,witness", [
    ("crank", 5, 2, (9, "30", "35 (class 2)", "integer")),
    ("crank", 7, 3, (12, "77", "84 (class 3)", "integer")),
    ("crank", 11, 4, (17, "297", "308 (class 4)", "integer")),
    ("rank", 5, 0, (14, "135", "140 (class 0)", "integer")),
    ("rank", 7, 6, (19, "490", "497 (class 6)", "integer")),
], ids=["equidist-crank-5", "equidist-crank-7", "equidist-crank-11", "equidist-rank-5",
        "equidist-rank-7"])
def test_each_equidistribution_can_fail(monkeypatch, statistic, modulus, k, witness):
    # class k counted once too often at one argument: expected p(n), actual
    # m*N(k, m, n) of the wrong count.  _columns returns one list for the
    # classes k and m - k, so only a copy of class k is corrupted
    columns = partitions._columns

    def corrupted(kind, order, size):
        classes = list(columns(kind, order, size))
        classes[k] = list(classes[k])
        classes[k][witness[0]] += 1
        return classes

    monkeypatch.setattr(identities, "_columns", corrupted)
    w = verify_equidistribution(statistic, modulus, 3).failure_witness
    assert (w.power, w.expected, w.actual, w.ring) == witness


def test_component_4_vanishing_fails_on_its_divisibility(monkeypatch):
    # both a = 1 sides one too large at q^9, so they agree on 31, not 0 mod 5
    _wrong_partition_number(monkeypatch, 9)
    _corrupt_product(monkeypatch, "_packed_crank", power=9)
    w = verify_component_4_vanishing(30).failure_witness
    assert (w.power, w.expected, w.actual, w.ring) == (9, "0", "1", "integers mod 5")


@pytest.mark.parametrize("expected,actual,witness", [
    (((1, 2),), ((1,),), (1, "(2,)", "missing")),
    (((1,),), ((1, 2),), (1, "missing", "(2,)")),
    (((1, 2),), ((1, 2), (3, 4)), (0, "missing", "(1, 3)")),
    (((1, 2), (3, 4)), ((1, 2),), (0, "(1, 3)", "missing")),
    (((1, 2), (3, 4)), ((1, 2), (3,)), (1, "(2, 4)", "missing")),
    (((1, 2), (3, 4)), ((1, 5), (3,)), (1, "(2, 4)", "missing")),
], ids=["power-short", "power-long", "column-fewer", "column-more", "one-column-short",
        "short-and-different"])
def test_first_mismatch_fails_on_any_shape_difference(expected, actual, witness):
    # the witness sits at the first power one side lacks, shown "missing"
    w = identities._first_mismatch(expected, actual, repr, "Z")
    assert (w.power, w.expected, w.actual, w.ring) == (*witness, "Z")


def test_a_route_one_row_short_fails(monkeypatch):
    rows = products.product_rows
    monkeypatch.setattr(products, "product_rows", lambda kind, order: rows(kind, order)[:-1])
    w = verify_crank_gf(20).failure_witness
    assert (w.power, w.actual, w.ring) == (20, "missing", "laurent")
    assert w.expected == str(crank_gf(20).coefficients[20])
