from functools import cache

import pytest
from hypothesis import given, strategies as st

from qdissect import memo, partitions, series
from qdissect.identities import FIFTH_ROOTS, verify_5_dissection, verify_component_4_vanishing
from qdissect.ring import PHI5, PHI8, PHI9, LaurentPoly, Modulus, QuotientElem
from qdissect.partitions import TABLE_CAP
from qdissect.series import (
    TruncatedSeries,
    crank_coordinates,
    crank_gf,
    euler_product,
    partition_gf,
    pochhammer_fin,
    pochhammer_inf,
    product_rows,
    rank_gf,
    theta,
)

A = LaurentPoly.monomial(1, 1)
A_INV = LaurentPoly.monomial(1, -1)


def S(*coeffs):
    return TruncatedSeries(coeffs)


def laurent(series):
    """An integer series with its coefficients lifted to Laurent constants."""
    return series.map_coefficients(LaurentPoly.monomial)


def quotient_series(columns, modulus):
    """The series over Z[a]/(modulus) whose coordinates are the columns."""
    return TruncatedSeries(QuotientElem(v, modulus) for v in zip(*columns))


# independent oracle: the literal product (1-q)(1-q^2)...(1-q^N) on int lists
def naive_euler(order):
    out = [0] * (order + 1)
    out[0] = 1
    for k in range(1, order + 1):
        for n in range(order, k - 1, -1):
            out[n] -= out[n - k]
    return out


# independent oracle: count partitions of n with parts <= m by bare recursion
def count_partitions(n, m=None):
    if m is None:
        m = n
    if n == 0:
        return 1
    return sum(count_partitions(n - k, k) for k in range(1, min(n, m) + 1))


# independent oracle: the crank product by two dense series inverses and a
# multiply, over the Laurent polynomials
@cache
def crank_by_inverses(order):
    den1 = pochhammer_inf(A, 1, 1, order)
    den2 = pochhammer_inf(A_INV, 1, 1, order)
    return laurent(euler_product(order)) * den1.inverse() * den2.inverse()


def expected_crank(order, modulus):
    series = crank_by_inverses(40).truncate(order)
    if modulus is None:
        return series
    return series.map_coefficients(modulus.project)


def built_crank(order, modulus):
    """The Laurent crank series, or the one quotient-ring route for a modulus."""
    if modulus is None:
        return crank_gf(order)
    return quotient_series(crank_coordinates(order, modulus), modulus)


# independent oracle: the rank series term by term, each term by inverting
# the two finite products
def rank_by_inverses(order):
    total = laurent(TruncatedSeries.one(order))
    n = 1
    while n * n <= order:
        d1 = pochhammer_fin(A, n, order, start=1)
        d2 = pochhammer_fin(A_INV, n, order, start=1)
        total = total + (d1.inverse() * d2.inverse()).shift(n * n).truncate(order)
        n += 1
    return total


AT_ONE = Modulus((-1, 1))      # a - 1: the specialisation a = 1
FIBONACCI = Modulus((-1, -1, 1))   # a^2 - a - 1: a has infinite order
TARGETS = (None, PHI8, PHI9, PHI5)


@pytest.fixture
def fresh_crank_cache(monkeypatch):
    """A list recording the order of each crank build: the column kernel,
    which builds the crank table (crank_gf) and crank_coordinates."""
    builds = []
    columns = partitions._columns

    def recording(kind, order, size):
        if kind == "crank":
            builds.append(order)
        return columns(kind, order, size)

    monkeypatch.setattr(partitions, "_columns", recording)
    monkeypatch.setattr(series, "_columns", recording)
    return builds


int_series = st.lists(st.integers(-9, 9), min_size=1, max_size=24).map(TruncatedSeries)


# --- arithmetic ---------------------------------------------------------------

def test_mul_examples():
    assert S(1, 1, 0) * S(1, -1, 0) == S(1, 0, -1)
    x = S(3, 1, 4, 1, 5)
    assert x * TruncatedSeries.one(4) == x
    assert S(1, -1, 0, 0) * S(1, 1, 1, 1) == S(1, 0, 0, 0)


def test_add_and_truncation_to_smaller_order():
    assert S(1, 2) + S(3, 4, 5) == S(4, 6)
    assert (S(1, 2) * S(0, 1, 7)).order == 1


def test_ring_mismatch_rejected():
    # residues of different moduli never mix, so neither do their series
    x = S(1, 1).map_coefficients(PHI5.from_int)
    y = S(1, 1).map_coefficients(PHI8.from_int)
    with pytest.raises(ValueError):
        x + y
    with pytest.raises(ValueError):
        x * y


def test_equality_needs_same_order():
    assert S(1, 2) != S(1, 2, 0)
    assert S(1, 2) == S(1, 2)


def test_hash_agrees_with_equality():
    # equal coefficients compare and hash equal whatever ring carries them
    lifted = laurent(S(1, 2, 0))
    assert lifted == S(1, 2, 0) and hash(lifted) == hash(S(1, 2, 0))
    assert len({S(1, 2, 0), lifted, S(1, 2, 0).map_coefficients(PHI5.from_int)}) == 1
    assert len({S(1, 2), S(1, 2, 0)}) == 2


def test_shift_truncate_scale():
    x = S(1, 2, 3)
    assert x.shift(2) == S(0, 0, 1, 2, 3)
    assert x.truncate(1) == S(1, 2)
    with pytest.raises(ValueError):
        x.truncate(5)
    assert x.map_coefficients(lambda c: c * -2) == S(-2, -4, -6)
    with pytest.raises(ValueError):
        x.shift(-1)


def test_empty_series_and_negative_orders_refused():
    with pytest.raises(ValueError):
        TruncatedSeries(())
    for constructor in (TruncatedSeries.one, TruncatedSeries.zero):
        with pytest.raises(ValueError, match="order must be >= 0"):
            constructor(-1)
    assert TruncatedSeries.one(0) == S(1)
    assert TruncatedSeries.zero(0) == S(0)


# --- inversion -----------------------------------------------------------------

def test_invert_geometric():
    assert S(1, -1, 0, 0, 0, 0).inverse() == S(1, 1, 1, 1, 1, 1)
    one = TruncatedSeries.one(7)
    assert one.inverse() == one


def test_invert_euler_gives_partition_numbers():
    # frozen from the enumeration oracle: p(0)..p(9)
    expected = [count_partitions(n) for n in range(10)]
    assert expected == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
    assert list(euler_product(9).inverse().coefficients) == expected
    assert list(partition_gf(9).coefficients) == expected
    assert partition_gf(200) == euler_product(200).inverse()
    with pytest.raises(ValueError, match="order must be >= 0"):
        partition_gf(-1)


def test_invert_requires_unit_constant():
    with pytest.raises(ValueError):
        S(2, 1).inverse()
    with pytest.raises(ValueError):
        S(0, 1).inverse()
    # only 1 and -1 are inverted, in every ring
    for c0 in (A, -LaurentPoly.monomial(1, 3), A + 1, PHI5.project(A)):
        with pytest.raises(ValueError, match="is not 1 or -1"):
            TruncatedSeries((c0, A)).inverse()


@given(int_series)
def test_invert_roundtrip(x):
    coeffs = (1,) + x.coefficients[1:]
    x = TruncatedSeries(coeffs)
    assert x * x.inverse() == TruncatedSeries.one(x.order)


def test_invert_roundtrip_laurent_unit_constant():
    x = TruncatedSeries((-LaurentPoly.ONE, A, LaurentPoly({2: 5, 0: 1}), A_INV))
    y = x.inverse()
    assert all(type(c) is LaurentPoly for c in y.coefficients)
    assert x * y == laurent(TruncatedSeries.one(3))


def test_series_stay_in_the_ring_of_their_coefficients():
    a5 = PHI5.project(A)
    for cls, x in ((LaurentPoly, TruncatedSeries((LaurentPoly.ONE, A, A_INV, 2 * A))),
                   (QuotientElem, TruncatedSeries((PHI5.one(), a5, a5 * a5, -a5)))):
        derived = [x.shift(2), x * x, x.inverse(), -x, x + x, *x.dissect(5)]
        z = A if cls is LaurentPoly else a5
        derived += [pochhammer_inf(z, 1, 2, 6), pochhammer_fin(z, 3, 6),
                    pochhammer_fin(z, 2, 6, start=1)]
        for series in derived:
            assert all(type(c) is cls for c in series.coefficients), series


# --- dissection ---------------------------------------------------------------

def test_dissect_geometric():
    geo = S(*[1] * 11)
    parts = geo.dissect(2)
    assert parts[0] == S(*[1] * 6)
    assert parts[1] == S(*[1] * 5)
    assert geo.dissect(1) == [geo]


def test_dissect_partition_gf_component_4():
    parts = partition_gf(14).dissect(5)
    assert list(parts[4].coefficients) == [5, 30, 135]
    assert all(c % 5 == 0 for c in parts[4].coefficients)


@given(int_series, st.sampled_from((2, 3, 5, 7)))
def test_dissection_roundtrip(x, m):
    # interleaving the components gives the series back: c_n = P_(n mod m)[n // m]
    parts = x.dissect(m)
    assert TruncatedSeries([parts[n % m].coefficients[n // m] for n in range(x.order + 1)]) == x


# --- named products -----------------------------------------------------------------

def test_euler_product_matches_naive_product():
    for order in (0, 1, 12, 60, 121):
        assert list(euler_product(order).coefficients) == naive_euler(order)


def test_euler_product_frozen_low_order():
    assert list(euler_product(12).coefficients) == [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1]
    assert euler_product(0) == S(1)


def test_euler_equals_its_theta_form():
    for order in (5, 40):
        assert euler_product(order) == theta(1, 2, order)


def test_pochhammer_inf_examples():
    assert pochhammer_inf(1, 1, 1, 30) == euler_product(30)
    x = pochhammer_inf(A, 1, 1, 2)
    assert x == TruncatedSeries(
        (LaurentPoly.ONE, LaurentPoly.monomial(-1, 1), LaurentPoly.monomial(-1, 1)))
    # frozen from (1+q^2)(1+q^4)(1+q^6) by hand
    assert pochhammer_inf(-1, 2, 2, 6) == S(1, 0, 1, 0, 1, 0, 2)
    with pytest.raises(ValueError):
        pochhammer_inf(1, 0, 1, 5)
    with pytest.raises(ValueError):
        pochhammer_inf(1, 1, 0, 5)
    with pytest.raises(ValueError, match="order must be >= 0"):
        pochhammer_inf(1, 1, 1, -1)


def test_pochhammer_fin_examples():
    assert pochhammer_fin(1, 0, 6) == TruncatedSeries.one(6)
    one_factor = pochhammer_fin(A, 1, 3, start=1)
    assert one_factor.coefficients[1] == LaurentPoly.monomial(-1, 1)
    # frozen from (1-aq)(1-aq^2) by hand
    two = pochhammer_fin(A, 2, 3, start=1)
    assert two == TruncatedSeries(
        (LaurentPoly.ONE, LaurentPoly.monomial(-1, 1), LaurentPoly.monomial(-1, 1),
         LaurentPoly.monomial(1, 2)))
    # start=0 multiplies in the constant factor (1 - z)
    assert pochhammer_fin(1, 1, 2, start=0) == S(0, 0, 0)
    with pytest.raises(ValueError, match="order must be >= 0"):
        pochhammer_fin(1, 1, -1)


def test_theta_examples():
    assert theta(1, 2, 12) == euler_product(12)
    assert theta(3, 5, 8) == S(1, 0, 0, -1, 0, -1, 0, 0, 0)
    with pytest.raises(ValueError):
        theta(0, 0, 5)


@given(st.integers(1, 10), st.integers(1, 10))
def test_theta_argument_symmetry(r, s):
    assert theta(r, s, 30) == theta(s, r, 30)


# --- the two statistic generating functions ---------------------------------------

def test_crank_gf_low_coefficients():
    gf = crank_gf(2)
    assert gf.coefficients[0] == LaurentPoly.ONE
    assert gf.coefficients[1] == LaurentPoly({1: 1, 0: -1, -1: 1})
    assert gf.coefficients[2] == LaurentPoly({2: 1, -2: 1})


def test_crank_gf_palindromic_and_bounded_support():
    gf = crank_gf(25)
    for n in range(26):
        c = gf.coefficients[n]
        assert c.is_palindromic()
        assert c == LaurentPoly.ZERO or (-n <= min(c.terms) and max(c.terms) <= n)


def test_crank_gf_at_one_counts_partitions():
    gf = crank_gf(30)
    for n in range(31):
        assert sum(gf.coefficients[n].terms.values()) == partition_gf(30).coefficients[n]


def test_rank_gf_low_coefficients():
    gf = rank_gf(4)
    assert gf.coefficients[0] == LaurentPoly.ONE
    assert gf.coefficients[1] == LaurentPoly.ONE
    assert gf.coefficients[4] == LaurentPoly({3: 1, 1: 1, 0: 1, -1: 1, -3: 1})


def test_rank_gf_palindromic():
    gf = rank_gf(20)
    assert all(gf.coefficients[n].is_palindromic() for n in range(21))


def test_crank_gf_matches_inverse_product():
    assert crank_gf(40) == crank_by_inverses(40)


def test_rank_gf_matches_inverse_product():
    assert rank_gf(30) == rank_by_inverses(30)


@pytest.mark.parametrize("modulus", (PHI8, PHI9, PHI5))
@pytest.mark.parametrize("order", (0, 1, 2, 17, 40))
def test_crank_coordinates_equal_the_projection(modulus, order):
    built = built_crank(order, modulus)
    assert all(type(c) is QuotientElem for c in built.coefficients)
    assert built == crank_gf(order).map_coefficients(modulus.project)
    assert built == expected_crank(order, modulus)


@pytest.mark.parametrize("order", (0, 1, 2, 17, 40))
def test_crank_at_one_is_partition_gf(order):
    (at_one,) = crank_coordinates(order, AT_ONE)
    assert at_one == partition_gf(order).coefficients


@pytest.mark.parametrize("root", (2, 3, 4))
def test_galois_map_on_phi5_series(root):
    # a -> a^root on the residues in Z[a]/Phi5 agrees with substituting in
    # the Laurent polynomials first and projecting afterwards
    mapped = built_crank(40, PHI5).map_coefficients(
        lambda c: PHI5.project(c.as_laurent().substitute_power(root))
    )
    direct = crank_gf(40).map_coefficients(lambda c: PHI5.project(c.substitute_power(root)))
    assert mapped == direct


@pytest.mark.parametrize("modulus", TARGETS)
def test_crank_cache_large_then_small(fresh_crank_cache, modulus):
    big = built_crank(30, modulus)
    small = built_crank(12, modulus)
    assert fresh_crank_cache == [30]          # the small one is a slice
    assert small == big.truncate(12) == expected_crank(12, modulus)
    assert big == expected_crank(30, modulus)


@pytest.mark.parametrize("modulus", TARGETS)
def test_crank_cache_small_then_large(fresh_crank_cache, modulus):
    small = built_crank(12, modulus)
    big = built_crank(30, modulus)
    assert fresh_crank_cache == [12, 30]
    assert big == expected_crank(30, modulus)
    assert big.truncate(12) == small
    assert built_crank(20, modulus) == expected_crank(20, modulus)
    assert fresh_crank_cache == [12, 30]


def test_crank_cache_keeps_each_modulus(fresh_crank_cache):
    crank_coordinates(30, PHI8)
    crank_coordinates(20, PHI9)
    crank_coordinates(10, PHI8)
    crank_coordinates(25, PHI9)
    crank_gf(5)
    assert fresh_crank_cache == [30, 20, 25, 5]
    assert {key[1]: order for key, (order, _) in memo._held.items()
            if key[0] == "crank-coordinates"} == {PHI8: 30, PHI9: 25}
    assert memo._held[("table", "crank")][0] == 5
    for modulus, order in ((PHI8, 30), (PHI9, 25), (None, 5)):
        assert built_crank(order, modulus) == expected_crank(order, modulus)
    assert fresh_crank_cache == [30, 20, 25, 5]


@pytest.mark.parametrize("modulus,size", [(PHI8, 8), (PHI9, 9), (AT_ONE, 1), (PHI5, 5)],
                         ids=["phi8", "phi9", "at-one", "phi5"])
def test_crank_coordinates_equal_the_mapped_laurent_series(monkeypatch, modulus, size):
    # every order from an empty memo, so the small ones build at them: the
    # kernel runs at M = ord(a) even where the Laurent size 2N + 1 is smaller
    sizes = []
    columns = series._columns

    def recording(kind, order, classes):
        sizes.append(classes)
        return columns(kind, order, classes)

    laurent_crank = crank_gf(40)
    monkeypatch.setattr(series, "_columns", recording)
    for order in range(41):
        monkeypatch.setattr(memo, "_held", {})
        expected = [modulus.project(c).residue
                    for c in laurent_crank.truncate(order).coefficients]
        assert list(zip(*series.crank_coordinates(order, modulus))) == expected
    assert sizes == [size] * 41


def test_roots_share_one_crank_build(monkeypatch):
    # a -> a^r maps only a witness, so the four roots and
    # component-4-vanishing read one crank entry and one right-hand side
    builds = []
    columns, packed = series._columns, series._packed_crank

    def recording_columns(kind, order, size):
        builds.append(("columns", order, size))
        return columns(kind, order, size)

    def recording_product(order, size, bits):
        builds.append(("product", order, size))
        return packed(order, size, bits)

    monkeypatch.setattr(series, "_columns", recording_columns)
    monkeypatch.setattr(series, "_packed_crank", recording_product)
    for order in (30, 60, 45):
        for root in FIFTH_ROOTS:
            assert verify_5_dissection(order, root).passed
        assert verify_component_4_vanishing(order).passed
    # the columns for Phi5 in the 5 classes of a^5 = 1; the product formula
    # for the specialisation a = 1 in one class
    assert builds == [("columns", 30, 5), ("product", 30, 1),
                      ("columns", 60, 5), ("product", 60, 1)]
    assert set(memo._held) == {("crank-coordinates", PHI5), ("product", "crank", 1),
                               ("dissection-5",)}


# --- the two kernels, against each other and oracles that share none of their code ---

@pytest.mark.parametrize("kind,build", [("crank", series._packed_crank),
                                        ("rank", series._packed_rank)], ids=["crank", "rank"])
@pytest.mark.parametrize("order", (0, 1, 2, 3, 8, 21, 55, 100))
def test_column_kernel_equals_the_product_class_for_class(kind, build, order):
    for size in (1, 5, 7, 8, 9, 11, 2 * order + 1):
        assert partitions._columns(kind, order, size) == series._unpacked(build, order, size)


def test_order_of_a_picks_the_packing_ring():
    assert [len(series._powers_of_a(m)) for m in (PHI8, PHI9, PHI5, AT_ONE)] == [8, 9, 5, 1]
    # a^n = F(n) a + F(n-1) is never 1
    with pytest.raises(ValueError, match=f"order <= {2 * TABLE_CAP + 1} modulo a\\^2 - a - 1"):
        series._powers_of_a(FIBONACCI)


@pytest.mark.parametrize("order", (0, 1, 10, 100))
def test_digit_bits_cover_the_coefficient_bound(order):
    # [q^order] 1/((1 - q)(q;q)_inf^2) by series inversion
    euler = euler_product(order)
    geometric = TruncatedSeries((1, -1) + (0,) * order).truncate(order)
    bound = (euler * euler * geometric).inverse().coefficients[order]
    bits = series._digit_bits(order)
    assert bits % 8 == 0
    assert bound.bit_length() + 1 <= bits <= bound.bit_length() + 8


def test_crank_gf_at_one_is_partition_gf_at_high_order():
    # the product route in the one class of a = 1, which component-4-vanishing
    # reads; the column form gives p(n) there by construction
    at_one = tuple(row.get(0, 0) for row in product_rows("crank", 200, 1))
    assert at_one == partition_gf(200).coefficients


def test_rank_gf_at_one_is_partition_gf():
    # Durfee squares: sum q^(n^2) / (q;q)_n^2 = 1/(q;q)_inf
    sums = [sum(c.terms.values()) for c in rank_gf(100).coefficients]
    assert sums == list(partition_gf(100).coefficients)


def test_laurent_crank_gf_at_high_order():
    gf = crank_gf(120)
    p = partition_gf(120)
    for n in range(2, 121):
        c = gf.coefficients[n]
        assert c.is_palindromic()
        assert -n <= min(c.terms) and max(c.terms) <= n
        assert sum(c.terms.values()) == p.coefficients[n]


def test_laurent_crank_gf_capped_but_quotient_builds_are_not(fresh_crank_cache, monkeypatch):
    # the Laurent-size builds run with 2N+1 classes, as the table build does
    def refuse(*args):
        raise AssertionError("work started before the cap refusal")

    monkeypatch.setattr(series, "_packed_crank", refuse)
    monkeypatch.setattr(series, "_packed_rank", refuse)
    with pytest.raises(ValueError, match=f"order {TABLE_CAP + 1} exceeds the table cap"):
        crank_gf(TABLE_CAP + 1)
    for kind in ("crank", "rank"):
        with pytest.raises(ValueError, match=f"^order {TABLE_CAP + 1} exceeds the table cap "
                                             f"{TABLE_CAP}$"):
            product_rows(kind, TABLE_CAP + 1)
    assert fresh_crank_cache == []                 # refused before any work
    assert memo._held == {}
    columns = crank_coordinates(TABLE_CAP + 1, PHI5)
    assert [len(c) for c in columns] == [TABLE_CAP + 2] * PHI5.degree
    assert fresh_crank_cache == [TABLE_CAP + 1]


def test_crank_coordinates_where_a_has_infinite_order(fresh_crank_cache):
    # no ring Z[a]/(a^M - 1) maps onto Z[a]/(a^2 - a - 1), at any order
    for order in (0, 30, TABLE_CAP + 1):
        with pytest.raises(ValueError, match="modulo a\\^2 - a - 1"):
            crank_coordinates(order, FIBONACCI)
    assert fresh_crank_cache == []                 # refused before any kernel work
    assert memo._held == {}


def test_gf_cache_consistency():
    # asking for a smaller order after a bigger one must slice, not recompute
    big = crank_gf(15)
    small = crank_gf(6)
    assert small == big.truncate(6)


# --- quotient-ring series ----------------------------------------------------------

def test_series_over_quotient_ring():
    x = theta(5, 20, 25).map_coefficients(PHI5.from_int)
    y = x * x.inverse()
    assert all(type(c) is QuotientElem for c in y.coefficients)
    assert y == TruncatedSeries.one(25).map_coefficients(PHI5.from_int)


def test_str_rendering():
    # a series renders as its order only; its coefficients render themselves
    assert str(S(1, -1, 0, 2)) == repr(S(1, -1, 0, 2)) == "TruncatedSeries(order=3)"
    lam = LaurentPoly({1: 1, 0: -1, -1: 1})
    assert str(TruncatedSeries((LaurentPoly.ONE, lam))) == "TruncatedSeries(order=1)"
