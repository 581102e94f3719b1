from functools import cache

import pytest
from hypothesis import given, strategies as st

from qdissect import memo, series
from qdissect.ring import (
    INTEGER_RING,
    LAURENT_RING,
    PHI5,
    PHI8,
    PHI9,
    LaurentPoly,
    Modulus,
    QuotientElem,
    quotient_ring,
)
from qdissect.series import (
    LAURENT_CRANK_CAP,
    TruncatedSeries,
    crank_gf,
    euler_product,
    partition_gf,
    pochhammer_fin,
    pochhammer_inf,
    rank_gf,
    reassemble,
    theta,
)

A = LaurentPoly.monomial(1, 1)
A_INV = LaurentPoly.monomial(1, -1)


def S(*coeffs):
    return TruncatedSeries(coeffs, INTEGER_RING)


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
    euler = euler_product(order, LAURENT_RING)
    den1 = pochhammer_inf(A, 1, 1, order, LAURENT_RING)
    den2 = pochhammer_inf(A_INV, 1, 1, order, LAURENT_RING)
    return euler * den1.inverse() * den2.inverse()


def expected_crank(order, modulus):
    laurent = crank_by_inverses(40).truncate(order)
    if modulus is None:
        return laurent
    return laurent.map_coefficients(modulus.project, quotient_ring(modulus))


# independent oracle: the rank series term by term, each term by inverting
# the two finite products
def rank_by_inverses(order):
    total = TruncatedSeries.one(order, LAURENT_RING)
    n = 1
    while n * n <= order:
        d1 = pochhammer_fin(A, n, order, start=1, ring=LAURENT_RING)
        d2 = pochhammer_fin(A_INV, n, order, start=1, ring=LAURENT_RING)
        total = total + (d1.inverse() * d2.inverse()).shift(n * n).truncate(order)
        n += 1
    return total


AT_ONE = Modulus((-1, 1))      # a - 1: the specialisation a = 1
FIBONACCI = Modulus((-1, -1, 1))   # a^2 - a - 1: a has infinite order
TARGETS = (None, PHI8, PHI9, PHI5)


@pytest.fixture
def fresh_crank_cache(monkeypatch):
    """A list recording the order of each crank build."""
    builds = []
    packed = series._packed_crank

    def recording(order, size, bits):
        builds.append(order)
        return packed(order, size, bits)

    monkeypatch.setattr(series, "_packed_crank", recording)
    return builds


int_series = st.lists(st.integers(-9, 9), min_size=1, max_size=24).map(
    lambda cs: TruncatedSeries(cs, INTEGER_RING)
)


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
    x = S(1, 1)
    y = TruncatedSeries((LaurentPoly.ONE, A), LAURENT_RING)
    with pytest.raises(ValueError):
        x + y
    with pytest.raises(ValueError):
        x * y


def test_equality_needs_same_order():
    assert S(1, 2) != S(1, 2, 0)
    assert S(1, 2) == S(1, 2)


def test_shift_truncate_scale():
    x = S(1, 2, 3)
    assert x.shift(2) == S(0, 0, 1, 2, 3)
    assert x.truncate(1) == S(1, 2)
    with pytest.raises(ValueError):
        x.truncate(5)
    assert x.map_coefficients(lambda c: c * -2) == S(-2, -4, -6)
    with pytest.raises(ValueError):
        x.shift(-1)


def test_coefficient_bounds_checked():
    with pytest.raises(ValueError):
        S(1, 2).coefficient(3)
    with pytest.raises(ValueError):
        TruncatedSeries((), INTEGER_RING)


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


def test_invert_requires_unit_constant():
    with pytest.raises(ValueError):
        S(2, 1).inverse()
    with pytest.raises(ValueError):
        S(0, 1).inverse()


@given(int_series)
def test_invert_roundtrip(x):
    coeffs = (1,) + x.coefficients[1:]
    x = TruncatedSeries(coeffs, INTEGER_RING)
    assert x * x.inverse() == TruncatedSeries.one(x.order)


def test_invert_roundtrip_laurent_unit_constant():
    x = TruncatedSeries((LaurentPoly.monomial(-1, 3), A, LaurentPoly({2: 5, 0: 1})),
                        LAURENT_RING)
    assert x * x.inverse() == TruncatedSeries.one(2, LAURENT_RING)


def test_quotient_inverse_inverts_constant_term_once(monkeypatch):
    calls = []
    original = QuotientElem.inverse

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(QuotientElem, "inverse", counting)
    ring = quotient_ring(PHI5)
    a = PHI5.project(A)
    x = TruncatedSeries((ring.one + a, a, ring.from_int(3), a * a), ring)
    y = x.inverse()
    assert len(calls) == 1
    assert x * y == TruncatedSeries.one(3, ring)


# --- substitution and dissection --------------------------------------------------

def test_substitute_power_examples():
    assert S(1, 1, 0, 0, 0).substitute_power(2) == S(1, 0, 1, 0, 0)
    x = S(2, 3, 4)
    assert x.substitute_power(1) == x
    assert S(1, 1, 1).substitute_power(3, order=6) == S(1, 0, 0, 1, 0, 0, 1)
    with pytest.raises(ValueError):
        S(1, 1).substitute_power(2, order=4)   # q^4 needs the unknown c_2
    with pytest.raises(ValueError):
        x.substitute_power(0)


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
    assert reassemble(x.dissect(m), x.order) == x


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
    x = pochhammer_inf(A, 1, 1, 2, ring=LAURENT_RING)
    assert x == TruncatedSeries(
        (LaurentPoly.ONE, LaurentPoly.monomial(-1, 1), LaurentPoly.monomial(-1, 1)),
        LAURENT_RING,
    )
    # frozen from (1+q^2)(1+q^4)(1+q^6) by hand
    assert pochhammer_inf(-1, 2, 2, 6) == S(1, 0, 1, 0, 1, 0, 2)
    with pytest.raises(ValueError):
        pochhammer_inf(1, 0, 1, 5)
    with pytest.raises(ValueError):
        pochhammer_inf(1, 1, 0, 5)


def test_pochhammer_fin_examples():
    assert pochhammer_fin(1, 0, 6) == TruncatedSeries.one(6)
    one_factor = pochhammer_fin(A, 1, 3, start=1, ring=LAURENT_RING)
    assert one_factor.coefficient(1) == LaurentPoly.monomial(-1, 1)
    # frozen from (1-aq)(1-aq^2) by hand
    two = pochhammer_fin(A, 2, 3, start=1, ring=LAURENT_RING)
    assert two == TruncatedSeries(
        (LaurentPoly.ONE, LaurentPoly.monomial(-1, 1), LaurentPoly.monomial(-1, 1),
         LaurentPoly.monomial(1, 2)),
        LAURENT_RING,
    )
    # start=0 multiplies in the constant factor (1 - z)
    assert pochhammer_fin(1, 1, 2, start=0) == S(0, 0, 0)


def test_theta_examples():
    assert theta(1, 2, 12) == euler_product(12)
    assert theta(3, 5, 8) == S(1, 0, 0, -1, 0, -1, 0, 0, 0)
    with pytest.raises(ValueError):
        theta(0, 0, 5)
    with pytest.raises(ValueError):
        theta(1, 2, 5, sign_r=2)


@given(st.integers(1, 10), st.integers(1, 10))
def test_theta_argument_symmetry(r, s):
    assert theta(r, s, 30) == theta(s, r, 30)


def test_theta_positive_signs():
    # f(q, q) = sum q^(n^2): exponents T(n)+T(n-1) = n^2, all signs +
    x = theta(1, 1, 10, sign_r=1, sign_s=1)
    assert list(x.coefficients) == [1, 2, 0, 0, 2, 0, 0, 0, 0, 2, 0]


# --- the two statistic generating functions ---------------------------------------

def test_crank_gf_low_coefficients():
    gf = crank_gf(2)
    assert gf.coefficient(0) == LaurentPoly.ONE
    assert gf.coefficient(1) == LaurentPoly({1: 1, 0: -1, -1: 1})
    assert gf.coefficient(2) == LaurentPoly({2: 1, -2: 1})


def test_crank_gf_palindromic_and_bounded_support():
    gf = crank_gf(25)
    for n in range(26):
        c = gf.coefficient(n)
        assert c.is_palindromic()
        assert c == LaurentPoly.ZERO or (-n <= c.min_exponent and c.max_exponent <= n)


def test_crank_gf_at_one_counts_partitions():
    gf = crank_gf(30)
    for n in range(31):
        assert gf.coefficient(n).evaluate_at_one() == partition_gf(30).coefficient(n)


def test_rank_gf_low_coefficients():
    gf = rank_gf(4)
    assert gf.coefficient(0) == LaurentPoly.ONE
    assert gf.coefficient(1) == LaurentPoly.ONE
    assert gf.coefficient(4) == LaurentPoly({3: 1, 1: 1, 0: 1, -1: 1, -3: 1})


def test_rank_gf_palindromic():
    gf = rank_gf(20)
    assert all(gf.coefficient(n).is_palindromic() for n in range(21))


def test_crank_gf_matches_inverse_product():
    assert crank_gf(40) == crank_by_inverses(40)


def test_rank_gf_matches_inverse_product():
    assert rank_gf(30) == rank_by_inverses(30)


@pytest.mark.parametrize("modulus", (PHI8, PHI9, PHI5))
@pytest.mark.parametrize("order", (0, 1, 2, 17, 40))
def test_crank_gf_in_quotient_ring_equals_projection(modulus, order):
    built = crank_gf(order, modulus)
    assert built.ring is quotient_ring(modulus)
    assert built == crank_gf(order).map_coefficients(modulus.project, quotient_ring(modulus))
    assert built == expected_crank(order, modulus)


@pytest.mark.parametrize("order", (0, 1, 2, 17, 40))
def test_crank_gf_at_one_is_partition_gf(order):
    at_one = [c.residue[0] for c in crank_gf(order, AT_ONE).coefficients]
    assert at_one == list(partition_gf(order).coefficients)


@pytest.mark.parametrize("root", (2, 3, 4))
def test_galois_map_on_phi5_series(root):
    # a -> a^root on the residues in Z[a]/Phi5 agrees with substituting in
    # the Laurent polynomials first and projecting afterwards
    mapped = crank_gf(40, PHI5).map_coefficients(
        lambda c: PHI5.project(c.as_laurent().substitute_power(root))
    )
    direct = crank_gf(40).map_coefficients(
        lambda c: PHI5.project(c.substitute_power(root)), quotient_ring(PHI5)
    )
    assert mapped == direct


@pytest.mark.parametrize("modulus", TARGETS)
def test_crank_cache_large_then_small(fresh_crank_cache, modulus):
    big = crank_gf(30, modulus)
    small = crank_gf(12, modulus)
    assert fresh_crank_cache == [30]          # the small one is a slice
    assert small == big.truncate(12) == expected_crank(12, modulus)
    assert big == expected_crank(30, modulus)


@pytest.mark.parametrize("modulus", TARGETS)
def test_crank_cache_small_then_large(fresh_crank_cache, modulus):
    small = crank_gf(12, modulus)
    big = crank_gf(30, modulus)
    assert fresh_crank_cache == [12, 30]
    assert big == expected_crank(30, modulus)
    assert big.truncate(12) == small
    assert crank_gf(20, modulus) == expected_crank(20, modulus)
    assert fresh_crank_cache == [12, 30]


def test_crank_cache_keeps_each_ring(fresh_crank_cache):
    crank_gf(30, PHI8)
    crank_gf(20, PHI9)
    crank_gf(10, PHI8)
    crank_gf(25, PHI9)
    crank_gf(5)
    assert fresh_crank_cache == [30, 20, 25, 5]
    assert {key[1]: order for key, (order, _) in memo._held.items()
            if key[0] == "crank"} == {PHI8: 30, PHI9: 25, None: 5}
    for modulus, order in ((PHI8, 30), (PHI9, 25), (None, 5)):
        assert crank_gf(order, modulus) == expected_crank(order, modulus)
    assert fresh_crank_cache == [30, 20, 25, 5]


# --- the packed kernel, against oracles that share none of its code ---------------

def test_order_of_a_picks_the_packing_ring():
    assert [len(series._powers_of_a(m, 40)) for m in (PHI8, PHI9, PHI5, AT_ONE)] == [8, 9, 5, 1]
    assert series._powers_of_a(PHI9, 8) is None         # order 9 > limit: Laurent route
    assert series._powers_of_a(FIBONACCI, 200) is None  # a^n = F(n) a + F(n-1)


@pytest.mark.parametrize("order", (0, 1, 10, 100))
def test_digit_bits_cover_the_coefficient_bound(order):
    # [q^order] 1/((1 - q)(q;q)_inf^2) by series inversion
    euler = euler_product(order)
    geometric = TruncatedSeries((1, -1) + (0,) * order).truncate(order)
    bound = (euler * euler * geometric).inverse().coefficient(order)
    bits = series._digit_bits(order)
    assert bits % 8 == 0
    assert bound.bit_length() + 1 <= bits <= bound.bit_length() + 8


def test_crank_gf_at_one_is_partition_gf_at_high_order():
    at_one = [c.residue[0] for c in crank_gf(200, AT_ONE).coefficients]
    assert at_one == list(partition_gf(200).coefficients)


def test_rank_gf_at_one_is_partition_gf():
    # Durfee squares: sum q^(n^2) / (q;q)_n^2 = 1/(q;q)_inf
    sums = [c.evaluate_at_one() for c in rank_gf(100).coefficients]
    assert sums == list(partition_gf(100).coefficients)


def test_laurent_crank_gf_at_high_order():
    gf = crank_gf(120)
    p = partition_gf(120)
    for n in range(2, 121):
        c = gf.coefficient(n)
        assert c.is_palindromic()
        assert -n <= c.min_exponent and c.max_exponent <= n
        assert c.evaluate_at_one() == p.coefficient(n)


def test_laurent_crank_gf_capped_but_quotient_builds_are_not(fresh_crank_cache):
    # a has infinite order modulo a^2 - a - 1, so that build would run with
    # 2N+1 classes, as the Laurent one does
    for modulus in (None, FIBONACCI):
        with pytest.raises(ValueError, match="Laurent crank cap"):
            crank_gf(LAURENT_CRANK_CAP + 1, modulus)
    assert fresh_crank_cache == []                 # refused before any work
    assert crank_gf(LAURENT_CRANK_CAP + 1, PHI5).order == LAURENT_CRANK_CAP + 1


def test_crank_gf_where_a_has_infinite_order():
    built = crank_gf(30, FIBONACCI)
    assert built.ring is quotient_ring(FIBONACCI)
    assert built == expected_crank(30, FIBONACCI)


def test_gf_cache_consistency():
    # asking for a smaller order after a bigger one must slice, not recompute
    big = crank_gf(15)
    small = crank_gf(6)
    assert small == big.truncate(6)


# --- quotient-ring series ----------------------------------------------------------

def test_series_over_quotient_ring():
    ring = quotient_ring(PHI5)
    x = theta(5, 20, 25, ring=ring)
    y = x * x.inverse()
    assert y == TruncatedSeries.one(25, ring)


def test_str_rendering():
    assert str(S(1, -1, 0, 2)) == "1 - q + 2*q^3 + O(q^4)"
    lam = LaurentPoly({1: 1, 0: -1, -1: 1})
    x = TruncatedSeries((LaurentPoly.ONE, lam), LAURENT_RING)
    assert str(x) == "1 + (a - 1 + a^-1)*q + O(q^2)"
