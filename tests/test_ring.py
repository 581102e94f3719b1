import operator

import pytest
from hypothesis import given, strategies as st

from qdissect.ring import PHI5, PHI8, PHI9, LaurentPoly, Modulus, QuotientElem
from series_oracle import palindromic

A = LaurentPoly.monomial(1, 1)
A_INV = LaurentPoly.monomial(1, -1)
ZERO = LaurentPoly.ZERO
ONE = LaurentPoly.ONE

laurents = st.dictionaries(
    st.integers(-6, 6), st.integers(-20, 20), max_size=6
).map(LaurentPoly)

MODULI = (PHI8, PHI9, PHI5)


def mirrored(p):
    return LaurentPoly({-e: c for e, c in p.terms.items()})


# --- Laurent polynomials ----------------------------------------------------

def test_canonical_form_drops_zeros():
    p = LaurentPoly({3: 0, 1: 2, 0: 0, -2: -1})
    assert p.terms == {1: 2, -2: -1}
    assert LaurentPoly({5: 0}) == ZERO
    assert not ZERO
    assert ONE
    # no silent coercion: neither 0.5 nor 1.0 is read as an int, nor True as 1
    for terms in ({1: 0.5}, {1.0: 1}, {1: "2"}, {1: True}, {True: 1}):
        with pytest.raises(TypeError, match="^exponents and coefficients must be int$"):
            LaurentPoly(terms)


def test_addition_examples():
    p = A + A_INV
    assert p + ZERO == p
    assert (A - ONE) + (ONE - A) == ZERO
    lam = LaurentPoly({1: 1, 0: -1, -1: 1})
    assert lam + LaurentPoly({2: 1, -2: 1}) == LaurentPoly(
        {2: 1, 1: 1, 0: -1, -1: 1, -2: 1}
    )


def test_multiplication_examples():
    assert (A + A_INV) * (A - A_INV) == LaurentPoly({2: 1, -2: -1})
    p = LaurentPoly({4: 3, -1: 7})
    assert p * ONE == p
    lam = LaurentPoly({1: 1, 0: -1, -1: 1})
    # frozen from expanding (a - 1 + 1/a)^2 term by term
    assert lam * lam == LaurentPoly({2: 1, 1: -2, 0: 3, -1: -2, -2: 1})


def test_int_coercion():
    assert A - 1 == LaurentPoly({1: 1, 0: -1})
    assert 2 * A == LaurentPoly({1: 2})
    assert A * 0 == ZERO
    assert 1 - A == LaurentPoly({0: 1, 1: -1})


# +, -, * with a bool on either side; == stays as Python's own, where 1 == True
BOOL_ARITHMETIC = (operator.add, operator.sub, operator.mul)


def test_arithmetic_reads_no_bool_as_an_int():
    for value in (A, ONE, PHI5.one(), PHI8.project(A)):
        for op in BOOL_ARITHMETIC:
            for flag in (True, False):
                with pytest.raises(TypeError):
                    op(value, flag)
                with pytest.raises(TypeError):
                    op(flag, value)
        assert value * 1 == value and 1 * value == value
    assert ONE == True and PHI5.one() == True
    # a reflected subtraction refuses before it negates, so the error names -
    for take in (lambda: True - ONE, lambda: 2.5 - PHI5.one()):
        with pytest.raises(TypeError, match="unsupported operand type.* for -:"):
            take()


def test_palindrome_check():
    # the oracle the crank and rank row checks use must be able to say no
    assert palindromic(A + A_INV)
    assert palindromic(LaurentPoly({1: 1, 0: -1, -1: 1}))
    assert not palindromic(LaurentPoly({2: 1, 1: 1}))
    assert not palindromic(LaurentPoly({2: 1, -2: 2}))
    assert palindromic(ZERO)


def test_substitute_power_and_eval():
    lam = LaurentPoly({1: 1, 0: -1, -1: 1})
    assert lam.substitute_power(3) == LaurentPoly({3: 1, 0: -1, -3: 1})
    assert lam.substitute_power(1) is lam
    with pytest.raises(ValueError):
        lam.substitute_power(0)
    # an exponent is an int: a float would make float exponents, a bool
    # would run as 1
    for k in (1.5, 2.0, True, "2", None):
        with pytest.raises(ValueError, match=f"^substitution power must be an int, not {k!r}$"):
            LaurentPoly({1: 1, -1: 2}).substitute_power(k)


def test_quotient_powers_take_only_int_exponents():
    a = PHI5.project(A)
    for n in (True, False, 2.0, 1.5, "2", None):
        with pytest.raises(ValueError, match=f"^exponent must be an int, not {n!r}$"):
            a ** n
    # a negative exponent inverts; zero is the one
    assert a ** -2 == PHI5.project(LaurentPoly.monomial(1, -2))
    assert a ** 0 == PHI5.one()


def test_rendering():
    assert str(ZERO) == "0"
    assert str(LaurentPoly({2: 1, 1: -2, 0: 3, -1: -2, -2: 1})) == "a^2 - 2a + 3 - 2a^-1 + a^-2"
    assert str(LaurentPoly({0: -7})) == "-7"
    assert str(PHI8) == "a^4 + 1"


@given(laurents, laurents, laurents)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert p + ZERO == p
    assert p * ONE == p
    assert p + (-p) == ZERO


@given(laurents, laurents)
def test_palindromes_closed_under_product(p, q):
    sp, sq = p + mirrored(p), q + mirrored(q)
    assert palindromic(sp) and palindromic(sq)
    assert palindromic(sp * sq)


# --- moduli -------------------------------------------------------------------

def test_modulus_validation():
    with pytest.raises(ValueError):
        Modulus((1,))            # degree 0
    with pytest.raises(ValueError):
        Modulus((1, 0, 2))       # not monic
    with pytest.raises(ValueError):
        Modulus((2, 0, 1))       # constant term not a unit
    assert Modulus((-1, 0, 1)).degree == 2
    # no silent coercion: 0.5 is not read as 0, nor 1.9 as 1, nor True as 1
    for coeffs in ([1, 0.5, 1], [1.9, 0, 1], [1, 0, 1.0], ["1", 0, 1], [1, True], [True, 1]):
        with pytest.raises(TypeError, match="^modulus coefficients must be int$"):
            Modulus(coeffs)
    for n in (1.7, 2.0, "2", True, False):
        with pytest.raises(TypeError, match="^the constant must be an int$"):
            PHI5.from_int(n)


# --- projection ---------------------------------------------------------------

def test_projection_examples():
    assert PHI8.project(A_INV).residue == (0, 0, 0, -1)          # a^-1 = -a^3
    assert not PHI8.project(LaurentPoly({2: 1, -2: 1}))          # generator dies
    assert PHI9.project(LaurentPoly.monomial(1, 9)) == PHI9.one()
    assert PHI9.project(LaurentPoly({3: 1, 0: 1, -3: 1})) == PHI9.zero()


def test_root_of_unity_orders():
    for modulus, order in ((PHI8, 8), (PHI9, 9), (PHI5, 5)):
        a = modulus.project(A)
        assert a ** order == modulus.one()
        for k in range(1, order):
            assert a ** k != modulus.one()


@pytest.mark.parametrize("modulus", MODULI)
@given(p=laurents, q=laurents)
def test_projection_is_a_ring_morphism(modulus, p, q):
    assert modulus.project(p + q) == modulus.project(p) + modulus.project(q)
    assert modulus.project(p * q) == modulus.project(p) * modulus.project(q)


@pytest.mark.parametrize("modulus", MODULI)
@given(p=laurents)
def test_projection_idempotent_on_residues(modulus, p):
    x = modulus.project(p)
    assert modulus.project(x.as_laurent()) == x


# --- quotient elements ----------------------------------------------------------

def test_quotient_arithmetic():
    a8 = PHI8.project(A)
    assert a8 * PHI8.project(A_INV) == PHI8.one()
    assert (a8 ** 4) * (a8 ** 4) == PHI8.one()
    lam2_img = PHI8.project(LaurentPoly({2: 1, -2: 1}))
    assert lam2_img + PHI8.zero() == PHI8.zero()
    assert PHI8.project(LaurentPoly({0: 5})) - 5 == PHI8.zero()


def test_modulus_mismatch_rejected():
    with pytest.raises(ValueError):
        PHI8.project(A) + PHI9.project(A)
    with pytest.raises(ValueError):
        PHI8.project(A) * PHI5.project(A)


def test_residue_length_checked():
    with pytest.raises(ValueError):
        QuotientElem((1, 2), PHI8)
    # no silent coercion: 1.7 is not read as 1, nor True as 1
    for residue in ((1.7, 0, 0, 0), (1, 0, 0, 2.0), ("1", 0, 0, 0), (True, 0, 0, 0)):
        with pytest.raises(TypeError, match="^residue coefficients must be int$"):
            QuotientElem(residue, PHI5)


def test_unit_inversion():
    for modulus in MODULI:
        a = modulus.project(A)
        assert a * a.inverse() == modulus.one()
        assert a ** -1 == modulus.inverse_of_a()
    # 1 + a is a unit of Z[a]/PHI5 (its norm is PHI5 at -1, which is 1)
    u = PHI5.project(ONE + A)
    assert u * u.inverse() == PHI5.one()
    with pytest.raises(ValueError):
        PHI5.from_int(2).inverse()
    with pytest.raises(ValueError):
        PHI5.zero().inverse()


# --- hashing agrees with equality ------------------------------------------------

def test_constants_hash_as_the_ints_they_equal():
    for c in (0, 1, -1, 3, 2**70):
        for x in (LaurentPoly.monomial(c), PHI5.from_int(c), PHI8.from_int(c)):
            assert x == c and hash(x) == hash(c)
    assert len({1, ONE}) == 1
    assert len({3, PHI5.from_int(3)}) == 1
    assert {0: "zero"}[ZERO] == "zero"


def test_constants_equal_across_rings():
    # equality stays transitive, so a set holds one constant whatever the
    # order it is filled in
    for c in (0, 3, -2**70):
        values = (c, LaurentPoly.monomial(c), PHI5.from_int(c), PHI8.from_int(c))
        for x in values:
            for y in values:
                assert x == y and y == x and not x != y
        assert len({PHI5.from_int(c), c, PHI8.from_int(c)}) == 1
        assert len({c, PHI5.from_int(c), PHI8.from_int(c)}) == 1
    assert ONE == PHI5.one() and PHI5.one() == ONE
    assert not ONE != PHI5.one() and not PHI5.one() != ONE


def test_non_constants_of_different_rings_stay_unequal():
    a5, a8 = PHI5.project(A), PHI8.project(A)
    assert a5 != a8 and a8 != a5
    assert a5 != A and A != a5
    assert PHI5.from_int(3) != PHI8.from_int(4)
    assert len({a5, a8, A}) == 3
    with pytest.raises(ValueError):
        PHI5.from_int(3) + PHI8.from_int(3)


@given(laurents)
def test_equal_values_hash_equal(p):
    assert hash(p) == hash(LaurentPoly(dict(p.terms)))
    for modulus in MODULI:
        x = modulus.project(p)
        assert hash(x) == hash(QuotientElem(x.residue, modulus))
        if not any(x.residue[1:]):
            assert x == x.residue[0] and hash(x) == hash(x.residue[0])
