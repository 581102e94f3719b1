"""Exact coefficient rings: integers, Laurent polynomials, cyclotomic quotients.

Three rings, all over arbitrary-precision integer scalars (plain ``int``):

* the integers themselves,
* Laurent polynomials in a single symbol ``a`` (sparse mapping from signed
  exponent to nonzero coefficient),
* quotient rings Z[a]/(m(a)) for a monic modulus m(a) with constant term
  +1 or -1.  The unit constant term makes ``a`` invertible in the quotient,
  so Laurent polynomials (negative exponents included) project cleanly.

The quotient moduli used by the dissection identities are cyclotomic:
``PHI8 = a^4 + 1`` (a has multiplicative order 8), ``PHI9 = a^6 + a^3 + 1``
(order 9) and ``PHI5 = a^4 + a^3 + a^2 + a + 1`` (order 5).  Working in
these rings replaces floating-point roots of unity with decidable exact
equality.

All values are immutable after construction and all operations are pure,
so anything here may be shared freely across threads.
"""

from __future__ import annotations

from typing import Iterable, Mapping

SYMBOL = "a"


def _format_terms(pairs) -> str:
    # pairs: (exponent, coefficient), rendered highest exponent first
    chunks = []
    for e, c in pairs:
        if e == 0:
            body = str(abs(c))
        else:
            mag = abs(c)
            var = SYMBOL if e == 1 else f"{SYMBOL}^{e}"
            body = var if mag == 1 else f"{mag}{var}"
        if not chunks:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(chunks) if chunks else "0"


class LaurentPoly:
    """Sparse Laurent polynomial in the symbol ``a`` with int coefficients.

    Stored as a mapping exponent -> coefficient with no zero coefficients;
    the zero polynomial has an empty mapping.  Supports +, -, * and exact
    equality.  Integers coerce in arithmetic (``p - 1``, ``2 * p``).
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[int, int] = {}
        for e, c in items:
            if not isinstance(e, int) or not isinstance(c, int):
                raise TypeError("exponents and coefficients must be int")
            if c:
                v = clean.get(e, 0) + c
                if v:
                    clean[e] = v
                else:
                    del clean[e]
        self._terms = clean

    @classmethod
    def _raw(cls, terms: dict[int, int]) -> "LaurentPoly":
        # internal fast path: terms must already be canonical
        obj = object.__new__(cls)
        obj._terms = terms
        return obj

    @classmethod
    def monomial(cls, coeff: int, exponent: int = 0) -> "LaurentPoly":
        return cls._raw({exponent: coeff} if coeff else {})

    @property
    def terms(self) -> dict[int, int]:
        return dict(self._terms)

    def is_palindromic(self) -> bool:
        """True iff the coefficient of a^k equals that of a^-k for all k."""
        return all(self._terms.get(-e) == c for e, c in self._terms.items())

    def substitute_power(self, k: int) -> "LaurentPoly":
        """Substitute a -> a^k (k >= 1), e.g. to move to another root of unity."""
        if k < 1:
            raise ValueError("substitution power must be >= 1")
        if k == 1:
            return self
        return LaurentPoly._raw({e * k: c for e, c in self._terms.items()})

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = LaurentPoly.monomial(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        # a constant hashes as the int it equals
        t = self._terms
        if len(t) > 1 or (t and 0 not in t):
            return hash(frozenset(t.items()))
        return hash(t.get(0, 0))

    def __add__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly.monomial(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        p, q = self._terms, other._terms
        if len(p) < len(q):
            p, q = q, p
        out = dict(p)
        for e, c in q.items():
            v = out.get(e, 0) + c
            if v:
                out[e] = v
            elif e in out:
                del out[e]
        return LaurentPoly._raw(out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._raw({e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly.monomial(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPoly":
        return (-self) + other

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            if not other:
                return _LP_ZERO
            return LaurentPoly._raw({e: c * other for e, c in self._terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        p, q = self._terms, other._terms
        if len(p) > len(q):
            p, q = q, p
        out: dict[int, int] = {}
        get = out.get
        for e1, c1 in p.items():
            for e2, c2 in q.items():
                e = e1 + e2
                v = get(e, 0) + c1 * c2
                if v:
                    out[e] = v
                elif e in out:
                    del out[e]
        return LaurentPoly._raw(out)

    __rmul__ = __mul__

    def __str__(self) -> str:
        return _format_terms(sorted(self._terms.items(), reverse=True))

    def __repr__(self) -> str:
        return f"LaurentPoly({dict(sorted(self._terms.items()))!r})"


_LP_ZERO = LaurentPoly._raw({})
_LP_ONE = LaurentPoly._raw({0: 1})
LaurentPoly.ZERO = _LP_ZERO
LaurentPoly.ONE = _LP_ONE


def _divstep(vec: list[int], mod: tuple[int, ...], degree: int) -> list[int]:
    # in-place remainder of vec by the monic polynomial mod (ascending coeffs)
    for i in range(len(vec) - 1, degree - 1, -1):
        t = vec[i]
        if t:
            vec[i] = 0
            base = i - degree
            for j in range(degree):
                vec[base + j] -= t * mod[j]
    return vec


class Modulus:
    """Monic integer polynomial m(a) with constant term +-1, degree >= 1.

    Defines the quotient ring Z[a]/(m(a)).  The unit constant term keeps
    ``a`` invertible, which is what lets negative exponents reduce.
    """

    def __init__(self, coeffs: Iterable[int]):
        coeffs = tuple(int(c) for c in coeffs)
        if len(coeffs) < 2:
            raise ValueError("modulus must have degree >= 1")
        if coeffs[-1] != 1:
            raise ValueError("modulus must be monic")
        if coeffs[0] not in (1, -1):
            raise ValueError("modulus constant term must be +1 or -1")
        self._coeffs = coeffs
        self._inv_a: QuotientElem | None = None
        # rendered once: every dissection report names its ring by it
        self._text = _format_terms(sorted(((e, c) for e, c in enumerate(coeffs) if c),
                                          reverse=True))

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self._coeffs) - 1

    def zero(self) -> "QuotientElem":
        return QuotientElem._raw((0,) * self.degree, self)

    def one(self) -> "QuotientElem":
        return self.from_int(1)

    def from_int(self, n: int) -> "QuotientElem":
        return QuotientElem._raw((int(n),) + (0,) * (self.degree - 1), self)

    def inverse_of_a(self) -> "QuotientElem":
        """The residue of a^-1: a * (m(a) - c0)/a = -c0, so a^-1 = -c0 * (m - c0)/a."""
        if self._inv_a is None:
            d = self.degree
            c0 = self._coeffs[0]
            res = [-c0 * self._coeffs[j + 1] for j in range(d - 1)] + [-c0]
            self._inv_a = QuotientElem._raw(tuple(res), self)
        return self._inv_a

    def project(self, p: LaurentPoly) -> "QuotientElem":
        """Canonical residue of a Laurent polynomial in Z[a]/(m(a)).

        Negative exponents are cleared by multiplying through by a^k and
        multiplying the reduced residue by (a^-1)^k afterwards.
        """
        d = self.degree
        terms = p._terms
        if not terms:
            return self.zero()
        shift = max(0, -min(terms))
        vec = [0] * (max(terms) + shift + 1)
        for e, c in terms.items():
            vec[e + shift] = c
        if len(vec) <= d:
            vec.extend([0] * (d - len(vec)))
        else:
            _divstep(vec, self._coeffs, d)
        elem = QuotientElem._raw(tuple(vec[:d]), self)
        if shift:
            elem = elem * (self.inverse_of_a() ** shift)
        return elem

    def __eq__(self, other) -> bool:
        if not isinstance(other, Modulus):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(self._coeffs)

    def __str__(self) -> str:
        return self._text

    def __repr__(self) -> str:
        return f"Modulus({list(self._coeffs)!r})"


# Cyclotomic moduli of the congruence rings: a is a primitive 8th, 9th and
# 5th root of unity respectively.
PHI8 = Modulus((1, 0, 0, 0, 1))            # a^4 + 1
PHI9 = Modulus((1, 0, 0, 1, 0, 0, 1))      # a^6 + a^3 + 1
PHI5 = Modulus((1, 1, 1, 1, 1))            # a^4 + a^3 + a^2 + a + 1


class QuotientElem:
    """Canonical residue in Z[a]/(m(a)): a dense degree-0..d-1 coefficient vector.

    Equality and hashing are O(d) on the canonical form.  A constant equals,
    and hashes as, the int it names, so it also equals a constant Laurent
    polynomial and the same constant of any modulus.  Arithmetic that mixes
    elements of different moduli raises ValueError.
    """

    __slots__ = ("_residue", "_modulus")

    def __init__(self, residue: Iterable[int], modulus: Modulus):
        residue = tuple(int(c) for c in residue)
        if len(residue) != modulus.degree:
            raise ValueError("residue length must equal the modulus degree")
        self._residue = residue
        self._modulus = modulus

    @classmethod
    def _raw(cls, residue: tuple[int, ...], modulus: Modulus) -> "QuotientElem":
        obj = object.__new__(cls)
        obj._residue = residue
        obj._modulus = modulus
        return obj

    @property
    def residue(self) -> tuple[int, ...]:
        return self._residue

    @property
    def modulus(self) -> Modulus:
        return self._modulus

    def as_laurent(self) -> LaurentPoly:
        return LaurentPoly._raw({e: c for e, c in enumerate(self._residue) if c})

    def _check(self, other: "QuotientElem") -> None:
        if self._modulus is not other._modulus and self._modulus != other._modulus:
            raise ValueError("quotient elements have different moduli")

    def __bool__(self) -> bool:
        return any(self._residue)

    def __eq__(self, other) -> bool:
        if isinstance(other, QuotientElem) and self._modulus == other._modulus:
            return self._residue == other._residue
        if not isinstance(other, (int, LaurentPoly, QuotientElem)):
            return NotImplemented
        # across rings only constants compare, as the ints they hash as
        r = self._residue
        return not any(r[1:]) and r[0] == other

    def __hash__(self):
        # a constant hashes as the int it equals
        r = self._residue
        if any(r[1:]):
            return hash((r, self._modulus))
        return hash(r[0])

    def __add__(self, other) -> "QuotientElem":
        if isinstance(other, int):
            other = self._modulus.from_int(other)
        if not isinstance(other, QuotientElem):
            return NotImplemented
        self._check(other)
        return QuotientElem._raw(
            tuple(x + y for x, y in zip(self._residue, other._residue)), self._modulus
        )

    __radd__ = __add__

    def __neg__(self) -> "QuotientElem":
        return QuotientElem._raw(tuple(-x for x in self._residue), self._modulus)

    def __sub__(self, other) -> "QuotientElem":
        if isinstance(other, int):
            other = self._modulus.from_int(other)
        if not isinstance(other, QuotientElem):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "QuotientElem":
        return (-self) + other

    def __mul__(self, other) -> "QuotientElem":
        if isinstance(other, int):
            return QuotientElem._raw(
                tuple(x * other for x in self._residue), self._modulus
            )
        if not isinstance(other, QuotientElem):
            return NotImplemented
        self._check(other)
        d = self._modulus.degree
        prod = [0] * (2 * d - 1)
        for i, x in enumerate(self._residue):
            if x:
                for j, y in enumerate(other._residue):
                    if y:
                        prod[i + j] += x * y
        _divstep(prod, self._modulus.coeffs, d)
        return QuotientElem._raw(tuple(prod[:d]), self._modulus)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "QuotientElem":
        if not isinstance(n, int):
            raise ValueError("exponent must be int")
        base = self.inverse() if n < 0 else self
        n = abs(n)
        result = self._modulus.one()
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self) -> "QuotientElem":
        """Multiplicative inverse, if this residue is a unit of Z[a]/(m(a)).

        Runs the extended Euclidean algorithm over Q[a]; the element is a
        unit over Z exactly when the rational inverse has integer
        coefficients.  Raises ValueError otherwise.
        """
        # imported here: no series built by the verifiers needs a quotient
        # inverse, and fractions pulls in decimal at import time
        from fractions import Fraction

        mod = self._modulus

        def degree_of(v):
            for i in range(len(v) - 1, -1, -1):
                if v[i]:
                    return i
            return -1

        r0 = [Fraction(c) for c in self._residue]
        r1 = [Fraction(c) for c in mod.coeffs]
        s0, s1 = [Fraction(1)], [Fraction(0)]
        while degree_of(r1) >= 0:
            d0, d1 = degree_of(r0), degree_of(r1)
            if d0 < d1:
                r0, r1, s0, s1 = r1, r0, s1, s0
                continue
            # kill the leading term of r0 with r1
            factor = r0[d0] / r1[d1]
            shift = d0 - d1
            for i in range(d1 + 1):
                r0[i + shift] -= factor * r1[i]
            r0[d0] = Fraction(0)
            ls = len(s1) + shift
            s0.extend([Fraction(0)] * (ls - len(s0)))
            for i, c in enumerate(s1):
                s0[i + shift] -= factor * c
        g = degree_of(r0)
        if g != 0:
            raise ValueError(f"{self!r} is not a unit (shares a factor with the modulus)")
        inv = [c / r0[0] for c in s0]
        if any(c.denominator != 1 for c in inv):
            raise ValueError(f"{self!r} is not a unit over the integers")
        vec = [int(c) for c in inv]
        if len(vec) < mod.degree:
            vec.extend([0] * (mod.degree - len(vec)))
        else:
            _divstep(vec, mod.coeffs, mod.degree)
        return QuotientElem._raw(tuple(vec[: mod.degree]), mod)

    def __str__(self) -> str:
        pairs = [(e, c) for e, c in enumerate(self._residue) if c]
        return _format_terms(sorted(pairs, reverse=True))

    def __repr__(self) -> str:
        return f"QuotientElem({self}, mod {self._modulus})"
