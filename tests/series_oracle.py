"""Dense series arithmetic over any coefficient ring, for the tests' oracles.

A series here is a list c_0..c_N of coefficients of one ring: ``int``,
``LaurentPoly`` or ``QuotientElem``.  Every function that needs the ring's
zero or one takes it explicitly, so nothing is read off a coefficient.
The library multiplies and inverts integer series only, and its
right-hand sides are built that way; the oracles build theirs with these
functions instead, in the ring itself, so that no oracle shares series
arithmetic with what it checks.  Binary operations cut to the shorter
series.
"""


def mul(x, y, zero):
    """The product of two series, cut to the shorter."""
    n = min(len(x), len(y))
    out = [zero] * n
    for i in range(n):
        if x[i]:
            for j in range(n - i):
                if y[j]:
                    out[i + j] = out[i + j] + x[i] * y[j]
    return out


def inverse(x, zero, one):
    """The inverse of a series whose constant term is one or -one, by
    y_n = -y_0 * sum_{k=1..n} x_k y_{n-k}."""
    y0 = x[0]
    if not (y0 == one or y0 == -one):
        raise ValueError(f"constant term {y0} is not a unit")
    out = [y0]
    for n in range(1, len(x)):
        acc = zero
        for k in range(1, n + 1):
            acc = acc + x[k] * out[n - k]
        out.append(-(y0 * acc))
    return out


def add(x, y):
    """The sum of two series, cut to the shorter."""
    return [a + b for a, b in zip(x, y)]


def shift(x, k, zero):
    """The series times q^k: exact, so it grows by k coefficients."""
    return [zero] * k + list(x)


def lift(x, fn):
    """Every coefficient mapped by fn, e.g. into another ring."""
    return [fn(c) for c in x]


def product(z, exponents, length, zero, one):
    """prod (1 - z q^e) over the exponents, as a series of the given length."""
    out = [one] + [zero] * (length - 1)
    for e in exponents:
        if e < length:
            factor = [one] + [zero] * (length - 1)
            factor[e] = factor[e] - z
            out = mul(out, factor, zero)
    return out


def palindromic(poly):
    """Whether the coefficient of a^k equals that of a^-k for every k."""
    terms = poly.terms
    return terms == {-e: c for e, c in terms.items()}
