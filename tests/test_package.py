import qdissect
from qdissect import ring, series


def test_every_exported_name_resolves():
    assert len(set(qdissect.__all__)) == len(qdissect.__all__)
    for name in qdissect.__all__:
        assert hasattr(qdissect, name), name


def test_the_coefficient_ring_handles_are_gone():
    # a series coefficient carries its own ring; there is no handle to pass
    for name in ("CoefficientRing", "INTEGER_RING", "LAURENT_RING", "quotient_ring"):
        assert name not in qdissect.__all__
        assert not hasattr(qdissect, name) and not hasattr(ring, name)
    assert not hasattr(ring.Modulus, "from_laurent")
    assert not hasattr(series.TruncatedSeries, "ring")
    assert "crank_coordinates" in qdissect.__all__


def test_the_series_helpers_only_the_tests_called_are_gone():
    # a coefficient is read as series.coefficients[n] or poly.terms.get(e, 0),
    # and components are interleaved back by hand
    assert "reassemble" not in qdissect.__all__
    assert not hasattr(qdissect, "reassemble") and not hasattr(series, "reassemble")
    for cls, name in ((series.TruncatedSeries, "substitute_power"),
                      (series.TruncatedSeries, "coefficient"),
                      (ring.LaurentPoly, "coefficient")):
        assert not hasattr(cls, name), f"{cls.__name__}.{name}"
    # a -> a^k on Laurent polynomials stays: it maps a dissection's root
    assert hasattr(ring.LaurentPoly, "substitute_power")
