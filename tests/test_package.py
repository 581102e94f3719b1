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
