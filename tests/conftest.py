import pytest

from qdissect import memo


@pytest.fixture(autouse=True)
def empty_memo(monkeypatch):
    """Every test starts with nothing held, so build counts and orders do
    not depend on which tests ran before."""
    monkeypatch.setattr(memo, "_held", {})
