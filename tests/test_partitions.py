import pytest

from qdissect import memo, partitions
from qdissect.partitions import (
    ENUMERATION_CAP,
    Partition,
    build_stat_table,
    crank,
    crank_row,
    enumerate_partitions,
    partition_count,
    rank,
    rank_row,
    stat_table,
)
from qdissect.ring import LaurentPoly
from qdissect.series import crank_gf, rank_gf


# independent oracle: count partitions of n with parts <= m, bare recursion
def count_by_recursion(n, m=None):
    if m is None:
        m = n
    if n == 0:
        return 1
    return sum(count_by_recursion(n - k, k) for k in range(1, min(n, m) + 1))


def test_partition_validation():
    assert Partition((3, 1, 1)).weight == 5
    assert len(Partition((3, 1, 1))) == 3
    assert str(Partition((3, 1))) == "{3,1}"
    with pytest.raises(ValueError):
        Partition((1, 2))        # increasing
    with pytest.raises(ValueError):
        Partition((2, 0))        # nonpositive part


def test_enumeration_order_and_content():
    assert list(enumerate_partitions(0)) == [Partition(())]
    parts4 = [p.parts for p in enumerate_partitions(4)]
    assert parts4 == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert sum(1 for _ in enumerate_partitions(9)) == 30
    with pytest.raises(ValueError):
        list(enumerate_partitions(-1))


def test_enumeration_counts_match_recurrence():
    for n in range(21):
        assert sum(1 for _ in enumerate_partitions(n)) == partition_count(n)


def test_partition_count_values():
    assert partition_count(0) == 1
    assert partition_count(4) == 5
    assert partition_count(19) == 490
    assert partition_count(19) % 5 == 0
    for n in (7, 13, 18):
        assert partition_count(n) == count_by_recursion(n)
    with pytest.raises(ValueError):
        partition_count(-3)


def test_rank_examples():
    assert rank(Partition((3, 1))) == 1
    assert rank(Partition((1,))) == 0
    assert sorted(rank(p) for p in enumerate_partitions(4)) == [-3, -1, 0, 1, 3]
    with pytest.raises(ValueError):
        rank(Partition(()))


def test_crank_examples():
    assert crank(Partition((1,))) == -1
    assert crank(Partition((4,))) == 4
    cranks = sorted(crank(p) for p in enumerate_partitions(4))
    assert cranks == [-4, -2, 0, 2, 4]
    assert sorted(c % 5 for c in cranks) == [0, 1, 2, 3, 4]
    assert crank(Partition((3, 2, 1, 1))) == -1     # ones=2, one part exceeds 2
    with pytest.raises(ValueError):
        crank(Partition(()))


def test_crank_with_many_ones():
    # ones=3, parts exceeding 3: just the 5 -> crank = 1 - 3 = -2
    assert crank(Partition((5, 3, 1, 1, 1))) == -2


def test_raw_rows():
    assert rank_row(4) == {3: 1, 1: 1, 0: 1, -1: 1, -3: 1}
    assert crank_row(1) == {-1: 1}          # raw combinatorial row
    assert crank_row(2) == {2: 1, -2: 1}


def test_stat_table_convention_rows():
    table = build_stat_table("crank", 2)
    assert table.row(0) == {0: 1}
    assert table.row(1) == {-1: 1, 0: -1, 1: 1}
    assert table.row(2) == {-2: 1, 2: 1}
    rtable = build_stat_table("rank", 4)
    assert rtable.row(0) == {0: 1}
    assert rtable.row(1) == {0: 1}
    assert rtable.row(4) == {-3: 1, -1: 1, 0: 1, 1: 1, 3: 1}


def test_stat_table_row_sums_and_symmetry():
    for kind in ("rank", "crank"):
        table = build_stat_table(kind, 30)
        for n in range(31):
            row = table.row(n)
            assert sum(row.values()) == partition_count(n)
            assert all(row.get(-m) == c for m, c in row.items())
            assert all(abs(m) <= n for m in row)


def test_count_mod():
    table = build_stat_table("crank", 4)
    assert [table.count_mod(k, 5, 4) for k in range(5)] == [1, 1, 1, 1, 1]
    rtable = build_stat_table("rank", 4)
    assert [rtable.count_mod(k, 5, 4) for k in range(5)] == [1, 1, 1, 1, 1]
    assert sum(table.count_mod(k, 3, 4) for k in range(3)) == partition_count(4)
    with pytest.raises(ValueError):
        table.count_mod(5, 5, 4)
    with pytest.raises(ValueError):
        table.count_mod(-1, 5, 4)
    with pytest.raises(ValueError):
        table.count_mod(0, 5, 9)
    with pytest.raises(ValueError):
        table.row(99)


def test_build_validation():
    with pytest.raises(ValueError):
        build_stat_table("median", 4)
    with pytest.raises(ValueError):
        build_stat_table("rank", -1)
    with pytest.raises(ValueError, match="enumeration cap"):
        build_stat_table("crank", ENUMERATION_CAP + 1)


def test_negative_order_refused_on_a_warm_memo(monkeypatch):
    assert stat_table("crank", 10).n_max == 10

    def refuse(kind, n_max):
        raise AssertionError("refused requests must not build")

    monkeypatch.setattr(partitions, "build_stat_table", refuse)
    with pytest.raises(ValueError):
        stat_table("crank", -5)
    with pytest.raises(ValueError):
        memo.largest(("table", "crank"), -1, lambda n: refuse("crank", n))


def test_row_is_a_copy():
    table = build_stat_table("crank", 6)
    row = table.row(5)
    row[0] = row.get(0, 0) + 1
    row[99] = 1
    assert table.row(5) == crank_row(5)


def test_recurrence_rows_match_enumeration():
    rank_table = build_stat_table("rank", 30)
    crank_table = build_stat_table("crank", 30)
    for n in range(1, 31):
        assert rank_table.row(n) == rank_row(n), n
    for n in range(2, 31):
        assert crank_table.row(n) == crank_row(n), n


@pytest.mark.parametrize("kind,build", [("crank", crank_gf), ("rank", rank_gf)])
def test_recurrence_rows_match_generating_functions_to_the_cap(kind, build):
    table = build_stat_table(kind, ENUMERATION_CAP)
    series = build(ENUMERATION_CAP)
    for n in range(ENUMERATION_CAP + 1):
        assert LaurentPoly(table.row(n)) == series.coefficient(n), n


@pytest.mark.parametrize("kind", ["crank", "rank"])
def test_build_lists_no_partition(monkeypatch, kind):
    def refuse(n):
        raise AssertionError("the table build must not enumerate")

    monkeypatch.setattr(partitions, "enumerate_partitions", refuse)
    table = build_stat_table(kind, ENUMERATION_CAP)
    assert sum(table.row(ENUMERATION_CAP).values()) == partition_count(ENUMERATION_CAP)
