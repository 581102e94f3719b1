import pytest

from qdissect import memo, partitions, series
from qdissect.identities import (verify_crank_columns, verify_crank_gf, verify_rank_columns,
                                 verify_rank_gf)
from qdissect.partitions import (
    TABLE_CAP,
    Partition,
    build_stat_table,
    crank,
    crank_row,
    enumerate_partitions,
    partition_count,
    rank,
    rank_row,
    recurrence_rows,
    stat_table,
)
from qdissect.series import product_rows


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
    # the column form is symmetric by construction; the recurrences are not
    for kind in ("rank", "crank"):
        for rows in (build_stat_table(kind, 30).rows, recurrence_rows(kind, 30)):
            for n in range(31):
                row = rows[n]
                assert sum(row.values()) == partition_count(n)
                assert all(row.get(-m) == c for m, c in row.items())
                assert all(abs(m) <= n for m in row)


def test_count_mod():
    table = build_stat_table("crank", 4)
    assert [table.count_mod(5, 4)[k] for k in range(5)] == [1, 1, 1, 1, 1]
    rtable = build_stat_table("rank", 4)
    assert [rtable.count_mod(5, 4)[k] for k in range(5)] == [1, 1, 1, 1, 1]
    assert sum(table.count_mod(3, 4)[k] for k in range(3)) == partition_count(4)
    with pytest.raises(ValueError):
        table.count_mod(0, 4)
    with pytest.raises(ValueError):
        table.count_mod(5, 9)
    with pytest.raises(ValueError):
        table.row(99)


@pytest.mark.parametrize("kind", ("rank", "crank"))
def test_count_mod_folds_every_row(kind):
    # every fold of every row costs O(n^3) in all, so this stays at n = 60
    table = build_stat_table(kind, 60)
    for n in range(61):
        row = table.row(n)
        for t in range(1, 2 * n + 2):
            counts = table.count_mod(t, n)
            assert counts == tuple(sum(c for m, c in row.items() if m % t == k)
                                   for k in range(t))
            assert sum(counts) == partition_count(n)
    for t in (0, -1, -7):
        with pytest.raises(ValueError, match="modulus must be >= 1"):
            table.count_mod(t, 5)
    for n in (-1, 61):
        with pytest.raises(ValueError, match="outside table range"):
            table.count_mod(5, n)


# the three table routes and the name each gives its order
ROUTES = [(build_stat_table, "n_max"), (recurrence_rows, "n_max"), (product_rows, "order")]
ROUTE_IDS = ["table", "recurrence", "product"]


def test_build_validation():
    # the three routes refuse the same inputs
    for build, name in ROUTES:
        with pytest.raises(ValueError, match="^unknown statistic kind 'median'$"):
            build("median", 4)
        with pytest.raises(ValueError, match=f"^{name} must be >= 0$"):
            build("rank", -1)
        with pytest.raises(ValueError, match=f"{name} 301 exceeds the table cap 300"):
            build("crank", TABLE_CAP + 1)


@pytest.mark.parametrize("kind", ["crank", "rank"])
@pytest.mark.parametrize("build,name", ROUTES, ids=ROUTE_IDS)
def test_laurent_size_builds_refused_past_the_cap(monkeypatch, kind, build, name):
    # each kernel bounds its own work, whoever calls it, and a refused
    # request holds nothing
    def refuse(*args):
        raise AssertionError("work started before the refusal")

    for home, attr in ((partitions, "_columns"), (partitions, "_crank_rows"),
                       (partitions, "_rank_rows"), (series, "_packed_crank"),
                       (series, "_packed_rank"), (series, "_unpacked")):
        monkeypatch.setattr(home, attr, refuse)
    with pytest.raises(ValueError, match=f"^{name} {TABLE_CAP + 1} exceeds the table cap "
                                         f"{TABLE_CAP}$"):
        build(kind, TABLE_CAP + 1)
    with pytest.raises(ValueError, match=f"^{name} must be >= 0$"):
        build(kind, -1)
    with pytest.raises(ValueError, match="^unknown statistic kind 'median'$"):
        build("median", 4)
    assert memo._held == {}


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
    # both the recurrences and the column form
    for rank_rows, crank_rows in ((recurrence_rows("rank", 30), recurrence_rows("crank", 30)),
                                  (build_stat_table("rank", 30).rows,
                                   build_stat_table("crank", 30).rows)):
        for n in range(1, 31):
            assert rank_rows[n] == rank_row(n), n
        for n in range(2, 31):
            assert crank_rows[n] == crank_row(n), n


@pytest.mark.parametrize("kind", ["crank", "rank"])
def test_recurrence_rows_match_generating_functions_to_the_cap(monkeypatch, kind):
    # the three routes, row for row, with the conventions at n <= 1; the
    # recurrences read neither the column form, the products, p(n) nor the
    # enumeration
    rows = build_stat_table(kind, 60).rows
    assert product_rows(kind, 60) == rows

    def refuse(*args):
        raise AssertionError("the recurrence route shares code with another")

    for home, attr in ((partitions, "_columns"), (partitions, "partition_count"),
                       (partitions, "enumerate_partitions"), (series, "_unpacked")):
        monkeypatch.setattr(home, attr, refuse)
    assert tuple(recurrence_rows(kind, 60)) == rows


def test_crank_recurrence_past_the_cap():
    # the cap does not bound the sweep itself; its raw rows at n <= 1 differ
    # from the column form's by convention
    size = 801
    columns = partitions._columns("crank", 400, size)
    rows = partitions._crank_rows(400)
    for n in range(2, 401):
        assert rows[n] == {r if r <= 400 else r - size: column[n]
                           for r, column in enumerate(columns) if column[n]}, n


@pytest.mark.parametrize("kind,checks", [
    ("crank", (verify_crank_gf, verify_crank_columns)),
    ("rank", (verify_rank_gf, verify_rank_columns))])
def test_routes_agree_at_the_table_cap(kind, checks):
    for check in checks:
        assert check(TABLE_CAP).passed


@pytest.mark.parametrize("kind", ["crank", "rank"])
def test_build_lists_no_partition(monkeypatch, kind):
    def refuse(n):
        raise AssertionError("the table build must not enumerate")

    monkeypatch.setattr(partitions, "enumerate_partitions", refuse)
    table = build_stat_table(kind, TABLE_CAP)
    assert sum(table.row(TABLE_CAP).values()) == partition_count(TABLE_CAP)
