"""qdissect: exact q-series arithmetic for partition statistics.

Expands the crank and rank generating functions over Laurent polynomials
and cyclotomic quotient rings, counts partitions by statistic by three
routes (column form, product formula, integer recurrences), and
mechanically verifies the classical congruences, equidistribution
theorems and 2-/3-/5-dissections, all in arbitrary-precision integer
arithmetic with no floats anywhere.
"""

from .identities import (
    FailureWitness,
    VerificationReport,
    crank_coefficients,
    verify_2_dissection,
    verify_3_dissection,
    verify_5_dissection,
    verify_component_4_vanishing,
    verify_congruence,
    verify_crank_columns,
    verify_crank_gf,
    verify_equidistribution,
    verify_rank_columns,
    verify_rank_gf,
)
from .partitions import (
    ORDER_CAP,
    TABLE_CAP,
    Partition,
    StatTable,
    build_stat_table,
    crank,
    crank_row,
    enumerate_partitions,
    partition_count,
    rank,
    rank_row,
)
from .ring import PHI5, PHI8, PHI9, LaurentPoly, Modulus, QuotientElem
from .series import (
    TruncatedSeries,
    crank_coordinates,
    crank_gf,
    euler_product,
    partition_gf,
    pochhammer_fin,
    pochhammer_inf,
    rank_gf,
    theta,
)

__version__ = "0.1.0"

__all__ = [
    "LaurentPoly", "Modulus", "QuotientElem", "PHI5", "PHI8", "PHI9",
    "TruncatedSeries", "euler_product", "pochhammer_inf", "pochhammer_fin",
    "theta", "partition_gf", "crank_gf", "crank_coordinates", "rank_gf",
    "Partition", "StatTable", "enumerate_partitions", "partition_count",
    "rank", "crank", "rank_row", "crank_row", "build_stat_table",
    "TABLE_CAP", "ORDER_CAP",
    "VerificationReport", "FailureWitness",
    "verify_crank_gf", "verify_rank_gf", "verify_crank_columns", "verify_rank_columns",
    "verify_congruence",
    "verify_equidistribution", "verify_2_dissection", "verify_3_dissection",
    "verify_5_dissection", "verify_component_4_vanishing",
    "crank_coefficients",
    "__version__",
]
