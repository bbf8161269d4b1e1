"""Combinatorial triangle detection and Boolean matrix multiplication.

Everything is built on bit-packed adjacency matrices: a lookup-table
detector for degree-bounded instances, a recursive divide-and-conquer
detector around it, a generic driver for pluggable easy-part finders, and
a blockwise reduction computing Boolean products by witness deletion.
Brute-force oracles ship alongside for cross-validation.
"""

from .bitmat import (
    BitMatrix,
    format_matrix_text,
    identity,
    multiply_bitpacked,
    parse_matrix_text,
    rows_intersect,
)
from .detector import ChargeLedger, DetectorConfig, detect, exhaustive_search, step4_scan
from .errors import (
    FinderContractError,
    FormatError,
    InvariantError,
    TableBudgetError,
    TrimatError,
)
from .four_russians import (
    PairTable,
    build_pair_table,
    check_degree_condition,
    sparse_detect,
)
from .framework import (
    FinderResult,
    FrameworkConfig,
    detect_with_finder,
    high_degree_finder,
)
from .graph import (
    RunStats,
    SubInstance,
    TripartiteGraph,
    Verdict,
    degree,
    from_edge_list,
    from_general_graph,
    format_graph_text,
    neighborhood,
    parse_graph_text,
)
from .oracle import brute_triangle, multiply_scalar_oracle
from .randgen import CounterRng, random_bitmatrix, random_tripartite
from .reduction import bmm_via_triangle, default_block_side, triangle_via_bmm

__version__ = "0.1.0"

__all__ = [
    "BitMatrix",
    "ChargeLedger",
    "CounterRng",
    "DetectorConfig",
    "FinderContractError",
    "FinderResult",
    "FormatError",
    "FrameworkConfig",
    "InvariantError",
    "PairTable",
    "RunStats",
    "SubInstance",
    "TableBudgetError",
    "TripartiteGraph",
    "TrimatError",
    "Verdict",
    "bmm_via_triangle",
    "brute_triangle",
    "build_pair_table",
    "check_degree_condition",
    "default_block_side",
    "degree",
    "detect",
    "detect_with_finder",
    "exhaustive_search",
    "format_graph_text",
    "format_matrix_text",
    "from_edge_list",
    "from_general_graph",
    "high_degree_finder",
    "identity",
    "multiply_bitpacked",
    "multiply_scalar_oracle",
    "neighborhood",
    "parse_graph_text",
    "parse_matrix_text",
    "random_bitmatrix",
    "random_tripartite",
    "rows_intersect",
    "sparse_detect",
    "step4_scan",
    "triangle_via_bmm",
]
