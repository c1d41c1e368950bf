"""Exact b-chromatic numbers and witness b-colorings for graphs of girth >= 9.

For such graphs (every forest included) the b-chromatic number is m(G) or
m(G) - 1, and the two cases are separated by the existence of a good set:
with one, a b-coloring with m(G) colors is built constructively; without
one, the same construction builds one with m(G) - 1 colors from M(G) less
one vertex.  A brute-force oracle provides ground truth on small instances.
"""

from .coloring import BResult, TraceEvent, b_coloring_with_good_set
from .errors import InvariantViolation, OracleLimitError, ParseError, PreconditionError
from .goodset import DensityProfile, GoodSet, GoodSetViolation, check_good_set, density_profile, find_good_set
from .graph import (
    ACYCLIC,
    Graph,
    generate_girth_constrained,
    girth,
    parse_dimacs,
    parse_edge_list,
    to_edge_list,
)
from .oracle import (
    DEFAULT_ORACLE_LIMIT,
    ValidityReport,
    Violation,
    check_b_coloring,
    exact_b_chromatic,
    find_b_coloring_exact,
)
from .cli import AnalysisRecord, run_pipeline

__version__ = "0.1.0"

__all__ = [
    "ACYCLIC",
    "AnalysisRecord",
    "BResult",
    "DEFAULT_ORACLE_LIMIT",
    "DensityProfile",
    "GoodSet",
    "GoodSetViolation",
    "Graph",
    "InvariantViolation",
    "OracleLimitError",
    "ParseError",
    "PreconditionError",
    "TraceEvent",
    "ValidityReport",
    "Violation",
    "b_coloring_with_good_set",
    "check_b_coloring",
    "check_good_set",
    "density_profile",
    "exact_b_chromatic",
    "find_b_coloring_exact",
    "find_good_set",
    "generate_girth_constrained",
    "girth",
    "parse_dimacs",
    "parse_edge_list",
    "run_pipeline",
    "to_edge_list",
]
