"""Exact b-chromatic numbers and witness b-colorings for graphs of girth >= 9.

For such graphs (every forest included) the b-chromatic number is m(G) or
m(G) - 1, and the two cases are separated by the existence of a good set:
with one, a b-coloring with m(G) colors is built constructively; without
one, the same construction builds one with m(G) - 1 colors from M(G) less
one vertex.  A brute-force oracle provides ground truth on small instances.

``__all__`` holds what the README's Library section calls, and the types a
caller builds or catches.  Every other name is imported from its module:
``run_pipeline`` and ``AnalysisRecord`` from ``bchrom.cli``, which this
package does not import.
"""

from .coloring import b_coloring_with_good_set
from .errors import InvariantViolation, OracleLimitError, ParseError, PreconditionError
from .goodset import GoodSet, density_profile, find_good_set
from .graph import ACYCLIC, Graph, girth, parse_dimacs, parse_edge_list
from .oracle import check_b_coloring, exact_b_chromatic

__version__ = "0.1.0"

__all__ = [
    "ACYCLIC",
    "GoodSet",
    "Graph",
    "InvariantViolation",
    "OracleLimitError",
    "ParseError",
    "PreconditionError",
    "b_coloring_with_good_set",
    "check_b_coloring",
    "density_profile",
    "exact_b_chromatic",
    "find_good_set",
    "girth",
    "parse_dimacs",
    "parse_edge_list",
]
