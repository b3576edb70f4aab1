"""Exact-arithmetic toolkit for multidegrees of tame automorphisms of 3-space.

The library decides when a sorted degree triple is realizable as the
multidegree of a tame automorphism, constructs and verifies witness
words, computes Poisson brackets for algebraic-dependence tests, and
searches for elementary reductions of explicit polynomial maps.
"""

from .polynomials import NEG_INFINITY, Polynomial, divide_homogeneous, variables
from .parsing import (ParseError, format_bracket, format_map_file, format_polynomial, format_word_file,
                      parse_map_file, parse_polynomial, parse_word_file)
from .poisson import (
    BracketValue,
    PairCheck,
    SuReport,
    algebraically_dependent,
    is_star_reduced,
    is_weak_pair,
    poisson_bracket,
    su_bound,
)
from .semigroup import frobenius, membership
from .automorphisms import (
    ElementaryStep,
    PermutationStep,
    PolyMap,
    build_example_map,
    compose_word,
    example_word,
    invert_word,
    mdeg,
    witness_equal_pair,
    witness_linear_first,
    witness_semigroup,
)
from .reduction import ReductionResult, find_any_reduction, find_elementary_reduction
from .decision import Decision, decide, normalize_triple, scan, scan_rows
from .verify import Check, ExampleReport, verify_example

__all__ = [
    "NEG_INFINITY",
    "Polynomial",
    "divide_homogeneous",
    "variables",
    "ParseError",
    "format_bracket",
    "format_map_file",
    "format_polynomial",
    "format_word_file",
    "parse_map_file",
    "parse_polynomial",
    "parse_word_file",
    "BracketValue",
    "PairCheck",
    "SuReport",
    "algebraically_dependent",
    "is_star_reduced",
    "is_weak_pair",
    "poisson_bracket",
    "su_bound",
    "frobenius",
    "membership",
    "ElementaryStep",
    "PermutationStep",
    "PolyMap",
    "build_example_map",
    "compose_word",
    "example_word",
    "invert_word",
    "mdeg",
    "witness_equal_pair",
    "witness_linear_first",
    "witness_semigroup",
    "ReductionResult",
    "find_any_reduction",
    "find_elementary_reduction",
    "Decision",
    "decide",
    "normalize_triple",
    "scan",
    "scan_rows",
    "Check",
    "ExampleReport",
    "verify_example",
    "__version__",
]

__version__ = "0.1.0"
