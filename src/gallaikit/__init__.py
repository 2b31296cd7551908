"""Toolkit for rainbow-triangle-free edge colorings of complete graphs.

Materializes Gallai-Ramsey lower-bound colorings, verifies what a
coloring avoids, extracts Gallai partitions, evaluates the closed-form
numbers the constructions realize, and certifies small Ramsey anchors by
exhaustive search or DIMACS CNF export.

The public names are resolved on first use (PEP 562), so importing the
package, or one of its modules, loads only the modules actually used.
"""

from importlib import import_module

__version__ = "0.1.0"

# the public names, by the module that defines them
_EXPORTS = {
    "cnf": (
        "CnfDocument", "CnfError", "NotExactlyOneError", "assignment_satisfies",
        "decode_assignment", "encode_cnf", "parse_dimacs", "parse_model",
    ),
    "coloring": (
        "ColoringError", "EdgeColoring", "blowup", "edge_count", "edge_index",
        "edge_list", "join", "make_coloring", "parse", "read_grc", "relabel_colors",
        "serialize", "write_grc",
    ),
    "construct": (
        "CertificationError", "ConstructionError", "EqualColorsError",
        "NoFixtureAndSearchFailedError", "ParityViolationError", "base_pentagon",
        "build_kipas_aux", "build_lower", "build_mixed", "extremal_two_coloring",
        "mono_complete",
    ),
    "decompose": (
        "DecompositionError", "GallaiPartition", "InvalidPartitionError",
        "RainbowTriangleError", "TooSmallError", "find_rainbow_triangle",
        "gallai_partition", "reduced_coloring",
    ),
    "detect": (
        "AvoidanceSpec", "CheckStats", "Embedding", "VerificationReport",
        "are_isomorphic", "find_mono_embedding", "verify",
    ),
    "formulas": (
        "FormulaError", "GrValue", "MissingR2Error", "RangeViolationError",
        "UnsupportedTargetError",
        "case3_recurrence_check", "check_inequalities_star", "check_inequalities_star2",
        "conjecture_kipas", "fan_param", "g_value", "gr_mixed_value", "gr_value",
        "ramsey_mixed", "ramsey_two", "w_value",
    ),
    "patterns": (
        "ParameterRangeError", "Pattern", "PatternError", "TooLargeError",
        "UnknownPatternError", "canonical_id", "catalog", "chromatic_number",
        "make_pattern", "resolve",
    ),
    "search": (
        "ScopeExceededError", "SearchError", "SearchOutcome", "SearchProblem",
        "exhaustive_check",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
