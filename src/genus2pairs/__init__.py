"""Disjoint curve pairs on the boundary of a genus-2 handlebody.

Words in the rank-2 free group, primitivity and basis recognition,
canonical curve-pair diagrams with their traced words, four-vertex
intersection graphs, and the classification of disjoint primitive and
proper-power pairs.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# The public names of each module.  A module is imported on the first
# access to one of its names (PEP 562), so importing one submodule,
# such as the command line, does not import the others.
_EXPORTS = {
    "automorphisms": ("Automorphism", "compose", "nielsen_generators"),
    "classifier": (
        "PairClass", "PowerPairOutcome", "ProductStructure", "classify",
        "classify_power_pair", "longitude_pair", "separating_word",
    ),
    "errors": (
        "BetaNotProperPowerError", "BudgetExceededError", "DomainError",
        "EmptyWordError", "InvalidParamsError", "InvalidWordError",
        "NotInvertibleError", "ParityViolationError", "SingleGeneratorError",
        "UnknownCurveError", "UnlabeledBandError",
    ),
    "heegaard": (
        "HGraph", "cut_vertices", "is_connected", "matches_fig5c",
        "minimality_witness",
    ),
    "oracle": ("brute_is_basis", "enumerate_primitives"),
    "primitivity": (
        "PrimitiveForm", "as_proper_power", "is_basis_pair", "is_primitive",
        "primitive_form",
    ),
    "rr_diagram": (
        "Arc", "ArcStep", "Band", "CanonicalParams", "Endpoint", "HandleLabel",
        "RRDiagram", "TraverseStep", "Violation", "alpha_word_fig3a",
        "build_canonical", "diagram_from_json", "diagram_to_json",
        "trace_word", "validate",
    ),
    "words": (
        "CyclicWord", "Syllable", "Word", "cyclic_equal", "cyclic_reduce",
        "parse_letters", "substitute",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
