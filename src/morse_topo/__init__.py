"""Critical-type invariants of Morse mappings on compact surfaces.

The package computes the complete path-component invariant of a Morse
mapping (homotopy vector, critical counts, boundary signs) from
triangulated input, builds and compares Kronrod-Reeb graphs and their
normal forms, and carries the exact integer symplectic machinery used to
factor homology actions that fix a fiber class.  Text that does not parse
raises ``FormatError``, a ``ValueError``.  The library never logs and
does not import ``logging``; only ``cli.main`` logs, an internal error, to
the ``morse_topo`` logger, which it gives a ``NullHandler`` when the logger
has no handler, so that nothing prints unless the application configures
logging.

``import morse_topo`` loads no submodule.  Each name of ``__all__``, and
each submodule, loads its defining module on first access, so a caller
pays only for the modules it uses.
"""

from importlib import import_module as _import_module

# each submodule and the names the package exports from it
_EXPORTS = {
    "surface": (
        "CriticalType",
        "FormatError",
        "Surface",
        "Target",
        "critical_type_from_json",
        "critical_type_to_json",
        "euler_characteristic",
        "flip_target_orientation",
        "validate_critical_type",
    ),
    "krgraph": (
        "KREdge",
        "KRGraph",
        "KRVertex",
        "PieceClass",
        "VertexKind",
        "critical_type_of",
        "cut_at_level",
        "kr_isomorphic",
        "regular_fiber_components",
        "to_dot",
    ),
    "mesh": (
        "HeightMesh",
        "MeshFormatError",
        "NotGenericError",
        "NotMorseError",
        "extract_kr_graph",
        "format_hmesh",
        "parse_hmesh",
        "surface_of",
    ),
    "classify": (
        "equivalence_reason",
        "equivalent_up_to_flip",
        "glued_type",
        "is_minimal",
        "is_realizable",
        "minimal_fiber_count",
        "sigma_homotopy_equivalent",
    ),
    "canonical": ("InfeasibleTypeError", "canonical_kr_graph"),
    "symplectic": (
        "GenPower",
        "SpMatrix",
        "evaluate",
        "format_matrix",
        "format_word",
        "gen",
        "general_sp_factor",
        "named_generator",
        "omega_matrix",
        "omega_product",
        "parse_matrix",
        "parse_word",
        "stabilizer_decompose",
        "symplectic_completion",
        "transvection",
        "word_inverse",
    ),
    "mcg": (
        "Admissible",
        "GeneratorKind",
        "MCGGenerator",
        "canonical_generator_set",
        "degree_along",
        "factor_stabilizer",
        "level_set_class",
        "twist_action",
        "twist_admissible",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    """Load a submodule, or the module that defines an exported name, on
    first access; the name is then a package global and this is not
    called for it again."""
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
