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
"""

from .surface import (
    CriticalType,
    FormatError,
    Surface,
    Target,
    critical_type_from_json,
    critical_type_to_json,
    euler_characteristic,
    flip_target_orientation,
    validate_critical_type,
)
from .krgraph import (
    KREdge,
    KRGraph,
    KRVertex,
    PieceClass,
    VertexKind,
    critical_type_of,
    cut_at_level,
    kr_isomorphic,
    regular_fiber_components,
    to_dot,
)
from .mesh import (
    HeightMesh,
    MeshFormatError,
    NotGenericError,
    NotMorseError,
    extract_kr_graph,
    format_hmesh,
    parse_hmesh,
    surface_of,
)
from .classify import (
    equivalence_reason,
    equivalent_up_to_flip,
    glued_type,
    is_minimal,
    is_realizable,
    minimal_fiber_count,
    sigma_homotopy_equivalent,
)
from .canonical import InfeasibleTypeError, canonical_kr_graph
from .symplectic import (
    GenPower,
    SpMatrix,
    evaluate,
    format_matrix,
    format_word,
    gen,
    general_sp_factor,
    named_generator,
    omega_matrix,
    omega_product,
    parse_matrix,
    parse_word,
    stabilizer_decompose,
    symplectic_completion,
    transvection,
    word_inverse,
)
from .mcg import (
    Admissible,
    GeneratorKind,
    MCGGenerator,
    canonical_generator_set,
    degree_along,
    factor_stabilizer,
    level_set_class,
    twist_action,
    twist_admissible,
)

__version__ = "0.1.0"
