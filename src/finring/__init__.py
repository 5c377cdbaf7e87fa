"""finring: exact computation with small finite unital rings."""

from .construct import (
    block_triangular,
    cyclic,
    cyclic_group,
    from_structure_constants,
    galois,
    group_algebra,
    matrix_ring,
    nonabelian_reflexive_64,
    quaternion_group,
    skew_quotient_f4,
    upper_triangular,
)
from .corpus import CorpusEntry, VerificationReport, corpus, verify_corpus
from .enumeration import Census, enumerate_unital, taxonomy_census
from .errors import (
    AxiomViolationError,
    ExpressionError,
    FinringError,
    InternalCheckError,
    NotAnIdealError,
    PresentationError,
    RingFormatError,
    TableStructureError,
)
from .expr import parse_ring_expr
from .iso import IsoResult, element_invariants, fingerprint, is_isomorphic
from .peirce import Decomposition, decomposition_report, peirce
from .presentation import (
    Presentation,
    build_from_text,
    build_ring,
    parse_presentation,
    presentation_build,
)
from .properties import (
    PropertyProfile,
    is_abelian,
    is_commutative,
    is_duo,
    is_left_duo,
    is_local,
    is_ni,
    is_ps_i,
    is_reduced,
    is_reflexive,
    is_reversible,
    is_right_duo,
    is_semicommutative,
    is_symmetric,
    is_two_primal,
    jacobson_radical,
    lower_nilradical,
    nilpotent_set,
    profile,
    upper_nilradical,
)
from .ringio import dumps_ring, export_ring, import_ring, loads_ring
from .table import (
    AxiomReport,
    ElementSet,
    RingTable,
    additive_type,
    central_idempotents,
    checked,
    direct_sum,
    ideal_generated,
    idempotents,
    opposite,
    quotient,
    right_annihilator,
    units,
    verify_axioms,
)

__version__ = "0.1.0"
