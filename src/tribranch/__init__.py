"""Tribranched surfaces in open book decompositions of closed 3-manifolds.

The package builds tribranched surfaces (surfaces with circle-type triple
branching) inside open books, checks the local models, and emits
machine-checkable certificates for the four essentiality conditions, with
the fundamental group rank hypothesis certified through exact integer
homology.
"""

from .complexes import (
    HORIZONTAL_ANNULUS,
    MERGED_PIECE,
    NAIVE_PAGE,
    PANTS_PIECE,
    PRODUCT_BLOCK,
    PUSHOFF_ANNULUS,
    SOLID_TORUS,
    TORUS_ANNULUS,
    Block,
    Branch,
    BranchingCircle,
    TribranchedComplex,
    check_local_models,
    construct_naive,
    construct_outer,
    euler_audit,
)
from .errors import (
    ConstructionError,
    MonodromyError,
    MoveError,
    SchemaError,
    TribranchError,
)
from .essential import (
    ESSENTIAL,
    FAIL,
    NOT_CERTIFIED,
    PASS,
    STRUCTURAL_PASS,
    EssentialityReport,
    check_essential,
)
from .intalg import (
    AbelianGroup,
    IntMatrix,
    cokernel,
    invariant_factors,
    min_generators,
)
from .openbook import (
    CERTIFIED,
    UNCERTIFIED,
    CheckedSpec,
    MonodromyH1,
    OpenBookSpec,
    RankCertificate,
    h1_open_book,
    h1_rank,
    intersection_form,
    rank_certificate,
    stabilize,
    transvection,
    validate_monodromy,
    validate_spec,
)
from .paths import (
    A_MOVE,
    S_MOVE,
    PantsMove,
    PantsPath,
    apply_move,
    common_curves,
    enumerate_pairings,
    move_kind,
    replay,
    search_path,
    validate_path,
)
from .reports import Issue, ValidationReport
from .surfaces import (
    CurveId,
    Multicurve,
    PantsDecomposition,
    SurfaceSig,
    canonical_key,
    cut_structure,
    find_isomorphism,
    standard_decomposition,
    validate_pants,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
