"""Tribranched surfaces in open book decompositions of closed 3-manifolds.

The package builds tribranched surfaces (surfaces with circle-type triple
branching) inside open books, checks the local models, and emits
machine-checkable certificates for the four essentiality conditions, with
the fundamental group rank hypothesis certified through exact integer
homology.

Exports resolve on first use (PEP 562): ``import tribranch`` loads no
submodule, and ``tribranch.construct_outer`` imports ``tribranch.complexes``
the first time it is read.  Each access returns the submodule's current
attribute; nothing is copied into the package's namespace, so rebinding a
name in its submodule rebinds it here too.
"""

import importlib

# Each export and the submodule it comes from; a submodule's own name maps to
# itself and resolves to the submodule.
_SOURCE = {
    **dict.fromkeys((
        "complexes", "HORIZONTAL_ANNULUS", "MERGED_PIECE", "NAIVE_PAGE",
        "PANTS_PIECE", "PRODUCT_BLOCK", "PUSHOFF_ANNULUS", "SOLID_TORUS",
        "TORUS_ANNULUS", "Block", "Branch", "BranchingCircle",
        "TribranchedComplex", "check_local_models", "construct_naive",
        "construct_outer", "euler_audit",
    ), "complexes"),
    **dict.fromkeys((
        "errors", "ConstructionError", "MonodromyError", "MoveError",
        "SchemaError", "TribranchError",
    ), "errors"),
    **dict.fromkeys((
        "essential", "ESSENTIAL", "FAIL", "NOT_CERTIFIED", "PASS",
        "STRUCTURAL_PASS", "EssentialityReport", "check_essential",
    ), "essential"),
    **dict.fromkeys((
        "intalg", "AbelianGroup", "IntMatrix", "cokernel", "invariant_factors",
        "min_generators",
    ), "intalg"),
    **dict.fromkeys((
        "openbook", "CERTIFIED", "UNCERTIFIED", "CheckedSpec", "MonodromyH1",
        "OpenBookSpec", "RankCertificate", "h1_open_book", "h1_rank",
        "rank_certificate", "validate_monodromy", "validate_spec",
    ), "openbook"),
    **dict.fromkeys((
        "paths", "A_MOVE", "S_MOVE", "PantsMove", "PantsPath", "apply_move",
        "common_curves", "enumerate_pairings", "move_kind", "replay",
        "validate_path",
    ), "paths"),
    **dict.fromkeys(("reports", "Issue", "ValidationReport"), "reports"),
    **dict.fromkeys((
        "surfaces", "PantsDecomposition", "SurfaceSig", "cut_structure",
        "validate_pants",
    ), "surfaces"),
    **dict.fromkeys(("canonical_key", "find_isomorphism", "search_path"), "search"),
    **dict.fromkeys((
        "intersection_form", "stabilize", "standard_decomposition", "transvection",
    ), "builders"),
}

__version__ = "0.1.0"

__all__ = sorted(_SOURCE)


def _resolver(owner: str, source: dict):
    """A module ``__getattr__`` for module ``owner`` that reads each name of
    ``source`` from the submodule it maps to, on every access."""
    def __getattr__(name):
        try:
            sub = source[name]
        except KeyError:
            raise AttributeError(f"module {owner!r} has no attribute {name!r}") from None
        module = importlib.import_module(f"{__name__}.{sub}")
        return module if name == sub else getattr(module, name)

    return __getattr__


__getattr__ = _resolver(__name__, _SOURCE)


def __dir__():
    return sorted({*globals(), *__all__})
