"""Surfaces, pants decompositions, and cutting.

A compact oriented surface is recorded by (genus, boundary circles); a pants
decomposition is a decorated trivalent graph: one vertex per pair of pants,
one edge per decomposition curve (self-loops allowed), and one labelled leg
per boundary circle of the surface.
"""

from tribranch import (
    PantsDecomposition,
    SurfaceSig,
    canonical_key,
    cut_structure,
    find_isomorphism,
    standard_decomposition,
    validate_pants,
)


def pieces(pd, removed):
    """The pieces of ``pd`` cut along every curve except those in ``removed``."""
    return [str(piece.sig) for piece in cut_structure(pd, set(pd.edges) - removed)]


print("=" * 70)
print("Surface signatures")
print("=" * 70)
for g, b in [(0, 3), (1, 0), (2, 1), (0, 5)]:
    sig = SurfaceSig(g, b)
    print(f"  {sig}: euler characteristic {sig.euler_char}")

print()
print("=" * 70)
print("A pants decomposition of the five-holed sphere")
print("=" * 70)
sig = SurfaceSig(0, 5)
pd = standard_decomposition(sig)
print("  pants:", sorted(pd.pants))
print("  curves:", {c: pd.edges[c] for c in sorted(pd.edges)})
print("  legs:", pd.legs)
report = validate_pants(sig, pd)
print("  validation:", report.summary())
print(f"  counting: 3V = {3 * pd.n_pants}, 2E + L = {2 * pd.n_curves + pd.n_legs}")

print()
print("=" * 70)
print("Cutting: removing curves from the cut system glues pants together")
print("=" * 70)
print("  remove nothing   ->", pieces(pd, set()))
print("  remove {c1}      ->", pieces(pd, {"c1"}))
print("  remove all       ->", pieces(pd, set(pd.edges)))

print()
print("The one-holed torus has a self-loop decomposition; gluing the pants")
print("to itself along the loop recovers the whole surface:")
sig11 = SurfaceSig(1, 1)
pd11 = standard_decomposition(sig11)
print("  decomposition:", pd11.edges)
print("  remove the loop ->", pieces(pd11, {"c1"}))

print()
print("=" * 70)
print("Isomorphism of decorated graphs ignores ids but respects leg labels")
print("=" * 70)
relabeled = PantsDecomposition.build(
    ["Q2", "Q0", "Q1"],
    {"x": (("Q2", 3), ("Q0", 2)), "y": (("Q0", 3), ("Q1", 1))},
    {1: ("Q2", 1), 2: ("Q2", 2), 3: ("Q0", 1), 4: ("Q1", 2), 5: ("Q1", 3)},
)
print("  relabeled copy isomorphic:", find_isomorphism(pd, relabeled) is not None)
regrouped = PantsDecomposition.build(
    ["P0", "P1", "P2"],
    {"c1": (("P0", 1), ("P1", 1)), "c2": (("P1", 2), ("P2", 1))},
    {1: ("P0", 2), 3: ("P0", 3), 2: ("P1", 3), 4: ("P2", 2), 5: ("P2", 3)},
)
print("  different leg grouping isomorphic:", find_isomorphism(pd, regrouped) is not None)
print("  canonical keys equal:", canonical_key(pd) == canonical_key(regrouped))
