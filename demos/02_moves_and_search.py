"""Elementary moves on pants decompositions, closed-up paths, and search.

Consecutive decompositions of a path share all curves except one.  An A-move
re-pairs the four cuffs of a four-holed sphere support; an S-move replaces
the curve in a one-holed torus support.  A closed-up path ends on a
relabeling of its start system: the combinatorial stand-in for carrying the
system around the monodromy.
"""

from tribranch import (
    A_MOVE,
    MoveError,
    PantsDecomposition,
    PantsMove,
    PantsPath,
    SurfaceSig,
    apply_move,
    common_curves,
    enumerate_pairings,
    replay,
    search_path,
    standard_decomposition,
    validate_path,
)

print("=" * 70)
print("An A-move on the five-holed sphere")
print("=" * 70)
sig = SurfaceSig(0, 5)
pd = standard_decomposition(sig)
print("  before:", {c: pd.edges[c] for c in sorted(pd.edges)})
print("  re-pairings of the support of c1:")
for i, pairing in enumerate(enumerate_pairings(pd, "c1")):
    print(f"    [{i}] {pairing}")
mv = PantsMove("c1", "c9", A_MOVE, enumerate_pairings(pd, "c1")[1])
out = apply_move(pd, mv)
print("  after removing c1, adding c9 with re-pairing [1]:")
print("   ", {c: out.edges[c] for c in sorted(out.edges)})
print("  shared curves:", sorted(common_curves(pd, out)))

print()
print("Illegal re-pairings are rejected; a three-and-one split can even")
print("disconnect the graph by isolating a pants:")
pd12 = PantsDecomposition.build(
    ["P0", "P1"],
    {"c1": (("P0", 1), ("P0", 2)), "c2": (("P0", 3), ("P1", 1))},
    {1: ("P1", 2), 2: ("P1", 3)},
)
bad = ((("P0", 1), ("P0", 2), ("P1", 2)), (("P1", 3),))
try:
    apply_move(pd12, PantsMove("c2", "z", A_MOVE, bad))
except MoveError as err:
    print("  ->", err)

print()
print("=" * 70)
print("Validating a closed-up path")
print("=" * 70)
trivial = PantsPath(start=pd, moves=[], closure={c: c for c in pd.edges})
print("  trivial path, identity closure:",
      validate_path(trivial).summary())
broken = PantsPath(start=pd, moves=[PantsMove("c1", "x", A_MOVE),
                                    PantsMove("c1", "y", A_MOVE)], closure={})
report = validate_path(broken)
print("  replaying a move on a missing curve:", report.summary())

print()
print("=" * 70)
print("Breadth-first search between leg groupings")
print("=" * 70)
target = PantsDecomposition.build(
    ["P0", "P1", "P2"],
    {"c1": (("P0", 1), ("P1", 1)), "c2": (("P1", 2), ("P2", 1))},
    {1: ("P0", 2), 3: ("P0", 3), 4: ("P1", 3), 2: ("P2", 2), 5: ("P2", 3)},
)
found = search_path(pd, target, budget=1000)
print(f"  path of length {len(found.moves)} found:")
for mv in found.moves:
    print("   ", mv.to_json())
final = replay(found)[-1]
print("  realized isomorphism onto the target:", found.closure)
