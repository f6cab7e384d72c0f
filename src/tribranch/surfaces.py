"""Compact oriented surfaces and pants decompositions as decorated trivalent graphs.

A compact oriented surface is recorded up to homeomorphism by its genus and
its number of boundary circles (:class:`SurfaceSig`).  A pants decomposition
of such a surface is a system of disjoint essential curves cutting it into
thrice punctured spheres; combinatorially this is a connected trivalent
multigraph whose vertices are the pants, whose edges are the curves
(self-loops allowed) and whose free cuff slots carry the labelled boundary
circles of the surface (:class:`PantsDecomposition`).

The model deliberately stores no curve geometry: no coordinates, no
intersection numbers, no isotopy data.  Everything downstream (cutting,
elementary moves, the surface constructions inside open books) consumes only
this decorated-graph combinatorics.

Counting identities for a valid decomposition of a surface of genus ``g``
with ``b`` boundary circles and Euler characteristic ``chi = 2 - 2g - b``:

* ``3 V = 2 E + L`` with ``V`` pants, ``E`` curves, ``L = b`` legs,
* ``V = -chi = 2 g + b - 2`` and ``E = 3 g + b - 3``,
* the cycle rank ``E - V + 1`` of the graph equals ``g``.

Surfaces with ``chi >= 0`` (disc, annulus, sphere, torus) admit no pants
decomposition and are reported as such by :func:`validate_pants`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import TribranchError
from .reports import ValidationReport

# Curves are identified by opaque strings, stable under serialization.
CurveId = str
PantsId = str
# A cuff address: (pants id, slot in 1..3).
Cuff = tuple[PantsId, int]
# A multicurve is just a subset of the curve ids of one decomposition.
Multicurve = frozenset


@dataclass(frozen=True, order=True)
class SurfaceSig:
    """A compact connected oriented surface up to homeomorphism."""

    genus: int
    n_boundary: int

    def __post_init__(self):
        if self.genus < 0 or self.n_boundary < 0:
            raise TribranchError(
                f"invalid surface signature ({self.genus}, {self.n_boundary})"
            )

    @property
    def euler_char(self) -> int:
        return 2 - 2 * self.genus - self.n_boundary

    def __str__(self) -> str:
        return f"F({self.genus},{self.n_boundary})"


def euler_char(sig: SurfaceSig) -> int:
    """Euler characteristic 2 - 2*genus - n_boundary."""
    return sig.euler_char


def components(nodes, pairs) -> list:
    """The connected components of ``nodes`` joined by the ``pairs``.

    Each component is a sorted list and the components are ordered by their
    smallest node.  Pairs with an end outside ``nodes`` are ignored.  This is
    the one connectivity routine of the package: the pants graph, the cut
    surface, the moves' diagnostics and the complexes all use it.
    """
    nbrs = {n: [] for n in nodes}
    for a, b in pairs:
        if a in nbrs and b in nbrs:
            nbrs[a].append(b)
            nbrs[b].append(a)
    seen, comps = set(), []
    for start in nbrs:
        if start not in seen:
            seen.add(start)
            comp, stack = [start], [start]
            while stack:
                for n in nbrs[stack.pop()]:
                    if n not in seen:
                        seen.add(n)
                        comp.append(n)
                        stack.append(n)
            comps.append(sorted(comp))
    return sorted(comps)


@dataclass(frozen=True)
class PantsDecomposition:
    """A pants decomposition as a decorated trivalent multigraph.

    ``pants``  -- the pants (vertex) ids.
    ``edges``  -- curve id -> ordered pair of cuffs.  The order of the two
                  endpoints is meaningful: endpoint 0 is the negative side of
                  the curve and endpoint 1 the positive side, which is where
                  push-offs are placed by the surface constructions.
    ``legs``   -- boundary label (1..b) -> the cuff carrying that boundary
                  circle of the surface.

    Instances are treated as immutable; operations return new objects.
    """

    pants: frozenset
    edges: dict
    legs: dict

    @staticmethod
    def build(pants, edges, legs) -> "PantsDecomposition":
        return PantsDecomposition(
            pants=frozenset(pants),
            edges={c: (tuple(e[0]), tuple(e[1])) for c, e in edges.items()},
            legs={int(k): tuple(v) for k, v in legs.items()},
        )

    @property
    def n_pants(self) -> int:
        return len(self.pants)

    @property
    def n_curves(self) -> int:
        return len(self.edges)

    @property
    def n_legs(self) -> int:
        return len(self.legs)

    def curve_ids(self) -> list:
        return sorted(self.edges)

    def is_self_loop(self, curve: CurveId) -> bool:
        (u, _), (v, _) = self.edges[curve]
        return u == v

    def slot_contents(self):
        """Map cuff -> content, where content is ('edge', curve, end) or ('leg', label)."""
        contents = {}
        for curve in sorted(self.edges):
            for end, cuff in enumerate(self.edges[curve]):
                contents.setdefault(cuff, []).append(("edge", curve, end))
        for label in sorted(self.legs):
            contents.setdefault(self.legs[label], []).append(("leg", label))
        return contents

    def surface_sig(self) -> SurfaceSig:
        """The surface this decomposition lives on, read off the graph."""
        v, e = self.n_pants, self.n_curves
        genus = e - v + 1
        return SurfaceSig(genus=genus, n_boundary=self.n_legs)

    def to_json(self) -> dict:
        return {
            "pants": sorted(self.pants),
            "edges": {c: [list(self.edges[c][0]), list(self.edges[c][1])]
                      for c in sorted(self.edges)},
            "legs": {str(k): list(self.legs[k]) for k in sorted(self.legs)},
        }


def validate_pants(sig: SurfaceSig, pd: PantsDecomposition) -> ValidationReport:
    """Check every decomposition invariant against the surface signature.

    Violations are report entries, never exceptions; an empty report means
    the decomposition is a valid pants decomposition of ``sig``.
    """
    report = ValidationReport()
    if sig.euler_char >= 0:
        report.add(
            "no-pants-decomposition",
            f"surface {sig} has euler characteristic {sig.euler_char} >= 0; "
            "no pants decomposition exists",
        )

    for curve in sorted(pd.edges):
        for end in pd.edges[curve]:
            p, s = end
            if p not in pd.pants:
                report.add("unknown-pants", f"curve {curve} ends on unknown pants {p}")
            if s not in (1, 2, 3):
                report.add("bad-slot", f"curve {curve} uses slot {s} not in 1..3")
        if pd.edges[curve][0] == pd.edges[curve][1]:
            report.add("degenerate-loop", f"curve {curve} occupies one cuff twice")
    expected_labels = set(range(1, sig.n_boundary + 1))
    if set(pd.legs) != expected_labels:
        report.add(
            "leg-labels",
            f"leg labels {sorted(pd.legs)} differ from 1..{sig.n_boundary}",
        )
    for label in sorted(pd.legs):
        p, s = pd.legs[label]
        if p not in pd.pants:
            report.add("unknown-pants", f"leg {label} sits on unknown pants {p}")
        if s not in (1, 2, 3):
            report.add("bad-slot", f"leg {label} uses slot {s} not in 1..3")

    # Each of the 3 V cuff slots must carry exactly one edge end or one leg.
    contents = pd.slot_contents()
    for p in sorted(pd.pants):
        for s in (1, 2, 3):
            uses = contents.get((p, s), [])
            if len(uses) != 1:
                report.add(
                    "slot-usage",
                    f"cuff ({p},{s}) used {len(uses)} times (expected exactly 1)",
                )

    v, e, legs = pd.n_pants, pd.n_curves, pd.n_legs
    if 3 * v != 2 * e + legs:
        report.add("counting", f"3V = {3*v} but 2E + L = {2*e + legs}")
    if v != 2 * sig.genus + sig.n_boundary - 2:
        report.add(
            "pants-count",
            f"pants count mismatch: V = {v}, -chi = {2*sig.genus + sig.n_boundary - 2}",
        )
    if e != 3 * sig.genus + sig.n_boundary - 3:
        report.add("curve-count", f"E = {e}, expected {3*sig.genus + sig.n_boundary - 3}")
    if len(components(pd.pants, [(u, v) for (u, _), (v, _) in pd.edges.values()])) > 1:
        report.add("disconnected", "the pants graph is not connected")
    elif pd.pants and e - v + 1 != sig.genus:
        report.add("cycle-rank", f"cycle rank {e - v + 1} differs from genus {sig.genus}")
    return report


@dataclass(frozen=True)
class CutPiece:
    """One component of the surface cut along a subset of the curves.

    ``pants``    -- the pants contained in the piece.
    ``glued``    -- curve ids glued inside the piece (both sides in it, not cut).
    ``boundary`` -- provenance of each boundary circle: ('leg', label) or
                    ('cut', curve, end) naming the side of a cut curve.
    """

    pants: frozenset
    glued: frozenset
    boundary: tuple
    sig: SurfaceSig


def cut_structure(pd: PantsDecomposition, cut: set) -> list:
    """Components of the surface cut along the curves in ``cut``.

    Curves not in ``cut`` act as gluings between pants, so the pieces are the
    :func:`components` of the pants graph on the glued curves, ordered by
    their smallest pants id.  Each returned piece records its pants set, its
    internal (glued) curves and the provenance of every boundary circle;
    every curve and leg is handed to its piece in one pass.  A curve end or
    leg on a pants outside ``pd.pants`` is a :class:`TribranchError`.
    """
    unknown = set(cut) - set(pd.edges)
    if unknown:
        raise TribranchError(f"unknown curve ids {sorted(unknown)}")
    named = {end[0] for ends in pd.edges.values() for end in ends}
    stray = named.union(cuff[0] for cuff in pd.legs.values()) - set(pd.pants)
    if stray:
        raise TribranchError(f"curves or legs on unknown pants {sorted(stray)}")
    glue = [c for c in sorted(pd.edges) if c not in cut]
    comps = components(pd.pants, [(pd.edges[c][0][0], pd.edges[c][1][0]) for c in glue])
    piece_of = {p: i for i, comp in enumerate(comps) for p in comp}
    glued = [[] for _ in comps]
    boundary = [[] for _ in comps]
    for c in glue:
        glued[piece_of[pd.edges[c][0][0]]].append(c)
    for label in sorted(pd.legs):
        boundary[piece_of[pd.legs[label][0]]].append(("leg", label))
    for c in sorted(cut):
        for end in (0, 1):
            boundary[piece_of[pd.edges[c][end][0]]].append(("cut", c, end))
    return [
        CutPiece(pants=frozenset(comp), glued=frozenset(inner), boundary=tuple(bd),
                 sig=SurfaceSig(genus=len(inner) - len(comp) + 1, n_boundary=len(bd)))
        for comp, inner, bd in zip(comps, glued, boundary)
    ]


def cut_components(sig: SurfaceSig, pd: PantsDecomposition, removed) -> list:
    """Homeomorphism types of the surface cut along all curves except ``removed``.

    The curves in ``removed`` are erased from the cut system, so the pants on
    their two sides are glued back together; all other curves remain as cuts.
    With ``removed`` empty this returns one thrice punctured sphere per pants;
    removing everything returns a single component homeomorphic to ``sig``.
    """
    removed = set(removed)
    unknown = removed - set(pd.edges)
    if unknown:
        raise TribranchError(f"unknown curve ids {sorted(unknown)}")
    cut = set(pd.edges) - removed
    return [piece.sig for piece in cut_structure(pd, cut)]


# ---------------------------------------------------------------------------
# Isomorphism of decorated graphs.
#
# Two decompositions are compared as decorated trivalent multigraphs with
# labelled legs; curve ids, pants ids and slot numbers are bookkeeping and
# carry no meaning.  All three routines below share one colour refinement
# (McKay & Piperno, Practical graph isomorphism II, J. Symbolic Comput. 60,
# 2014): a pants starts coloured by its leg labels and self-loop count, and
# colour classes are split by the sorted colours of the non-loop neighbours
# until the partition is stable.  A colour is always the rank of a sorted
# signature, never a pants id, so colours are isomorphism invariant and
# comparable between two decompositions.
# ---------------------------------------------------------------------------


def _encoding(pd: PantsDecomposition, order: tuple) -> tuple:
    index = {p: i for i, p in enumerate(order)}
    edges = sorted(
        tuple(sorted((index[pd.edges[c][0][0]], index[pd.edges[c][1][0]])))
        for c in pd.edges
    )
    legs = tuple(index[pd.legs[label][0]] for label in sorted(pd.legs))
    return (tuple(edges), legs)


def _ranks(signature: dict) -> dict:
    rank = {sig: i for i, sig in enumerate(sorted(set(signature.values())))}
    return {p: rank[sig] for p, sig in signature.items()}


def _refine(colour: dict, nbrs: dict) -> dict:
    """Split colour classes by the sorted colours of the neighbours until stable."""
    n_colours = len(set(colour.values()))
    while True:
        finer = _ranks({p: (c, tuple(sorted(colour[q] for q in nbrs[p])))
                        for p, c in colour.items()})
        n_finer = len(set(finer.values()))
        if n_finer == n_colours:
            return colour
        colour, n_colours = finer, n_finer


def _colours(pd: PantsDecomposition):
    """The stable colouring of ``pd`` and what it was refined from.

    Returns ``(colour, legs, loops, nbrs)``: per pants its colour, its leg
    labels, its self-loop count and the far ends of its other curves.
    """
    legs = {p: () for p in pd.pants}
    loops = dict.fromkeys(pd.pants, 0)
    nbrs = {p: [] for p in pd.pants}
    for label in sorted(pd.legs):
        legs[pd.legs[label][0]] += (label,)
    for (u, _), (v, _) in pd.edges.values():
        if u == v:
            loops[u] += 1
        else:
            nbrs[u].append(v)
            nbrs[v].append(u)
    colour = _refine(_ranks({p: (legs[p], loops[p]) for p in pd.pants}), nbrs)
    return colour, legs, loops, nbrs


def canonical_key(pd: PantsDecomposition) -> tuple:
    """Canonical form of the decorated graph, equal iff leg-respecting isomorphic.

    Individualisation-refinement: when the stable colouring leaves a class of
    several pants, each pants of the first such class is given a colour of
    its own in turn and the colouring is refined again.  Every leaf of that
    search orders the pants by colour; the key is the smallest encoding over
    all leaves.  A page with a large automorphism group costs one leaf per
    automorphism; leg labels pin most pants, so pages seldom have one.
    """
    colour, _, _, nbrs = _colours(pd)
    best = None

    def search(colour):
        nonlocal best
        cells = {}
        for p, c in colour.items():
            cells.setdefault(c, []).append(p)
        split = min((c for c, members in cells.items() if len(members) > 1), default=None)
        if split is None:
            enc = _encoding(pd, tuple(sorted(colour, key=colour.get)))
            if best is None or enc < best:
                best = enc
            return
        for p in cells[split]:
            search(_refine(_ranks({q: (c, q != p) for q, c in colour.items()}), nbrs))

    search(colour)
    return best


def _smallest_map(order: list, candidates: dict, fits) -> dict:
    """The lexicographically smallest injective map on ``order`` or ``None``.

    Each pants ``p`` of ``order`` (sorted) goes to one of ``candidates[p]``
    (sorted); ``fits(p, q, vmap)`` decides whether ``p -> q`` extends the
    partial map ``vmap``.  It may reject only extensions that cannot
    complete, so the first complete map found is the smallest valid one.
    """
    vmap, used, tries = {}, set(), []
    i = 0
    while i < len(order):
        if len(tries) == i:
            tries.append(iter(candidates[order[i]]))
        p = order[i]
        for q in tries[i]:
            if q not in used and fits(p, q, vmap):
                vmap[p] = q
                used.add(q)
                i += 1
                break
        else:
            tries.pop()
            if i == 0:
                return None
            i -= 1
            used.discard(vmap.pop(order[i]))
    return vmap


def find_isomorphism(a: PantsDecomposition, b: PantsDecomposition):
    """A decorated-graph isomorphism of ``a`` onto ``b`` respecting leg labels.

    Returns ``(vertex_map, edge_map)`` or ``None``.  Among the valid
    isomorphisms the one with the lexicographically smallest vertex map is
    returned, so the result is deterministic: a depth-first search maps the
    sorted pants of ``a`` to sorted candidates in ``b`` of the same colour,
    leg labels and self-loop count, keeping only partial maps that preserve
    the number of curves between mapped pants.  Parallel curves are matched
    in sorted id order.
    """
    if a.n_pants != b.n_pants or a.n_curves != b.n_curves:
        return None
    if sorted(a.legs) != sorted(b.legs):
        return None
    colour_a, legs_a, loops_a, nbrs_a = _colours(a)
    colour_b, legs_b, loops_b, nbrs_b = _colours(b)
    b_pants = sorted(b.pants)
    # Colours rank signatures within one graph, so between two graphs that
    # are not isomorphic equal colours need not mean equal legs and loops.
    candidates = {
        p: [q for q in b_pants if colour_b[q] == colour_a[p]
            and legs_b[q] == legs_a[p] and loops_b[q] == loops_a[p]]
        for p in a.pants
    }

    def fits(p, q, vmap):
        image = set(vmap.values())
        return (sorted(vmap[r] for r in nbrs_a[p] if r in vmap)
                == sorted(s for s in nbrs_b[q] if s in image))

    vmap = _smallest_map(sorted(a.pants), candidates, fits)
    if vmap is None:
        return None
    # Match parallel-edge classes: curves with the same image endpoints pair up in id order.
    need = {}
    for c in sorted(a.edges):
        key = tuple(sorted((vmap[a.edges[c][0][0]], vmap[a.edges[c][1][0]])))
        need.setdefault(key, []).append(c)
    have = {}
    for c in sorted(b.edges):
        have.setdefault(tuple(sorted((b.edges[c][0][0], b.edges[c][1][0]))), []).append(c)
    emap = {}
    for key in need:
        for ca, cb in zip(need[key], have[key]):
            emap[ca] = cb
    return vmap, emap


def isomorphic(a: PantsDecomposition, b: PantsDecomposition) -> bool:
    return find_isomorphism(a, b) is not None


def vertex_map_from_curve_bijection(a: PantsDecomposition, b: PantsDecomposition,
                                    curve_map: dict):
    """Extend a curve bijection a -> b to a vertex map, if it extends at all.

    The extension must send each pants to one carrying the image curves in
    its cuffs and must respect leg labels.  Among valid extensions the
    lexicographically smallest is returned; ``None`` if none exists.  Each
    pants may only go to a pants at the ends of all its curves' images and
    carrying all its legs, which leaves at most two candidates per pants.
    """
    if sorted(curve_map) != sorted(a.edges) or sorted(curve_map.values()) != sorted(b.edges):
        return None
    allowed = {p: set(b.pants) for p in a.pants}
    incident = {p: [] for p in a.pants}
    for c, ends in a.edges.items():
        image = {q for q, _ in b.edges[curve_map[c]]}
        for p in {p for p, _ in ends}:
            allowed[p] &= image
            incident[p].append(c)
    for label, (p, _) in a.legs.items():
        allowed[p] &= {b.legs[label][0]} if label in b.legs else set()
    candidates = {p: sorted(qs) for p, qs in allowed.items()}

    def fits(p, q, vmap):
        for c in incident[p]:
            ends = [e for e, _ in a.edges[c]]
            if all(e == p or e in vmap for e in ends):
                mapped = sorted(q if e == p else vmap[e] for e in ends)
                if mapped != sorted(e for e, _ in b.edges[curve_map[c]]):
                    return False
        return True

    return _smallest_map(sorted(a.pants), candidates, fits)


# ---------------------------------------------------------------------------
# Stock decompositions, used by fixtures and the random generators.
# ---------------------------------------------------------------------------


def standard_decomposition(sig: SurfaceSig) -> PantsDecomposition:
    """A concrete pants decomposition of ``sig`` (needs chi < 0, genus <= 2).

    The shape is a chain of pants P0 - P1 - ... with self-loops attached at
    the chain ends to realize the genus, and legs filling the remaining
    cuffs in order.
    """
    if sig.euler_char >= 0:
        raise TribranchError(f"{sig} admits no pants decomposition")
    if sig.genus > 2:
        raise TribranchError("standard_decomposition supports genus <= 2")
    v = 2 * sig.genus + sig.n_boundary - 2
    pants = [f"P{i}" for i in range(v)]
    edges = {}
    free = {p: [1, 2, 3] for p in pants}
    n_curve = 0

    def take(p):
        return free[p].pop(0)

    for i in range(v - 1):
        n_curve += 1
        edges[f"c{n_curve}"] = ((pants[i], take(pants[i])), (pants[i + 1], take(pants[i + 1])))
    loop_sites = [pants[0], pants[-1]]
    for i in range(sig.genus):
        p = loop_sites[i % 2]
        n_curve += 1
        edges[f"c{n_curve}"] = ((p, take(p)), (p, take(p)))
    legs = {}
    label = 1
    for p in pants:
        while free[p]:
            legs[label] = (p, take(p))
            label += 1
    if label - 1 != sig.n_boundary:
        raise TribranchError(f"standard decomposition of {sig} has {label - 1} legs")
    return PantsDecomposition.build(pants, edges, legs)
