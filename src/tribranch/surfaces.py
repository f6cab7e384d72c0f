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

from collections import Counter, namedtuple

from .errors import TribranchError
from .reports import ValidationReport

# Curves are identified by opaque strings, stable under serialization.
CurveId = str
PantsId = str
# A cuff address: (pants id, slot in 1..3).
Cuff = tuple[PantsId, int]
# A multicurve is just a subset of the curve ids of one decomposition.
Multicurve = frozenset


class SurfaceSig(namedtuple("SurfaceSig", "genus n_boundary")):
    """A compact connected oriented surface up to homeomorphism."""

    __slots__ = ()

    def __new__(cls, genus: int, n_boundary: int):
        if genus < 0 or n_boundary < 0:
            raise TribranchError(f"invalid surface signature ({genus}, {n_boundary})")
        return tuple.__new__(cls, (genus, n_boundary))

    @property
    def euler_char(self) -> int:
        return 2 - 2 * self.genus - self.n_boundary

    def __str__(self) -> str:
        return f"F({self.genus},{self.n_boundary})"


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


class PantsDecomposition(namedtuple("PantsDecomposition", "pants edges legs")):
    """A pants decomposition as a decorated trivalent multigraph.

    ``pants``  -- the frozenset of pants (vertex) ids.
    ``edges``  -- curve id -> ordered pair of cuffs.  The order of the two
                  endpoints is meaningful: endpoint 0 is the negative side of
                  the curve and endpoint 1 the positive side, which is where
                  push-offs are placed by the surface constructions.
    ``legs``   -- boundary label (1..b) -> the cuff carrying that boundary
                  circle of the surface.

    Instances are treated as immutable; operations return new objects.
    """

    __slots__ = ()

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
    uses = Counter(end for ends in pd.edges.values() for end in ends)
    uses.update(pd.legs.values())
    for p in sorted(pd.pants):
        for s in (1, 2, 3):
            if uses[p, s] != 1:
                report.add(
                    "slot-usage",
                    f"cuff ({p},{s}) used {uses[p, s]} times (expected exactly 1)",
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


class CutPiece(namedtuple("CutPiece", "pants glued boundary sig")):
    """One component of the surface cut along a subset of the curves.

    ``pants``    -- the frozenset of pants contained in the piece.
    ``glued``    -- the frozenset of curve ids glued inside the piece (both
                    sides in it, not cut).
    ``boundary`` -- a tuple with the provenance of each boundary circle:
                    ('leg', label) or ('cut', curve, end) naming the side of
                    a cut curve.
    ``sig``      -- the piece's :class:`SurfaceSig`.
    """

    __slots__ = ()


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


# ---------------------------------------------------------------------------
# Isomorphism of decorated graphs.
#
# Two decompositions are compared as decorated trivalent multigraphs with
# labelled legs; curve ids, pants ids and slot numbers are bookkeeping and
# carry no meaning.  canonical_key and find_isomorphism read the leaves of
# one search, individualisation-refinement (McKay & Piperno, Practical graph
# isomorphism II, J. Symbolic Comput. 60, 2014).  A pants starts coloured by
# its leg labels and self-loop count, and colour classes are split by the
# sorted colours of the non-loop neighbours until the partition is stable or
# discrete.  A colour is always the rank of a sorted signature, never a
# pants id, so colours are comparable between two decompositions.  A leaf
# is a discrete colouring, numbering the pants 0..V-1; the leaves with one
# encoding differ exactly by the automorphisms of the graph.  Extending a
# given curve bijection needs no search: the curves fix every pants, so it
# is a lookup by pants content.
# ---------------------------------------------------------------------------


def _encoding(pd: PantsDecomposition, index: dict) -> tuple:
    """The sorted edge list and the leg positions under a vertex numbering."""
    edges = []
    for (u, _), (v, _) in pd.edges.values():
        i, j = index[u], index[v]
        edges.append((i, j) if i <= j else (j, i))
    edges.sort()
    legs = tuple(index[pd.legs[label][0]] for label in sorted(pd.legs))
    return (tuple(edges), legs)


def _ranks(signature: dict) -> dict:
    rank = {sig: i for i, sig in enumerate(sorted(set(signature.values())))}
    return {p: rank[sig] for p, sig in signature.items()}


def _refine(colour: dict, nbrs: dict) -> dict:
    """Split colour classes by the sorted colours of the neighbours.

    Stops when a round splits nothing or when every pants has a colour of
    its own, since a discrete colouring cannot split further.
    """
    n_colours = len(set(colour.values()))
    while n_colours < len(colour):
        finer = _ranks({p: (c, tuple(sorted(colour[q] for q in nbrs[p])))
                        for p, c in colour.items()})
        n_finer = len(set(finer.values()))
        if n_finer == n_colours:
            break
        colour, n_colours = finer, n_finer
    return colour


def _colours(pd: PantsDecomposition):
    """The stable colouring of ``pd`` and the graph it was refined on.

    Returns ``(colour, nbrs)``: per pants its colour and the far ends of its
    other curves.  Leg labels and self-loop counts seed the first colouring.
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
    return _refine(_ranks({p: (legs[p], loops[p]) for p in pd.pants}), nbrs), nbrs


def _leaves(pd: PantsDecomposition):
    """Yield ``(encoding, colour)`` at every leaf of the search tree of ``pd``.

    Individualisation-refinement: when the stable colouring leaves a class of
    several pants, each pants of the first such class is given a colour of
    its own in turn and the colouring is refined again.  Every leaf is a
    discrete colouring, which numbers the pants by colour.  A page with a
    large automorphism group has one leaf per automorphism; leg labels pin
    most pants, so pages seldom have one.
    """
    colour, nbrs = _colours(pd)
    stack = [colour]
    while stack:
        colour = stack.pop()
        if len(set(colour.values())) == len(colour):
            yield _encoding(pd, colour), colour
            continue
        cells = {}
        for p, c in colour.items():
            cells.setdefault(c, []).append(p)
        split = min(c for c, members in cells.items() if len(members) > 1)
        stack += (_refine(_ranks({q: (c, q != p) for q, c in colour.items()}), nbrs)
                  for p in cells[split])


def canonical_key(pd: PantsDecomposition) -> tuple:
    """Canonical form of the decorated graph: the smallest leaf encoding.

    For decompositions with the same leg labels, the keys are equal iff the
    decompositions are leg-respecting isomorphic.  The key records where
    each label sits, not the label values.
    """
    return min(enc for enc, _ in _leaves(pd))


def key_shape(pd: PantsDecomposition) -> list:
    """A cheap invariant of :func:`canonical_key`: each pants' leg ranks and
    self-loop count, sorted.

    A leg's rank is its label's place among the sorted labels.  Each pants
    with a leg or a self-loop gives the list of its leg ranks in order,
    followed by one -1 per self-loop; the shape is the sorted list of those
    lists.  It is a function of the key: the key's leg tuple gives, for
    each rank, the number of the pants the leg sits on, and its edge list
    holds each self-loop as a pair ``(i, i)``; grouping both by pants and
    sorting the groups forgets the numbering.  So equal keys give equal
    shapes, and a search can rule a candidate out by its shape at about a
    fifth of the price of its key.
    """
    cells = {}
    for rank, label in enumerate(sorted(pd.legs)):
        cells.setdefault(pd.legs[label][0], []).append(rank)
    for (u, _), (v, _) in pd.edges.values():
        if u == v:
            cells.setdefault(u, []).append(-1)
    return sorted(cells.values())


def find_isomorphism(a: PantsDecomposition, b: PantsDecomposition):
    """A decorated-graph isomorphism of ``a`` onto ``b`` respecting leg labels.

    Returns ``(vertex_map, edge_map)`` or ``None``.  A leaf of ``b`` with
    the smallest encoding, composed with each leaf of ``a`` with that same
    encoding, gives every isomorphism; the lexicographically smallest vertex
    map is returned, so the result is deterministic.  On a page with a large
    automorphism group this costs about two :func:`canonical_key` calls.
    Parallel curves are matched in sorted id order.
    """
    if sorted(a.legs) != sorted(b.legs):
        return None
    best, leaf_b = min(_leaves(b), key=lambda leaf: leaf[0])
    pants_b = {c: q for q, c in leaf_b.items()}
    vmap = min((sorted((p, pants_b[c]) for p, c in colour.items())
                for enc, colour in _leaves(a) if enc == best), default=None)
    if vmap is None:
        return None
    vmap = dict(vmap)
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


def _pants_by_content(pd: PantsDecomposition, name) -> dict:
    """The sorted pants of ``pd`` grouped by content: curve ends renamed by
    ``name`` (a self-loop counts twice) and leg labels, tagged 0 and 1 so
    that curve ids never compare with labels."""
    content = {p: [] for p in pd.pants}
    for c, ((u, _), (v, _)) in pd.edges.items():
        content[u].append((0, name(c)))
        content[v].append((0, name(c)))
    for label, (p, _) in pd.legs.items():
        content[p].append((1, label))
    groups = {}
    for p in sorted(pd.pants):
        groups.setdefault(tuple(sorted(content[p])), []).append(p)
    return groups


def vertex_map_from_curve_bijection(a: PantsDecomposition, b: PantsDecomposition,
                                    curve_map: dict):
    """Extend a curve bijection a -> b to a vertex map, if it extends at all.

    A valid extension sends each pants to one with the same content, the
    image curves in its cuffs and the same leg labels, so it exists exactly
    when both sides have the same contents with the same multiplicities
    (else ``None``).  Sorted pants go to sorted pants within each content,
    the lexicographically smallest valid map.  In a valid decomposition two
    pants share a content only on the closed genus-two page, whose three
    curves join the same two pants; there both maps are valid.
    """
    if sorted(curve_map) != sorted(a.edges) or sorted(curve_map.values()) != sorted(b.edges):
        return None
    groups_a = _pants_by_content(a, curve_map.__getitem__)
    groups_b = _pants_by_content(b, lambda c: c)
    if {key: len(ps) for key, ps in groups_a.items()} != {
            key: len(qs) for key, qs in groups_b.items()}:
        return None
    return dict(sorted(pq for key, ps in groups_a.items() for pq in zip(ps, groups_b[key])))


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
