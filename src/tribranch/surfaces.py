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

import itertools
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

    def adjacency(self):
        """Pants -> sorted list of neighbouring pants (via curves, multi-edges once)."""
        nbrs = {p: set() for p in self.pants}
        for (u, _), (v, _) in self.edges.values():
            if u in nbrs and v in nbrs:
                nbrs[u].add(v)
                nbrs[v].add(u)
        return {p: sorted(n) for p, n in nbrs.items()}

    def is_connected(self) -> bool:
        if not self.pants:
            return False
        nbrs = self.adjacency()
        seen = set()
        stack = [min(self.pants)]
        while stack:
            p = stack.pop()
            if p in seen:
                continue
            seen.add(p)
            stack.extend(nbrs[p])
        return len(seen) == len(self.pants)

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
    if pd.pants and not pd.is_connected():
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

    Curves not in ``cut`` act as gluings between pants.  Each returned piece
    records its pants set, its internal (glued) curves and the provenance of
    every boundary circle.  Pieces are ordered by their smallest pants id.
    """
    unknown = set(cut) - set(pd.edges)
    if unknown:
        raise TribranchError(f"unknown curve ids {sorted(unknown)}")
    glue = [c for c in sorted(pd.edges) if c not in cut]
    parent = {p: p for p in pd.pants}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    for c in glue:
        (u, _), (v, _) = pd.edges[c]
        union(u, v)

    groups = {}
    for p in sorted(pd.pants):
        groups.setdefault(find(p), []).append(p)

    pieces = []
    for root in sorted(groups):
        members = frozenset(groups[root])
        internal = []
        n_internal = 0
        boundary = []
        for c in glue:
            (u, _), (v, _) = pd.edges[c]
            if u in members:
                internal.append(c)
                n_internal += 1
        for label in sorted(pd.legs):
            p, _ = pd.legs[label]
            if p in members:
                boundary.append(("leg", label))
        for c in sorted(cut):
            for end in (0, 1):
                p, _ = pd.edges[c][end]
                if p in members:
                    boundary.append(("cut", c, end))
        genus = n_internal - len(members) + 1
        sig = SurfaceSig(genus=genus, n_boundary=len(boundary))
        pieces.append(
            CutPiece(
                pants=members,
                glued=frozenset(internal),
                boundary=tuple(boundary),
                sig=sig,
            )
        )
    return pieces


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
# carry no meaning.  At desk scale (V <= 10 or so) an exhaustive minimum over
# vertex orderings is used: correctness over speed.
# ---------------------------------------------------------------------------


def _encoding(pd: PantsDecomposition, order: tuple) -> tuple:
    index = {p: i for i, p in enumerate(order)}
    edges = sorted(
        tuple(sorted((index[pd.edges[c][0][0]], index[pd.edges[c][1][0]])))
        for c in pd.edges
    )
    legs = tuple(index[pd.legs[label][0]] for label in sorted(pd.legs))
    return (tuple(edges), legs)


def canonical_key(pd: PantsDecomposition) -> tuple:
    """Canonical form of the decorated graph, equal iff leg-respecting isomorphic."""
    best = None
    for order in itertools.permutations(sorted(pd.pants)):
        enc = _encoding(pd, order)
        if best is None or enc < best:
            best = enc
    return best


def find_isomorphism(a: PantsDecomposition, b: PantsDecomposition):
    """A decorated-graph isomorphism of ``a`` onto ``b`` respecting leg labels.

    Returns ``(vertex_map, edge_map)`` or ``None``.  The search is exhaustive
    over vertex bijections; among the valid isomorphisms the one with the
    lexicographically smallest vertex map is returned, so the result is
    deterministic.
    """
    if a.n_pants != b.n_pants or a.n_curves != b.n_curves:
        return None
    if sorted(a.legs) != sorted(b.legs):
        return None
    a_pants = sorted(a.pants)
    b_weights = {
        c: tuple(sorted((b.edges[c][0][0], b.edges[c][1][0]))) for c in b.edges
    }
    for image in itertools.permutations(sorted(b.pants)):
        vmap = dict(zip(a_pants, image))
        if any(vmap[a.legs[l][0]] != b.legs[l][0] for l in a.legs):
            continue
        # Match parallel-edge classes: the multisets of endpoint pairs must agree.
        need = {}
        for c in sorted(a.edges):
            key = tuple(sorted((vmap[a.edges[c][0][0]], vmap[a.edges[c][1][0]])))
            need.setdefault(key, []).append(c)
        have = {}
        for c in sorted(b.edges):
            have.setdefault(b_weights[c], []).append(c)
        if {k: len(v) for k, v in need.items()} != {k: len(v) for k, v in have.items()}:
            continue
        emap = {}
        for key in need:
            for ca, cb in zip(need[key], have[key]):
                emap[ca] = cb
        return vmap, emap
    return None


def isomorphic(a: PantsDecomposition, b: PantsDecomposition) -> bool:
    return find_isomorphism(a, b) is not None


def vertex_map_from_curve_bijection(a: PantsDecomposition, b: PantsDecomposition,
                                    curve_map: dict):
    """Extend a curve bijection a -> b to a vertex map, if it extends at all.

    The extension must send each pants to one carrying the image curves in
    its cuffs and must respect leg labels.  Among valid extensions the
    lexicographically smallest is returned; ``None`` if none exists.
    """
    if sorted(curve_map) != sorted(a.edges) or sorted(curve_map.values()) != sorted(b.edges):
        return None
    a_pants = sorted(a.pants)
    for image in itertools.permutations(sorted(b.pants)):
        vmap = dict(zip(a_pants, image))
        ok = all(vmap[a.legs[l][0]] == b.legs[l][0] for l in a.legs)
        if ok:
            for c in sorted(a.edges):
                ends_a = tuple(sorted(vmap[end[0]] for end in a.edges[c]))
                ends_b = tuple(sorted(end[0] for end in b.edges[curve_map[c]]))
                if ends_a != ends_b:
                    ok = False
                    break
        if ok:
            return vmap
    return None


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
