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

``canonical_key`` and ``find_isomorphism`` (in ``search``) resolve here on
each access, because the benchmark reads them here.
"""

from __future__ import annotations

from collections import Counter, namedtuple

from . import _resolver
from .errors import TribranchError
from .intalg import int_text
from .reports import ValidationReport

__getattr__ = _resolver(__name__, dict.fromkeys(("canonical_key", "find_isomorphism"), "search"))


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

    ``pants``  -- the frozenset of pants (vertex) ids, strings.
    ``edges``  -- curve id (a string) -> ordered pair of cuffs, a cuff
                  being a (pants id, slot in 1..3) pair.  The order of the
                  two endpoints is meaningful: endpoint 0 is the negative
                  side of the curve and endpoint 1 the positive side, which
                  is where push-offs are placed by the surface constructions.
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

    def is_self_loop(self, curve: str) -> bool:
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
    minus_chi, n_curves = 2 * sig.genus + sig.n_boundary - 2, 3 * sig.genus + sig.n_boundary - 3
    if v != minus_chi:
        report.add("pants-count", f"pants count mismatch: V = {v}, -chi = {int_text(minus_chi)}")
    if e != n_curves:
        report.add("curve-count", f"E = {e}, expected {int_text(n_curves)}")
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
# Extending a given curve bijection needs no isomorphism search: the curves
# fix every pants, so it is a lookup by pants content.
# ---------------------------------------------------------------------------


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
