"""Elementary moves on pants decompositions, and paths of moves.

An elementary move replaces exactly one curve of a pants decomposition:

* an A-move removes a curve joining two distinct pants.  Those two pants
  merge into a four-holed sphere; the move re-pairs its four cuffs into two
  new pants joined by the fresh curve.  A legal re-pairing splits the four
  cuffs two-and-two (a single curve in a four-holed sphere always separates
  its boundary circles two against two).  Degenerate three-and-one splits
  are rejected: they do not arise from an embedded curve, and they can even
  disconnect the pants graph by isolating a pants.
* an S-move removes a self-loop curve.  Its support is a one-holed torus
  and the replacement is combinatorially another self-loop in the same
  cuffs, so only the curve id changes and there is no pairing to give.

A path is a start decomposition together with a list of moves; consecutive
decompositions share all curves except the moved one.  A closed-up path
additionally carries a closure: a curve bijection from the final
decomposition onto the start one witnessing that the monodromy carries the
start system to the final system.  Combinatorially the closure must extend
to a decorated-graph isomorphism respecting leg labels (the monodromy fixes
the boundary pointwise, so the image system is leg-respecting isomorphic to
the original).

Every A-move ends in one application step, which places the two groups of
a re-pairing on the support pants.  :func:`apply_move` checks a move before
that step; ``search_path`` (in ``search``, resolved here on each access)
hands its candidates to the step directly.
"""

from __future__ import annotations

from collections import namedtuple

from . import _resolver
from .errors import MoveError, TribranchError
from .reports import ValidationReport
from .surfaces import (
    PantsDecomposition,
    components,
    validate_pants,
    vertex_map_from_curve_bijection,
)

__getattr__ = _resolver(__name__, {"search_path": "search"})

A_MOVE = "A"
S_MOVE = "S"


class PantsMove(namedtuple("PantsMove", "removed added kind pairing", defaults=(None,))):
    """One elementary move: curve ``removed`` gives way to curve ``added``.

    ``kind`` is A_MOVE or S_MOVE.  ``pairing`` describes the A-move
    re-pairing as a tuple of two groups of cuff addresses of the pre-move
    decomposition (the four support cuffs).  When omitted, index 0 of
    :func:`enumerate_pairings`, the original grouping, is kept.  An S-move
    takes no pairing; :func:`apply_move` rejects one.
    """

    __slots__ = ()

    def to_json(self) -> dict:
        doc = {"removed": self.removed, "added": self.added, "kind": self.kind}
        if self.pairing is not None:
            doc["pairing"] = [[list(c) for c in side] for side in self.pairing]
        return doc


class PantsPath(namedtuple("PantsPath", "start moves closure")):
    """A move sequence C_0, ..., C_n with a closure onto the start system.

    ``start`` is the decomposition C_0 and ``moves`` the list of
    :class:`PantsMove`.  ``closure`` is a dict mapping each curve of C_n to
    the curve of C_0 whose monodromy image it is.  A trivial path (no moves)
    with the identity closure describes a monodromy fixing every curve of
    C_0.  Each path owns its list and dict.
    """

    __slots__ = ()

    def __new__(cls, start: PantsDecomposition, moves: list = None, closure: dict = None):
        return tuple.__new__(cls, (start, [] if moves is None else moves,
                                   {} if closure is None else closure))

    def to_json(self) -> dict:
        return {
            "start": self.start.to_json(),
            "moves": [m.to_json() for m in self.moves],
            "closure": dict(sorted(self.closure.items())),
        }


def move_kind(pd: PantsDecomposition, removed: str) -> str:
    """The move kind forced by the support of ``removed``.

    Equivalent to classifying the piece of ``cut_structure`` that glues the
    curve back: a curve between distinct pants merges them into a
    four-holed sphere (A), a self-loop closes a one-holed torus (S).
    """
    if removed not in pd.edges:
        raise MoveError(f"unknown curve {removed!r}")
    return S_MOVE if pd.is_self_loop(removed) else A_MOVE


def _support_cuffs(pd: PantsDecomposition, removed: str) -> list:
    (u, su), (v, sv) = pd.edges[removed]
    cuffs = [(u, s) for s in (1, 2, 3) if s != su]
    cuffs += [(v, s) for s in (1, 2, 3) if s != sv]
    return cuffs


def enumerate_pairings(pd: PantsDecomposition, removed: str) -> list:
    """The three two-and-two re-pairings of an A-move support, in a fixed order.

    Each pairs the smallest support cuff with a partner.  Index 0 keeps the
    original grouping (partner on the same pants) and stays in the class of
    ``pd``; indices 1 and 2 re-distribute, partners in sorted order, and the
    search expands only those two.  Raises :class:`MoveError` on an unknown
    curve or a self-loop, whose S-move support has no re-pairing.
    """
    if move_kind(pd, removed) == S_MOVE:
        raise MoveError(
            f"curve {removed!r} is a self-loop: an S-move support has no re-pairing"
        )
    cuffs = sorted(_support_cuffs(pd, removed))
    a = cuffs[0]
    rest = cuffs[1:]
    pairings = []
    for partner in rest:
        other = tuple(c for c in rest if c != partner)
        pairings.append(((a, partner), other))
    # The original grouping first; the stable sort keeps the partner order.
    pairings.sort(key=lambda p: p[0][1][0] != a[0])
    return pairings


def apply_move(pd: PantsDecomposition, mv: PantsMove) -> PantsDecomposition:
    """Apply one elementary move, returning the new decomposition.

    With no pairing, an A-move keeps the original grouping.  Raises
    :class:`MoveError` on an unknown curve, a clashing fresh id, a kind
    inconsistent with the support, a pairing on an S-move or an illegal
    re-pairing.  A checked A-move goes to the step ``search.search_path`` also
    uses, with its groups sorted, so a pairing's result does not depend on
    the order in which its cuffs are written.
    """
    actual = move_kind(pd, mv.removed)
    if mv.added in pd.edges:
        raise MoveError(f"added curve id {mv.added!r} already present")
    if mv.kind != actual:
        raise MoveError(
            f"kind mismatch: move declares {mv.kind!r} but the support of "
            f"{mv.removed!r} forces {actual!r}"
        )

    if actual == S_MOVE:
        if mv.pairing is not None:
            raise MoveError(f"S-move on {mv.removed!r} takes no pairing")
        edges = dict(pd.edges)
        ends = edges.pop(mv.removed)
        edges[mv.added] = ends
        return PantsDecomposition(pants=pd.pants, edges=edges, legs=dict(pd.legs))

    if mv.pairing is None:
        pairing = enumerate_pairings(pd, mv.removed)[0]
    else:
        support = sorted(_support_cuffs(pd, mv.removed))
        pairing = tuple(tuple(tuple(c) for c in side) for side in mv.pairing)
        flat = [c for side in pairing for c in side]
        if len(pairing) != 2 or sorted(flat) != support:
            raise MoveError(
                "re-pairing must partition the four support cuffs into two groups"
            )
        sizes = sorted(len(side) for side in pairing)
        if sizes != [2, 2]:
            if _degenerate_pairing_disconnects(pd, mv.removed, pairing):
                raise MoveError(
                    "re-pairing disconnects the graph: the fresh curve would "
                    "close up on one pants and isolate it"
                )
            raise MoveError(
                "re-pairing must split the support cuffs two-and-two; a curve "
                "in a four-holed sphere separates its boundary two against two"
            )
        pairing = sorted(tuple(sorted(side)) for side in pairing)
    return _apply_repairing(pd, mv.removed, mv.added, pairing)


def _apply_repairing(pd, removed, added, pairing) -> PantsDecomposition:
    """Replace non-loop curve ``removed`` by ``added`` under a legal re-pairing.

    The shared step of every A-move, with no checks of its own: ``pairing``
    must split exactly the support cuffs of ``removed`` two-and-two, each
    group in sorted order and the group holding the smallest cuff first (the
    form :func:`enumerate_pairings` gives), and ``added`` must be a curve id
    absent from ``pd``.  :func:`apply_move` establishes this for any move;
    ``search.search_path`` holds it by construction.
    """
    # The two support pants keep their ids; the group containing the
    # smallest cuff goes to the smaller pants id.  Slot 1 of each new pants
    # carries the fresh curve, slots 2 and 3 its two cuffs in sorted order.
    (u, _), (v, _) = pd.edges[removed]
    new_a, new_b = (u, v) if u < v else (v, u)
    (c1, c2), (c3, c4) = pairing
    placement = {c1: (new_a, 2), c2: (new_a, 3), c3: (new_b, 2), c4: (new_b, 3)}
    edges = {curve: (placement.get(a, a), placement.get(b, b))
             for curve, (a, b) in pd.edges.items() if curve != removed}
    edges[added] = ((new_a, 1), (new_b, 1))
    legs = {label: placement.get(cuff, cuff) for label, cuff in pd.legs.items()}
    # Two-and-two keeps the graph connected: the two new pants are joined by
    # the fresh curve and keep all four support cuffs between them.
    return PantsDecomposition(pants=pd.pants, edges=edges, legs=legs)


def _degenerate_pairing_disconnects(pd, removed, pairing) -> bool:
    """Would a three-and-one split leave the graph disconnected?

    For the diagnostic only: build the candidate graph in which the fresh
    curve closes up as a self-loop on the one-cuff side and test
    connectivity.
    """
    small = min(pairing, key=len)
    if len(small) != 1:
        return False
    (u, _), (v, _) = pd.edges[removed]
    lone = small[0]
    support = _support_cuffs(pd, removed)

    def moved(cuff):
        # Support cuffs move to the pants of their pairing group.
        return u if cuff == lone else (v if cuff in support else cuff[0])

    pairs = [(moved(a), moved(b)) for curve, (a, b) in pd.edges.items() if curve != removed]
    return len(components(pd.pants, pairs)) > 1


def common_curves(c_k: PantsDecomposition, c_next: PantsDecomposition) -> frozenset:
    """The curves shared by two consecutive decompositions of a path.

    Equal curve id sets are allowed and return everything (the degenerate
    closed-up path); otherwise the sets must differ by exactly one removed
    and one added curve.
    """
    ids_k = set(c_k.edges)
    ids_next = set(c_next.edges)
    if ids_k == ids_next:
        return frozenset(ids_k)
    gone = ids_k - ids_next
    new = ids_next - ids_k
    if len(gone) != 1 or len(new) != 1:
        raise MoveError(
            "not an elementary move: decompositions differ in "
            f"{sorted(gone)} / {sorted(new)}"
        )
    return frozenset(ids_k & ids_next)


def replay(path: PantsPath) -> list:
    """The decompositions C_0, ..., C_n obtained by applying the moves in order."""
    decomps = [path.start]
    for mv in path.moves:
        decomps.append(apply_move(decomps[-1], mv))
    return decomps


def closure_vertex_map(path: PantsPath, decomps: list):
    """The vertex map C_n -> C_0 extending the closure of ``decomps``, or None."""
    return vertex_map_from_curve_bijection(decomps[-1], decomps[0], dict(path.closure))


def validate_path(path: PantsPath) -> ValidationReport:
    """The report of :func:`check_path`: every path invariant, failures by step index."""
    return check_path(path)[0]


def check_path(path: PantsPath):
    """Check every path invariant; return ``(report, sig, decomps, closure_map)``.

    Checks, in order: the start spans a surface and passes
    :func:`validate_pants`; every move passes :func:`apply_move`'s checks,
    which take a valid decomposition to a valid one of the same surface, so
    no intermediate decomposition is validated again; the closure is a curve
    bijection from C_n onto C_0 extending to a decorated-graph isomorphism
    that respects leg labels.  Failures carry their step index.  ``sig`` is
    the start's :class:`SurfaceSig` (None when it spans no surface),
    ``decomps`` the replayed C_0, ..., C_n, cut short at a failing move, and
    ``closure_map`` the closure's vertex map C_n -> C_0, or None when the
    closure was not checked or does not extend.
    """
    report = ValidationReport()
    decomps = [path.start]
    try:
        sig = path.start.surface_sig()
    except TribranchError as err:
        # Fewer than V - 1 curves: the pants graph cannot even be connected.
        report.add("start-invalid", f"start decomposition spans no surface: {err}; "
                   "replay skipped", "step 0")
        return report, None, decomps, None
    report.extend(validate_pants(sig, path.start))
    if not report.ok:
        report.add("start-invalid", "start decomposition invalid; replay skipped", "step 0")
        return report, sig, decomps, None

    for k, mv in enumerate(path.moves):
        try:
            decomps.append(apply_move(decomps[-1], mv))
        except MoveError as err:
            report.add("move-failed", str(err), f"step {k}")
            return report, sig, decomps, None

    final = decomps[-1]
    closure = dict(path.closure)
    if sorted(closure) != sorted(final.edges):
        report.add("closure-domain",
                   "closure keys differ from the curves of the final system",
                   "closure")
        return report, sig, decomps, None
    if sorted(closure.values()) != sorted(path.start.edges):
        report.add("closure-range",
                   "closure values differ from the curves of the start system",
                   "closure")
        return report, sig, decomps, None
    closure_map = closure_vertex_map(path, decomps)
    if closure_map is None:
        # Distinguish the common leg-adjacency mistake for a sharper message.
        if _breaks_leg_adjacency(final, path.start, closure):
            report.add("closure-legs", "closure not leg-preserving", "closure")
        else:
            report.add(
                "closure-iso",
                "closure does not extend to a decorated-graph isomorphism",
                "closure",
            )
    return report, sig, decomps, closure_map


def _breaks_leg_adjacency(final, start, closure) -> bool:
    def leg_adjacent(pd):
        leg_pants = {cuff[0] for cuff in pd.legs.values()}
        return {
            c for c in pd.edges
            if pd.edges[c][0][0] in leg_pants or pd.edges[c][1][0] in leg_pants
        }

    src = leg_adjacent(final)
    dst = leg_adjacent(start)
    return any((c in src) != (closure[c] in dst) for c in closure)
