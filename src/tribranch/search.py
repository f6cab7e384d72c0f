"""Canonical forms and isomorphisms of pants decompositions, and the path search.

No command loads this module: ``certify`` replays a given pants path and
extends its closure by a lookup, so it never keys, compares or searches.

Two decompositions are compared as decorated trivalent multigraphs with
labelled legs; curve ids, pants ids and slot numbers are bookkeeping and
carry no meaning.  canonical_key and find_isomorphism read the leaves of
one search, individualisation-refinement (McKay & Piperno, Practical graph
isomorphism II, J. Symbolic Comput. 60, 2014).  A pants starts coloured by
its leg labels and self-loop count, and colour classes are split by the
sorted colours of the non-loop neighbours until the partition is stable or
discrete.  A colour is always the rank of a sorted signature, never a
pants id, so colours are comparable between two decompositions.  A leaf
is a discrete colouring, numbering the pants 0..V-1; the leaves with one
encoding differ exactly by the automorphisms of the graph.

Search operates on leg-respecting isomorphism classes of decorated graphs,
which is weaker than isotopy classes of curve systems on the surface, but it
is exactly the granularity the downstream constructions consume.  A node's
candidates are the two genuine re-pairings of each of its non-loop curves:
an S-move, or an A-move that keeps the original grouping, only renames the
curve and permutes slots on its support pants, so it never leaves the
node's class.  A candidate the search may still expand costs one
:func:`canonical_key`, a colour refinement rather than a loop over vertex
orders.  One past the search's horizon can only be the target, and is first
compared with it by :func:`key_shape`, which costs about a fifth of a key.
The move at depth d of a found path adds the d-th of the curve ids ``n1,
n2, ...`` that the start does not carry.
"""

from __future__ import annotations

from collections import deque
from itertools import count

from .errors import TribranchError
from .paths import A_MOVE, PantsMove, PantsPath, _apply_repairing, enumerate_pairings
from .surfaces import PantsDecomposition, validate_pants


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


def search_path(c: PantsDecomposition, c_target: PantsDecomposition, budget: int):
    """Breadth-first search for a move sequence from ``c`` onto ``c_target``.

    The search runs over leg-respecting isomorphism classes of decorated
    graphs, expanding the two genuine re-pairings of every non-loop curve
    (indices 1 and 2 of ``paths.enumerate_pairings``), curve ids in sorted
    order.  S-moves and index 0 are skipped: they land in the class of the
    node being expanded, which is already seen, so expanding them would
    change neither the moves, nor the fresh ids, nor the closure.  The
    candidates skip ``paths.apply_move``'s checks, which they pass by
    construction, and give the decomposition it would.  At most
    ``budget`` nodes are expanded; exhaustion returns ``None`` (not an
    error); a budget that is not a positive ``int`` (a ``bool``, a float,
    a string) is a :class:`TribranchError`.  On success the returned path
    carries the found isomorphism as its closure and always satisfies
    ``paths.validate_path``.

    The move at depth d of a path adds the d-th of the names ``n1, n2,
    ...`` that are not curves of ``c``, however many classes came before it.
    Only the start and the first ``budget - 1`` classes queued are ever
    expanded.  Past that horizon a candidate can only be the target, so it
    is keyed only when its :func:`key_shape` matches the target's, and the
    others are dropped.  The results are those of the search that keys
    every candidate.
    """
    if isinstance(budget, bool) or not isinstance(budget, int) or budget < 1:
        raise TribranchError("budget must be a positive integer")
    sig = c.surface_sig()
    if sig != c_target.surface_sig():
        raise TribranchError(
            f"surface mismatch: {sig} vs {c_target.surface_sig()}"
        )
    if not validate_pants(sig, c).ok or not validate_pants(sig, c_target).ok:
        raise TribranchError("both decompositions must be valid for the search")

    target_key = canonical_key(c_target)

    def finish(pd, moves):
        # The closure records the realized isomorphism onto the target.  When
        # the target carries the same curve ids as the start (the closed-up
        # monodromy use), the result is a complete path accepted by
        # validate_path; otherwise it is an open fragment.
        iso = find_isomorphism(pd, c_target)
        if iso is None:
            raise TribranchError("search reached the target class without an isomorphism")
        _, emap = iso
        return PantsPath(start=c, moves=moves, closure=dict(emap))

    start_key = canonical_key(c)
    if start_key == target_key:
        return finish(c, [])

    # The moves out of a node at depth d add the (d + 1)-th of these names.
    names = (f"n{j}" for j in count(1) if f"n{j}" not in c.edges)
    fresh, depth = next(names), 0
    seen = {start_key}
    queue = deque([(c, [])])
    target_shape = key_shape(c_target)
    expanded = 0
    while queue and expanded < budget:
        pd, moves = queue.popleft()
        expanded += 1
        if len(moves) > depth:
            fresh, depth = next(names), len(moves)
        for curve in pd.curve_ids():
            if pd.is_self_loop(curve):
                continue
            for pairing in enumerate_pairings(pd, curve)[1:]:
                # apply_move's checks hold by construction: the curve is no
                # self-loop, so the move is an A-move; enumerate_pairings
                # splits exactly its support cuffs two-and-two, in sorted
                # groups; the fresh id is neither a start curve nor one an
                # earlier move of the path added, so pd does not carry it.
                nxt = _apply_repairing(pd, curve, fresh, pairing)
                if len(seen) < budget:
                    key = canonical_key(nxt)
                    if key in seen:
                        continue
                    seen.add(key)
                    path = moves + [PantsMove(curve, fresh, A_MOVE, pairing)]
                    if key == target_key:
                        return finish(nxt, path)
                    queue.append((nxt, path))
                elif key_shape(nxt) == target_shape and canonical_key(nxt) == target_key:
                    return finish(nxt, moves + [PantsMove(curve, fresh, A_MOVE, pairing)])
    return None
