"""Reference versions of package routines, for the property suites only.

The isomorphism routines of ``search`` are tried here on every vertex
bijection in lexicographic order, so each costs V! and is meant for the few
pants of the property suites.  The package routines must return exactly
what these return: equal canonical keys for exactly the leg-respecting
isomorphic pairs, and the same lexicographically smallest vertex maps.

``refine_until_stable`` is the colour refinement that always runs one
more round to confirm that nothing splits, even once every pants has a
colour of its own.  ``stable_colours`` is ``search._colours`` built on
it: the stable colouring and the non-loop neighbours it was refined on,
with leg labels and self-loop counts only seeding the first colouring.
``individualised_key`` is ``search.canonical_key`` built on it, by a
recursive search rather than the package's leaf generator.  The package
routines must return exactly what these return.

``h1_presentation`` is the H_1 presentation of an open book with nothing
eliminated; ``openbook.h1_open_book`` must give its cokernel.

``enumerate_pairings`` finds the original grouping of an A-move support by
comparing each re-pairing with the cuffs of one support pants, and
``original_grouping`` is the pairing a move with no pairing keeps;
``paths.enumerate_pairings`` must return the same list, and
``paths.apply_move`` with no pairing the decomposition that pairing gives.

``search_path_all_moves`` is the breadth-first search expanding every move,
S-moves and the re-pairing that keeps the original grouping included;
``search.search_path`` must return the same moves and closure.  It also
counts the new classes it queued before the target, which tells a target
met past the search's horizon.

``complex_fingerprint`` is a label-free invariant of a complex: colour
refinement on its graph of branches, circles and blocks.  Relations between
two constructions of one manifold compare it.

``complex_document`` builds the complex document as a dict, one record at a
time; ``schema.complex_json`` must write exactly the bytes of
``json.dumps(complex_document(tc), sort_keys=True, indent=2) + "\n"``.
"""

from __future__ import annotations

import itertools
from collections import deque

from tribranch.intalg import IntMatrix
from tribranch.paths import (
    S_MOVE,
    PantsMove,
    PantsPath,
    apply_move,
    move_kind,
)
from tribranch.schema import COMPLEX_FORMAT
from tribranch.search import canonical_key as package_canonical_key
from tribranch.search import find_isomorphism as package_find_isomorphism
from tribranch.surfaces import PantsDecomposition, SurfaceSig


def h1_presentation(spec) -> IntMatrix:
    """The (k + 1) x (k + b) matrix [[M - 1, W], [0, 1 ... 1]] of an open book.

    Rows are the basis of H_1(page) and the suspension class t; columns are
    the relations (M - 1) e_j for every basis class, boundary classes
    included, and t + w_i for every boundary circle.
    """
    m, w = spec.monodromy.matrix, spec.winding_matrix()
    k, b = w.rows, w.cols
    rows = [[m.entries[i][j] - (i == j) for j in range(k)] + list(w.entries[i])
            for i in range(k)]
    rows.append([0] * k + [1] * b)
    return IntMatrix.from_rows(rows)


def complex_fingerprint(tc) -> tuple:
    """Colour refinement on the incidence graph of ``tc``, with every id left out.

    The nodes are the branches, the branching circles and the blocks; a
    germ joins a circle to its branch and a side joins a branch to its
    block.  A branch starts coloured by its taxonomy and signature, a block
    by its kind, base and boundary label.  Each of four rounds recolours a
    node by its colour and the sorted colours of its neighbours, as ranks.
    The fingerprint holds each round's sorted signatures, so equal
    fingerprints mean the refinement cannot tell the two graphs apart.
    """
    colour = {("branch", b.id): (b.taxonomy, b.sig) for b in tc.branches}
    colour.update({("circle", c.id): ("circle",) for c in tc.circles})
    colour.update({("block", b.id): (b.kind, b.base, b.boundary_label) for b in tc.blocks})
    nbrs = {node: [] for node in colour}
    incidences = [(("circle", c.id), ("branch", g[0])) for c in tc.circles for g in c.germs]
    incidences += [(("branch", b), ("block", blk)) for b, pair in tc.sides.items() for blk in pair]
    for x, y in incidences:
        nbrs[x].append(y)
        nbrs[y].append(x)
    history = [tuple(sorted(colour.values()))]
    colour = _ranks(colour)
    for _ in range(4):
        signature = {n: (c, tuple(sorted(colour[m] for m in nbrs[n]))) for n, c in colour.items()}
        history.append(tuple(sorted(signature.values())))
        colour = _ranks(signature)
    return tuple(history)


def canonical_key(pd: PantsDecomposition) -> tuple:
    """The minimum over all vertex orders of the sorted edge list and leg positions."""
    best = None
    for order in itertools.permutations(sorted(pd.pants)):
        index = {p: i for i, p in enumerate(order)}
        edges = sorted(tuple(sorted((index[u], index[v])))
                       for (u, _), (v, _) in pd.edges.values())
        enc = (tuple(edges), tuple(index[pd.legs[label][0]] for label in sorted(pd.legs)))
        if best is None or enc < best:
            best = enc
    return best


def _ranks(signature: dict) -> dict:
    rank = {sig: i for i, sig in enumerate(sorted(set(signature.values())))}
    return {p: rank[sig] for p, sig in signature.items()}


def refine_until_stable(colour: dict, nbrs: dict) -> dict:
    """Split colour classes by the sorted neighbour colours until a round splits none."""
    n_colours = len(set(colour.values()))
    while True:
        finer = _ranks({p: (c, tuple(sorted(colour[q] for q in nbrs[p])))
                        for p, c in colour.items()})
        n_finer = len(set(finer.values()))
        if n_finer == n_colours:
            return colour
        colour, n_colours = finer, n_finer


def stable_colours(pd: PantsDecomposition):
    """``(colour, nbrs)`` as ``search._colours`` returns them."""
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
    colour = refine_until_stable(_ranks({p: (legs[p], loops[p]) for p in pd.pants}), nbrs)
    return colour, nbrs


def individualised_key(pd: PantsDecomposition) -> tuple:
    """The smallest leaf encoding of individualisation-refinement.

    Each pants of the first class with several pants gets a colour of its
    own in turn and the colouring is refined again; a discrete colouring
    orders the pants by colour and is encoded like the exhaustive key.
    """
    colour, nbrs = stable_colours(pd)
    best = None

    def search(colour):
        nonlocal best
        cells = {}
        for p, c in colour.items():
            cells.setdefault(c, []).append(p)
        split = min((c for c, members in cells.items() if len(members) > 1), default=None)
        if split is None:
            index = {p: i for i, p in enumerate(sorted(colour, key=colour.get))}
            edges = sorted(tuple(sorted((index[u], index[v])))
                           for (u, _), (v, _) in pd.edges.values())
            enc = (tuple(edges), tuple(index[pd.legs[label][0]] for label in sorted(pd.legs)))
            if best is None or enc < best:
                best = enc
            return
        for p in cells[split]:
            search(refine_until_stable(_ranks({q: (c, q != p) for q, c in colour.items()}),
                                       nbrs))

    search(colour)
    return best


def find_isomorphism(a: PantsDecomposition, b: PantsDecomposition):
    """The leg-respecting isomorphism a -> b with the smallest vertex map, or None."""
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


def vertex_map_from_curve_bijection(a: PantsDecomposition, b: PantsDecomposition,
                                    curve_map: dict):
    """The smallest vertex map extending the curve bijection and the legs, or None.

    A leg label of ``a`` that ``b`` lacks makes every vertex map invalid.
    """
    if sorted(curve_map) != sorted(a.edges) or sorted(curve_map.values()) != sorted(b.edges):
        return None
    a_pants = sorted(a.pants)
    for image in itertools.permutations(sorted(b.pants)):
        vmap = dict(zip(a_pants, image))
        ok = all(l in b.legs and vmap[a.legs[l][0]] == b.legs[l][0] for l in a.legs)
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


def _support_cuffs(pd: PantsDecomposition, removed) -> list:
    (u, su), (v, sv) = pd.edges[removed]
    return [(u, s) for s in (1, 2, 3) if s != su] + [(v, s) for s in (1, 2, 3) if s != sv]


def enumerate_pairings(pd: PantsDecomposition, removed) -> list:
    """The three two-and-two splits of the support cuffs, the original grouping first.

    Every split pairs the smallest cuff with one of the other three; the
    split whose groups are the cuffs of the two support pants goes first and
    the other two follow in sorted order.  Inputs are not checked.
    """
    cuffs = sorted(_support_cuffs(pd, removed))
    a = cuffs[0]
    rest = cuffs[1:]
    pairings = []
    for partner in rest:
        other = tuple(c for c in rest if c != partner)
        pairings.append(((a, partner), other))
    (u, _), _ = pd.edges[removed]
    orig = tuple(sorted(c for c in cuffs if c[0] == u))

    def is_original(p):
        return tuple(sorted(p[0])) == orig or tuple(sorted(p[1])) == orig

    pairings.sort(key=lambda p: (not is_original(p), p))
    return pairings


def original_grouping(pd: PantsDecomposition, removed) -> tuple:
    """The pairing that keeps each support pants' two cuffs together."""
    (u, _), (v, _) = pd.edges[removed]
    support = _support_cuffs(pd, removed)
    side_a = tuple(sorted(c for c in support if c[0] == u))
    side_b = tuple(sorted(c for c in support if c[0] == v))
    return side_a, side_b


def search_path_all_moves(c: PantsDecomposition, c_target: PantsDecomposition,
                          budget: int):
    """``search_path`` generating every candidate of a node, in the same order.

    Each curve in sorted order contributes its S-move, or its three A-move
    re-pairings in the order of ``enumerate_pairings``; the move at depth d
    adds the d-th name of ``n1, n2, ...`` that is not a curve of ``c``.
    Returns the path, or None, and the number of new classes queued before
    the target or the end.  Inputs are not checked.
    """
    target_key = package_canonical_key(c_target)

    def finish(pd, moves):
        _, emap = package_find_isomorphism(pd, c_target)
        return PantsPath(start=c, moves=moves, closure=dict(emap))

    def fresh(depth):
        names = (f"n{j}" for j in itertools.count(1) if f"n{j}" not in c.edges)
        return next(itertools.islice(names, depth, None))

    start_key = package_canonical_key(c)
    if start_key == target_key:
        return finish(c, []), 0
    seen = {start_key}
    queue = deque([(c, [])])
    expanded = 0
    while queue and expanded < budget:
        pd, moves = queue.popleft()
        expanded += 1
        for curve in pd.curve_ids():
            kind = move_kind(pd, curve)
            pairings = [None] if kind == S_MOVE else enumerate_pairings(pd, curve)
            for pairing in pairings:
                mv = PantsMove(curve, fresh(len(moves)), kind, pairing)
                nxt = apply_move(pd, mv)
                key = package_canonical_key(nxt)
                if key in seen:
                    continue
                if key == target_key:
                    return finish(nxt, moves + [mv]), len(seen) - 1
                seen.add(key)
                queue.append((nxt, moves + [mv]))
    return None, len(seen) - 1


def _sig_json(sig) -> dict:
    return {"genus": sig.genus, "boundary": sig.n_boundary}


def branch_json(b) -> dict:
    return {
        "id": b.id,
        "sig": _sig_json(b.sig),
        "taxonomy": b.taxonomy,
        "slots": list(b.slots),
        "level": b.level,
        "refs": {k: b.refs[k] for k in sorted(b.refs)},
    }


def circle_json(c) -> dict:
    return {"id": c.id, "germs": [list(g) for g in c.germs]}


def block_json(b) -> dict:
    return {
        "id": b.id,
        "kind": b.kind,
        "base": None if b.base is None else _sig_json(b.base),
        "boundary_label": b.boundary_label,
        "pi1_rank_bound": b.pi1_rank_bound,
    }


def complex_document(tc) -> dict:
    """The complex document of ``tc``, built as a dict."""
    return {
        "format": COMPLEX_FORMAT,
        "branches": [branch_json(b) for b in tc.branches],
        "circles": [circle_json(c) for c in tc.circles],
        "blocks": [block_json(b) for b in tc.blocks],
        "sides": {k: list(tc.sides[k]) for k in sorted(tc.sides)},
        "meta": {k: _sig_json(v) if isinstance(v, SurfaceSig) else v
                 for k, v in sorted(tc.meta.items())},
        "inventory": tc.inventory(),
    }
