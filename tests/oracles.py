"""Reference versions of package routines, for the property suites only.

The isomorphism routines of ``surfaces`` are tried here on every vertex
bijection in lexicographic order, so each costs V! and is meant for the few
pants of the property suites.  The package routines must return exactly
what these return: equal canonical keys for exactly the leg-respecting
isomorphic pairs, and the same lexicographically smallest vertex maps.

``h1_presentation`` is the H_1 presentation of an open book with nothing
eliminated; ``openbook.h1_open_book`` must give its cokernel.
"""

from __future__ import annotations

import itertools

from tribranch.intalg import IntMatrix
from tribranch.surfaces import PantsDecomposition


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
