"""Exhaustive reference versions of the isomorphism routines in ``surfaces``.

Each tries every vertex bijection in lexicographic order, so it costs V!
and is meant for the few pants of the property suites only.  The package
routines must return exactly what these return: equal canonical keys for
exactly the leg-respecting isomorphic pairs, and the same lexicographically
smallest vertex maps.
"""

from __future__ import annotations

import itertools

from tribranch.surfaces import PantsDecomposition


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
