"""Seeded benchmark inputs whose answers are known in closed form.

Nothing here imports ``tribranch``: the inputs, and the answers they are
checked against, must not come from the code under test.

Homology.  A page of genus g with b boundary circles has
H_1(page) = Z^k, k = 2g + b - 1, in the basis a_1, b_1, ..., a_g, b_g,
c_1, ..., c_{b-1}.  The monodromy action is M = P D P^-1 where

* D is block diagonal: one SL(2,Z) block [[1, 1], [t-2, t-1]] per handle and
  the identity on the boundary classes;
* P is a product of transvections x -> x + <x, c> c for seeded classes c.
  P^-1 is the reversed product of the inverse transvections x -> x - <x, c> c.

With zero boundary windings H_1(M) = coker(M - 1) = coker(D - 1), and each
block of D - 1 = [[0, 1], [t-2, t-2]] contributes Z/|t-2| (Z when t = 2,
nothing when |t-2| = 1).  The boundary classes contribute Z^(b-1).  The
invariant factors of the sum follow from the prime-power parts.

Pants decompositions are decorated trivalent graphs in the spec-file
shape: ``pants`` (set of ids), ``edges`` (curve -> (cuff, cuff)) and ``legs``
(label -> cuff), a cuff being (pants id, slot 1..3).  Moves follow the
spec-file semantics: an A-move re-pairs the four support cuffs two and two;
the group holding the smallest cuff goes to the smaller pants id, the fresh
curve takes slot 1 of both pants and each group fills slots 2 and 3 in
sorted order.  An S-move renames a self-loop.
"""

from __future__ import annotations

import json

# ---------------------------------------------------------------------------
# Integer matrices as lists of rows.
# ---------------------------------------------------------------------------


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def form(g, b):
    """The intersection form on H_1 of F(g, b): symplectic on a/b pairs."""
    k = 2 * g + b - 1
    j = [[0] * k for _ in range(k)]
    for i in range(g):
        j[2 * i][2 * i + 1] = 1
        j[2 * i + 1][2 * i] = -1
    return j


def handle_block(t):
    return [[1, 1], [t - 2, t - 1]]


def symplectic_pair(g, b, rng, n_twists):
    """A dense P from seeded transvections, and P^-1 from their inverses.

    Each factor T = 1 + c (Jc)^T is applied as a rank-one update:
    P T = P + (P c)(Jc)^T and T^-1 P^-1 = P^-1 - c ((Jc)^T P^-1).
    """
    k = 2 * g + b - 1
    j = form(g, b)
    p = identity(k)
    p_inv = identity(k)
    for _ in range(n_twists):
        c = [rng.choice((-1, 0, 1)) for _ in range(k)]
        u = [sum(j[i][l] * c[l] for l in range(k)) for i in range(k)]
        pc = [sum(row[l] * c[l] for l in range(k)) for row in p]
        u_p_inv = [sum(u[l] * p_inv[l][s] for l in range(k)) for s in range(k)]
        p = [[x + pc[r] * u[s] for s, x in enumerate(row)] for r, row in enumerate(p)]
        p_inv = [[x - c[r] * u_p_inv[s] for s, x in enumerate(row)]
                 for r, row in enumerate(p_inv)]
    return p, p_inv


def monodromy_matrix(g, b, ts, rng, n_twists):
    """M = P D P^-1 with one handle block per entry of ``ts``."""
    p, p_inv = symplectic_pair(g, b, rng, n_twists)
    pd = [list(row) for row in p]
    for i, t in enumerate(ts):
        (d00, d01), (d10, d11) = handle_block(t)
        for row, src in zip(pd, p):
            x, y = src[2 * i], src[2 * i + 1]
            row[2 * i], row[2 * i + 1] = x * d00 + y * d10, x * d01 + y * d11
    return matmul(pd, p_inv)


def _prime_powers(n):
    out = {}
    q = 2
    while q * q <= n:
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
        q += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def torsion_invariants(orders):
    """Invariant factors (ascending, each dividing the next) of sum Z/n_i."""
    per_prime = {}
    for n in orders:
        for q, e in _prime_powers(n).items():
            per_prime.setdefault(q, []).append(e)
    length = max((len(es) for es in per_prime.values()), default=0)
    factors = [1] * length
    for q, es in per_prime.items():
        for i, e in enumerate(sorted(es, reverse=True)):
            factors[length - 1 - i] *= q ** e
    return tuple(factors)


def expected_h1(b, ts):
    """(free rank, torsion) of H_1(M) for boundary count b and handle twists ts."""
    free = b - 1 + sum(1 for t in ts if t == 2)
    orders = [abs(t - 2) for t in ts if abs(t - 2) >= 2]
    return free, torsion_invariants(orders)


def h1_json(free, torsion):
    """The report's JSON shape of an abelian group."""
    return {"free_rank": free, "torsion": list(torsion),
            "invariant_factors": list(torsion) + [0] * free}


def min_generators(free, torsion):
    return free + len(torsion)


# ---------------------------------------------------------------------------
# Pants decompositions and moves.
# ---------------------------------------------------------------------------


def standard(g, b):
    """A chain P0 - P1 - ... with genus loops at the chain ends, legs after."""
    v = 2 * g + b - 2
    pants = [f"P{i}" for i in range(v)]
    free = {p: [1, 2, 3] for p in pants}
    edges = {}
    n = 0
    for i in range(v - 1):
        n += 1
        edges[f"c{n}"] = ((pants[i], free[pants[i]].pop(0)),
                          (pants[i + 1], free[pants[i + 1]].pop(0)))
    for i in range(g):
        p = (pants[0], pants[-1])[i % 2]
        n += 1
        edges[f"c{n}"] = ((p, free[p].pop(0)), (p, free[p].pop(0)))
    legs = {}
    for p in pants:
        while free[p]:
            legs[len(legs) + 1] = (p, free[p].pop(0))
    return {"pants": frozenset(pants), "edges": edges, "legs": legs}


def support_cuffs(pd, curve):
    (u, su), (v, sv) = pd["edges"][curve]
    return [(u, s) for s in (1, 2, 3) if s != su] + [(v, s) for s in (1, 2, 3) if s != sv]


def is_loop(pd, curve):
    (u, _), (v, _) = pd["edges"][curve]
    return u == v


def apply(pd, removed, added, pairing=None):
    """Apply one move with the spec-file semantics."""
    edges = dict(pd["edges"])
    if is_loop(pd, removed):
        edges[added] = edges.pop(removed)
        return {"pants": pd["pants"], "edges": edges, "legs": dict(pd["legs"])}
    (u, _), (v, _) = pd["edges"][removed]
    cuffs = support_cuffs(pd, removed)
    if pairing is None:
        pairing = (tuple(c for c in cuffs if c[0] == u), tuple(c for c in cuffs if c[0] == v))
    new_a, new_b = sorted((u, v))
    placement = {}
    for pid, group in zip((new_a, new_b), sorted(tuple(sorted(s)) for s in pairing)):
        for slot, cuff in zip((2, 3), group):
            placement[cuff] = (pid, slot)
    del edges[removed]
    edges = {c: tuple(placement.get(e, e) for e in ends) for c, ends in edges.items()}
    edges[added] = ((new_a, 1), (new_b, 1))
    legs = {lab: placement.get(c, c) for lab, c in pd["legs"].items()}
    return {"pants": pd["pants"], "edges": edges, "legs": legs}


def random_move(pd, rng, added):
    """A random legal move as (removed, added, kind, pairing)."""
    curve = rng.choice(sorted(pd["edges"]))
    if is_loop(pd, curve):
        return (curve, added, "S", None)
    cuffs = sorted(support_cuffs(pd, curve))
    partner = rng.choice(cuffs[1:])
    rest = tuple(c for c in cuffs[1:] if c != partner)
    return (curve, added, "A", ((cuffs[0], partner), rest))


def _content(pd, cuff):
    for c, ends in pd["edges"].items():
        if cuff in ends:
            return c
    for lab, where in pd["legs"].items():
        if where == cuff:
            return ("leg", lab)
    raise ValueError(f"empty cuff {cuff}")


def inverse_move(pre, mv, cur):
    """The move on ``cur`` that removes ``mv``'s fresh curve and re-adds ``mv``'s
    removed id with the grouping ``pre`` had, matched by cuff contents."""
    removed, added, kind, _ = mv
    if kind == "S":
        return (added, removed, "S", None)
    (u, _), _ = pre["edges"][removed]
    side_u = [_content(pre, c) for c in support_cuffs(pre, removed) if c[0] == u]
    group_u, group_v = [], []
    for cuff in sorted(support_cuffs(cur, added)):
        content = _content(cur, cuff)
        if content in side_u and len(group_u) < 2:
            side_u.remove(content)
            group_u.append(cuff)
        else:
            group_v.append(cuff)
    return (added, removed, "A", (tuple(group_u), tuple(group_v)))


def neighbours(pd, added):
    """Every decomposition one A-move away (all three re-pairings of each curve).

    S-moves only rename a curve, so they never leave the isomorphism class.
    """
    out = []
    for curve in sorted(pd["edges"]):
        if is_loop(pd, curve):
            continue
        cuffs = sorted(support_cuffs(pd, curve))
        for partner in cuffs[1:]:
            rest = tuple(c for c in cuffs[1:] if c != partner)
            out.append(apply(pd, curve, added, ((cuffs[0], partner), rest)))
    return out


class Neighbourhood:
    """The decompositions within one move of ``start``, for distance classes.

    The ring is indexed by :func:`signature`, so that a decomposition is
    compared by the brute-force :func:`isomorphism` only with the few ring
    members that share its signature.  Moves are invertible, so a target lies
    two moves from the start exactly when one of its own neighbours is in the
    ring.
    """

    def __init__(self, start):
        self.ring1 = [start] + neighbours(start, "x1")
        self.index1 = _index(self.ring1)

    def distance(self, target):
        """1 if ``target`` is within one move of the start, 2 if within two, else 3."""
        if _member(self.index1, target):
            return 1
        if any(_member(self.index1, n) for n in neighbours(target, "x2")):
            return 2
        return 3

    def classes1(self):
        """The number of isomorphism classes one move away, the start's own excluded."""
        start, reps = self.ring1[0], []
        for pd in self.ring1[1:]:
            if isomorphism(pd, start) is None and all(isomorphism(pd, r) is None for r in reps):
                reps.append(pd)
        return len(reps)


def _index(pds):
    out = {}
    for pd in pds:
        out.setdefault(signature(pd), []).append(pd)
    return out


def _member(index, target):
    return any(isomorphism(target, pd) is not None for pd in index.get(signature(target), ()))


def signature(pd):
    """An isomorphism invariant: for each pants its leg labels, its self-loops
    and its edge multiplicities to the other pants with their leg labels."""
    legs = {p: [] for p in pd["pants"]}
    for lab, (p, _) in pd["legs"].items():
        legs[p].append(lab)
    legs = {p: tuple(sorted(labs)) for p, labs in legs.items()}
    mult = _multiplicity(pd)
    rows = []
    for p in pd["pants"]:
        others = sorted((m, legs[v if u == p else u]) for (u, v), m in mult.items()
                        if p in (u, v) and u != v)
        rows.append((legs[p], mult.get((p, p), 0), tuple(others)))
    return tuple(sorted(rows))


def walk(pd, rng, n, prefix):
    """A random walk of n moves; returns the moves and the visited states."""
    states, moves = [pd], []
    for i in range(n):
        mv = random_move(states[-1], rng, f"{prefix}{i + 1}")
        moves.append(mv)
        states.append(apply(states[-1], mv[0], mv[1], mv[3]))
    return moves, states


def _multiplicity(pd):
    out = {}
    for (u, _), (v, _) in pd["edges"].values():
        key = (min(u, v), max(u, v))
        out[key] = out.get(key, 0) + 1
    return out


def isomorphism(a, b):
    """A leg-respecting vertex bijection a -> b of decorated graphs, or None.

    Brute force over vertex bijections, pruned by leg labels and edge
    multiplicities; meant for the few pants of benchmark inputs.
    """
    if len(a["pants"]) != len(b["pants"]) or len(a["edges"]) != len(b["edges"]):
        return None
    if sorted(a["legs"]) != sorted(b["legs"]):
        return None
    legs_a = {p: sorted(l for l, c in a["legs"].items() if c[0] == p) for p in a["pants"]}
    legs_b = {p: sorted(l for l, c in b["legs"].items() if c[0] == p) for p in b["pants"]}
    mult_a, mult_b = _multiplicity(a), _multiplicity(b)
    order = sorted(a["pants"])
    targets = sorted(b["pants"])
    vmap = {}

    def mult(m, x, y):
        return m.get((min(x, y), max(x, y)), 0)

    def extend(i):
        if i == len(order):
            return True
        p = order[i]
        for q in targets:
            if q in vmap.values() or legs_a[p] != legs_b[q]:
                continue
            if any(mult(mult_a, p, r) != mult(mult_b, q, vmap[r]) for r in order[:i]):
                continue
            if mult(mult_a, p, p) != mult(mult_b, q, q):
                continue
            vmap[p] = q
            if extend(i + 1):
                return True
            del vmap[p]
        return False

    return dict(vmap) if extend(0) else None


def curve_map(a, b, vmap):
    """Curves of a onto curves of b along a vertex map, parallel curves in id order."""
    by_ends = {}
    for c in sorted(b["edges"]):
        (u, _), (v, _) = b["edges"][c]
        by_ends.setdefault(tuple(sorted((u, v))), []).append(c)
    out = {}
    for c in sorted(a["edges"]):
        (u, _), (v, _) = a["edges"][c]
        out[c] = by_ends[tuple(sorted((vmap[u], vmap[v])))].pop(0)
    return out


def closed_path(pd, rng, n_forward):
    """A walk of n_forward moves mirrored back by inverse moves, with its closure."""
    moves, states = walk(pd, rng, n_forward, "r")
    cur = states[-1]
    for i in range(len(moves) - 1, -1, -1):
        inv = inverse_move(states[i], moves[i], cur)
        moves.append(inv)
        cur = apply(cur, inv[0], inv[1], inv[3])
    vmap = isomorphism(cur, pd)
    if vmap is None:
        raise ValueError("mirrored walk did not close up")
    return moves, curve_map(cur, pd, vmap)


def closure_map(final, start, closure):
    """The lexicographically first vertex map final -> start that extends the
    curve bijection ``closure`` and respects leg labels."""
    order = sorted(final["pants"])
    targets = sorted(start["pants"])
    need = {final["legs"][lab][0]: start["legs"][lab][0] for lab in final["legs"]}
    ends = {c: sorted(e[0] for e in final["edges"][c]) for c in final["edges"]}
    images = {c: sorted(e[0] for e in start["edges"][closure[c]]) for c in final["edges"]}
    vmap = {}

    def consistent():
        return all(sorted(vmap[p] for p in ends[c]) == images[c]
                   for c in ends if all(p in vmap for p in ends[c]))

    def extend(i):
        if i == len(order):
            return True
        for q in targets:
            if q in vmap.values() or need.get(order[i], q) != q:
                continue
            vmap[order[i]] = q
            if consistent() and extend(i + 1):
                return True
            del vmap[order[i]]
        return False

    if not extend(0):
        raise ValueError("closure does not extend to a vertex map")
    return vmap


def closure_rank(final, start, closure):
    """How deep into ``itertools.permutations(sorted(start pants))`` the
    ``closure_map`` lies: the number of vertex bijections an exhaustive,
    early-exit extension of the closure tries before it succeeds, less one."""
    vmap = closure_map(final, start, closure)
    rank, unused = 0, sorted(start["pants"])
    for i, p in enumerate(sorted(final["pants"])):
        pos = unused.index(vmap[p])
        rank = rank * (len(unused)) + pos
        unused.pop(pos)
    return rank


def replay(pd, moves):
    for removed, added, _kind, pairing in moves:
        pd = apply(pd, removed, added, pairing)
    return pd


# ---------------------------------------------------------------------------
# JSON documents in the spec-file format.
# ---------------------------------------------------------------------------


def decomposition_json(pd):
    return {
        "pants": sorted(pd["pants"]),
        "edges": {c: [list(e[0]), list(e[1])] for c, e in sorted(pd["edges"].items())},
        "legs": {str(lab): list(pd["legs"][lab]) for lab in sorted(pd["legs"])},
    }


def move_json(mv):
    removed, added, kind, pairing = mv
    doc = {"removed": removed, "added": added, "kind": kind}
    if pairing is not None:
        doc["pairing"] = [[list(c) for c in side] for side in pairing]
    return doc


def spec_json(g, b, matrix, path=None, name=""):
    monodromy = {"h1_matrix": matrix}
    if path is not None:
        start, moves, closure = path
        monodromy["pants_path"] = {
            "start": decomposition_json(start),
            "moves": [move_json(m) for m in moves],
            "closure": dict(sorted(closure.items())),
        }
    return {"format": "tribranch-spec/1", "name": name,
            "page": {"genus": g, "boundary": b}, "monodromy": monodromy}


def dumps(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def from_json(doc):
    """A decomposition JSON document back into the tuple shape used here."""
    return {
        "pants": frozenset(doc["pants"]),
        "edges": {c: (tuple(e[0]), tuple(e[1])) for c, e in doc["edges"].items()},
        "legs": {int(k): tuple(v) for k, v in doc["legs"].items()},
    }
