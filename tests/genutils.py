"""Seeded random generators for the property suites.

The seed comes from the TRIBRANCH_SEED environment variable (dev harness
only); every suite builds its own Random instance so tests stay independent
of execution order.
"""

from __future__ import annotations

import itertools
import os
import random
import sys

from tribranch import (
    A_MOVE,
    S_MOVE,
    IntMatrix,
    MonodromyH1,
    OpenBookSpec,
    PantsDecomposition,
    PantsMove,
    PantsPath,
    SurfaceSig,
    apply_move,
    enumerate_pairings,
    find_isomorphism,
    h1_rank,
    intersection_form,
    move_kind,
    replay,
    stabilize,
    standard_decomposition,
    transvection,
)
from tribranch.surfaces import vertex_map_from_curve_bijection

SEED = int(os.environ.get("TRIBRANCH_SEED", "20260810"))


def make_rng(offset: int = 0) -> random.Random:
    return random.Random(SEED + offset)


def random_page(rng, g_max=2, b_max=4, chi_max=-1) -> SurfaceSig:
    candidates = [
        SurfaceSig(g, b)
        for g in range(g_max + 1)
        for b in range(1, b_max + 1)
        if 2 - 2 * g - b <= chi_max
    ]
    return rng.choice(candidates)


def random_move(pd, rng, fresh_id) -> PantsMove:
    curve = rng.choice(sorted(pd.edges))
    kind = move_kind(pd, curve)
    if kind == S_MOVE:
        return PantsMove(curve, fresh_id, S_MOVE)
    pairing = rng.choice(enumerate_pairings(pd, curve))
    return PantsMove(curve, fresh_id, A_MOVE, pairing)


def random_decomposition(sig, rng, scramble=4):
    pd = standard_decomposition(sig)
    for i in range(scramble):
        if not pd.edges:
            break
        pd = apply_move(pd, random_move(pd, rng, f"s{i + 1}"))
    return pd


def inverse_move(pre, mv, cur, added_id=None) -> PantsMove:
    """A move undoing ``mv`` on ``cur``, landing back in the class of ``pre``.

    ``cur`` must contain ``mv.added`` in the same structural role as the
    state that ``mv`` produced (the mirror walk maintains this).  For an
    A-move the right re-pairing is found by trying all three candidates and
    keeping the one whose result maps onto ``pre`` with every curve keeping
    its id (``added_id`` standing for ``mv.removed``).  A mere isomorphism
    is not enough: it may swap the roles of two curves, and a later undo
    would then re-pair the wrong support.  Re-adding the original curve id
    keeps later undos well defined.
    """
    added_id = added_id if added_id is not None else mv.removed
    if mv.kind == S_MOVE:
        return PantsMove(mv.added, added_id, S_MOVE)
    for pairing in enumerate_pairings(cur, mv.added):
        candidate = PantsMove(mv.added, added_id, A_MOVE, pairing)
        result = apply_move(cur, candidate)
        ids = {c: mv.removed if c == added_id else c for c in result.edges}
        if vertex_map_from_curve_bijection(result, pre, ids) is not None:
            return candidate
    raise AssertionError("no re-pairing undoes the move")


def random_closed_path(sig, rng, max_moves=6) -> PantsPath:
    """A random path that closes up onto its start system.

    A random walk is attempted first; when the endpoint is not isomorphic to
    the start (or at random, for variety), the walk is mirrored by inverse
    moves, which guarantees a closure exists.
    """
    start = standard_decomposition(sig)
    n_forward = rng.randint(0, max_moves // 2)
    moves = []
    states = [start]
    for i in range(n_forward):
        if not states[-1].edges:
            break
        mv = random_move(states[-1], rng, f"r{i + 1}")
        moves.append(mv)
        states.append(apply_move(states[-1], mv))
    iso = find_isomorphism(states[-1], start)
    if iso is None or rng.random() < 0.5:
        cur = states[-1]
        for i in range(len(moves) - 1, -1, -1):
            inv = inverse_move(states[i], moves[i], cur)
            moves.append(inv)
            cur = apply_move(cur, inv)
        iso = find_isomorphism(cur, start)
    assert iso is not None, "mirrored walk must close up"
    return PantsPath(start=start, moves=moves, closure=dict(iso[1]))


def rotate_path(path: PantsPath) -> PantsPath:
    """The closed path started one page later: C_1, ..., C_n, then m_1 carried onto C_n.

    The mapping torus does not depend on which page is called C_0, so the
    rotated path describes the same open book.  The carried move removes
    the closure preimage of m_1's removed curve and adds a fresh curve id.
    Each cuff of its pairing is the C_n cuff that holds the closure preimage
    of the C_0 cuff's curve end (on the closure preimage of its pants, the
    same end for a self-loop), or the same leg.  The new closure is the old
    one with the fresh id sent to m_1's added curve.
    """
    decomps = replay(path)
    start, final = decomps[0], decomps[-1]
    first = path.moves[0]
    preimage = {d: c for c, d in path.closure.items()}
    pants_back = {q: p for p, q in vertex_map_from_curve_bijection(
        final, start, path.closure).items()}
    ends = {cuff: (c, e) for c, pair in start.edges.items() for e, cuff in enumerate(pair)}
    legs = {cuff: label for label, cuff in start.legs.items()}

    def carried(cuff):
        cuff = tuple(cuff)
        if cuff in legs:
            return final.legs[legs[cuff]]
        c, e = ends[cuff]
        pair = final.edges[preimage[c]]
        return pair[e] if pair[e][0] == pants_back[cuff[0]] else pair[1 - e]

    used = {c for pd in decomps for c in pd.edges}
    fresh = next(f"t{j}" for j in itertools.count(1) if f"t{j}" not in used)
    pairing = None if first.pairing is None else tuple(
        tuple(carried(c) for c in side) for side in first.pairing)
    closure = {c: d for c, d in path.closure.items() if d != first.removed}
    closure[fresh] = first.added
    return PantsPath(start=decomps[1],
                     moves=path.moves[1:] + [PantsMove(preimage[first.removed], fresh,
                                                       first.kind, pairing)],
                     closure=closure)


def random_monodromy(page, rng, twists=3) -> MonodromyH1:
    k = h1_rank(page)
    j = intersection_form(page)
    m = IntMatrix.identity(k)
    for _ in range(twists):
        c = [rng.randint(-2, 2) for _ in range(k)]
        m = m.mul(transvection(j, c))
    return MonodromyH1(m)


def dense_monodromy(page, rng, shifts) -> MonodromyH1:
    """A dense valid action M = P D P^-1 on ``page`` with H_1 in closed form.

    D is the identity on the boundary classes and the block
    [[1, 1], [t - 2, t - 1]] on each handle, whose part of M - 1 has cokernel
    Z/(t - 2) (Z when t = 2); ``shifts`` lists t - 2 for the first handles,
    and the handles after them keep the identity block (Z^2 each).
    P is a product of k transvections T = 1 + c (Jc)^T, applied as rank-one
    updates, and P^-1 the reversed product of their inverses 1 - c (Jc)^T.
    """
    k = h1_rank(page)
    j = intersection_form(page).entries
    p = [[int(r == s) for s in range(k)] for r in range(k)]
    p_inv = [row[:] for row in p]
    for _ in range(k):
        c = [rng.choice((-1, 0, 1)) for _ in range(k)]
        jc = [sum(x * y for x, y in zip(row, c)) for row in j]
        pc = [sum(x * y for x, y in zip(row, c)) for row in p]
        p = [[x + pc[r] * jc[s] for s, x in enumerate(row)] for r, row in enumerate(p)]
        jc_p_inv = [sum(jc[r] * p_inv[r][s] for r in range(k)) for s in range(k)]
        p_inv = [[x - c[r] * jc_p_inv[s] for s, x in enumerate(row)]
                 for r, row in enumerate(p_inv)]
    pd = [row[:] for row in p]
    for i, n in enumerate(shifts):
        for row in pd:
            x, y = row[2 * i], row[2 * i + 1]
            row[2 * i], row[2 * i + 1] = x + y * n, x + y * (n + 1)
    return MonodromyH1(IntMatrix.from_rows(pd).mul(IntMatrix.from_rows(p_inv)))


def random_matrix(rng, max_dim=5, lo=-9, hi=9) -> IntMatrix:
    rows = rng.randint(1, max_dim)
    cols = rng.randint(1, max_dim)
    return IntMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]
    )


def random_outer_spec(rng, g_max=2, b_max=4, max_moves=6) -> OpenBookSpec:
    page = random_page(rng, g_max=g_max, b_max=b_max, chi_max=-1)
    path = random_closed_path(page, rng, max_moves=max_moves)
    return OpenBookSpec(
        page=page,
        monodromy=random_monodromy(page, rng),
        pants_path=path,
    )


def extend_path(path: PantsPath, site: int) -> PantsPath:
    """``path`` on the page stabilized at boundary circle ``site``.

    A fresh pants cuts off the two boundary circles that the stabilization
    leaves at ``site``, and a fresh curve, fixed by the closure, joins it to
    the old leg's cuff.  This presumes that the stabilizing curve misses
    every curve of the path, which nothing checks; ``stabilize`` therefore
    clears the path, and the tests carry it with this helper.
    """
    start = path.start
    b = start.n_legs
    pants_id = "Pstab"
    while pants_id in start.pants:
        pants_id += "x"
    curve_id = "cstab"
    while curve_id in start.edges:
        curve_id += "x"
    edges = {**start.edges, curve_id: (start.legs[site], (pants_id, 1))}
    legs = {**start.legs, site: (pants_id, 2), b + 1: (pants_id, 3)}
    new_start = PantsDecomposition(pants=start.pants | {pants_id}, edges=edges, legs=legs)
    return PantsPath(start=new_start, moves=list(path.moves),
                     closure={**path.closure, curve_id: curve_id})


def stabilize_along(spec: OpenBookSpec, site: int) -> OpenBookSpec:
    """``stabilize(spec, site).spec`` with the pants path carried over by
    :func:`extend_path` instead of cleared."""
    stabilized = stabilize(spec, site).spec
    if spec.pants_path is None:
        return stabilized
    return stabilized._replace(pants_path=extend_path(spec.pants_path, site))


class _TracedRow(list):
    """A row that logs who reads it: the reduction lists it in
    ``_fraction_free`` itself, the kernel test reads it in a generator."""

    def __init__(self, row, index, log):
        super().__init__(row)
        self.index, self.log = index, log

    def __iter__(self):
        self.log.append((self.index, sys._getframe(1).f_code.co_name))
        return super().__iter__()


def traced_rows(rows, log) -> list:
    """The rows as ``_TracedRow``s, each logging (its index, the reader) to ``log``."""
    return [_TracedRow(row, i, log) for i, row in enumerate(rows)]


def rows_tested_and_reduced(log) -> tuple:
    """The indices of the rows the kernel test read, and of those reduced."""
    tested = sorted({i for i, who in log if who == "<genexpr>"})
    reduced = sorted({i for i, who in log if who == "_fraction_free"})
    return tested, reduced
