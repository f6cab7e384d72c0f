"""Builders of open books and decompositions: forms, transvections, stabilization.

No command loads this module: the commands read a spec and check it.

Stabilization is the one place where nonzero windings arise: plumbing a
positive Hopf band composes the monodromy with a Dehn twist along a curve
parallel to the fresh boundary circle.  Such a twist acts trivially on
absolute homology; its entire homological content is the winding of the
new circle, and recording it is exactly what keeps H_1(M) unchanged under
stabilization (the ambient manifold does not change).
"""

from __future__ import annotations

from collections import namedtuple

from .errors import TribranchError
from .intalg import IntMatrix
from .openbook import MonodromyH1, OpenBookSpec, _checked_shapes, h1_rank
from .surfaces import PantsDecomposition, SurfaceSig


def intersection_form(page: SurfaceSig) -> IntMatrix:
    """The algebraic intersection form on H_1(page) in the standard basis.

    Symplectic 2x2 blocks pair each a_i with b_i; boundary classes pair with
    nothing (they are in the radical).
    """
    k = h1_rank(page)
    rows = [[0] * k for _ in range(k)]
    for i in range(page.genus):
        rows[2 * i][2 * i + 1] = 1
        rows[2 * i + 1][2 * i] = -1
    return IntMatrix.from_rows(rows)


def transvection(j_form: IntMatrix, c) -> IntMatrix:
    """The homological transvection x -> x + <x, c> c for the pairing ``j_form``.

    This is the action of a Dehn twist along a curve in the class ``c``; it
    automatically fixes all boundary classes and preserves the form, so
    products of transvections are a convenient source of valid monodromies.
    An entry of ``c`` that is not an integer is a TribranchError.
    """
    k = j_form.rows
    c = IntMatrix.from_rows([c]).entries[0]
    if len(c) != k:
        raise TribranchError(f"class has length {len(c)}, expected {k}")
    jc = [sum(j_form.entries[i][l] * c[l] for l in range(k)) for i in range(k)]
    rows = [
        [(1 if i == j else 0) + c[i] * jc[j] for j in range(k)]
        for i in range(k)
    ]
    return IntMatrix.from_rows(rows)


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


# ---------------------------------------------------------------------------
# Stabilization.
# ---------------------------------------------------------------------------


def _stabilized_basis_change(page: SurfaceSig, site: int) -> IntMatrix:
    """P: its columns are the standard basis of the stabilized page, written
    in the old basis of H_1 extended by the stabilizing-curve class e.

    Boundary bookkeeping: the handle splits circle ``site`` into two; the
    old label stays on the half missing the handle, the fresh label b+1
    names the half parallel to the stabilizing curve, whose class is e.
    With k = 2g + b - 1 and e at index k, P is the identity except
    P[r][k] = -1 for 2g <= r < k (circle b is minus the sum of the old
    boundary classes), P[k][k] = -1 if site = b and 0 otherwise, and
    P[k][2g + site - 1] = -1 when site < b.
    """
    g2, k = 2 * page.genus, h1_rank(page)
    zero, s = (0,) * (k + 1), g2 + site - 1  # s = k when site = b
    rows = [zero[:r] + (1,) + zero[r + 1:k] + (-1 if r >= g2 else 0,) for r in range(k)]
    rows.append(zero[:s] + (-1,) + zero[s + 1:])
    return IntMatrix(k + 1, k + 1, tuple(rows))


def _to_stabilized_basis(page: SurfaceSig, site: int, rows) -> IntMatrix:
    """P^-1 X for the basis change P of :func:`_stabilized_basis_change`.

    On the new page the boundary classes c'_1, ..., c'_{b+1} sum to zero and
    c'_{b+1} = e, so e = -(c'_1 + ... + c'_b); the old class c_site (site < b)
    is c'_site + e, and every other old class keeps its coordinates.  So
    P^-1 is the identity except on the rows 2g <= r <= k, and row r of
    P^-1 X is [r < k] X_r - X_k - [site < b] X_{2g+site-1}.  The row
    shift = -X_k - [site < b] X_{2g+site-1} is formed once: row r < k is
    X_r + shift and row k is shift itself, the same tuple.  These are row
    operations in O(k) per row, with no inverse matrix built.  ``rows`` are
    the k + 1 rows of X, int tuples of one length.
    """
    g2, k = 2 * page.genus, len(rows) - 1
    s = g2 + site - 1  # s = k when site = b
    shift = tuple([-x - y for x, y in zip(rows[k], rows[s])] if s < k else [-x for x in rows[k]])
    # Lists, not map(), into tuple(): see the note on peak RSS in openbook.h1_open_book.
    changed = [tuple([x + y for x, y in zip(rows[r], shift)]) for r in range(g2, k)]
    return IntMatrix(k + 1, len(shift), tuple(rows[:g2]) + tuple(changed) + (shift,))


class StabilizationResult(namedtuple("StabilizationResult", "spec change_of_basis notes",
                                     defaults=((),))):
    """The stabilized spec, the basis change P as an IntMatrix and notes."""

    __slots__ = ()


def stabilize(spec: OpenBookSpec, site: int) -> StabilizationResult:
    """Plumb a positive Hopf band at boundary circle ``site``.

    The page gains a 1-handle with both feet on circle ``site``: (g, b)
    becomes (g, b+1) and the Euler characteristic drops by exactly one.  The
    monodromy is extended over the new handle class and composed with the
    positive Dehn twist along the stabilizing curve.  That curve is parallel
    to the fresh boundary circle, so the twist is invisible on absolute
    homology and is recorded as the winding of the new circle; this keeps
    the homology of the ambient manifold unchanged.

    With k = 2g + b - 1 and e at index k, the new action is P^-1 (E P) and
    the new windings P^-1 W, for the basis change P and the row operations
    P^-1 given on the two helpers above.  E is the old action extended by
    the identity on e; W is the old windings with circle ``site``'s column
    copied onto the fresh circle, plus a row for e that is 1 on the fresh
    circle only.  Both cost O(k^2); no product is formed.  P and both P^-1 X
    are built directly from their int tuples, with no pass over the entries.
    ``site`` must be an ``int`` (not a ``bool``) in 1..b.

    The pants path does not transport through a stabilization: the model
    tracks no isotopy data, so silently reusing the old path would fabricate
    disjointness information.  So the stabilized spec has no path, and a
    note says that the old one was cleared.
    """
    g, b = spec.page.genus, spec.page.n_boundary
    if isinstance(site, bool) or not isinstance(site, int) or not 1 <= site <= b:
        raise TribranchError(f"site {site!r} not a boundary label 1..{b}")
    new_page = SurfaceSig(genus=g, n_boundary=b + 1)

    old, old_w = _checked_shapes(spec)
    p = _stabilized_basis_change(spec.page, site)

    # Row i < k of E P is row i of the old action followed by minus its sum
    # over the old boundary classes; row k is row k of P.  The added twist
    # is along a boundary-parallel curve and acts trivially here.
    ep = [row + (-sum(row[2 * g:]),) for row in old.entries]
    ep.append(p.entries[-1])
    new_matrix = _to_stabilized_basis(spec.page, site, ep)

    # Windings: old circles keep their (transported) windings; the fresh
    # circle b+1 picks up the stabilizing-curve class e on top of whatever
    # the old site circle carried.
    carried = [row + (row[site - 1],) for row in old_w.entries]
    carried.append((0,) * b + (1,))
    new_w = _to_stabilized_basis(spec.page, site, carried)

    notes = [f"stabilized at boundary circle {site}: page {spec.page} -> {new_page}"]
    if spec.pants_path is not None:
        notes.append(
            "pants path cleared: isotopy data does not transport through "
            "a stabilization"
        )

    new_spec = OpenBookSpec(
        page=new_page,
        monodromy=MonodromyH1(new_matrix),
        pants_path=None,
        name=spec.name,
        windings=new_w,
        degenerate_path_convention=spec.degenerate_path_convention,
    )
    return StabilizationResult(
        spec=new_spec, change_of_basis=p, notes=tuple(notes)
    )
