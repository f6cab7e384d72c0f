"""Open book specifications, their first homology, rank certificates, stabilization.

An open book with page F (genus g, b >= 1 boundary circles) and boundary-fixing
monodromy phi determines a closed 3-manifold: the mapping torus of phi with a
solid torus glued along each boundary torus so that the meridian disc caps the
suspension circle.  On first homology the input data is the action matrix of
phi in the standard basis

    a_1, b_1, ..., a_g, b_g, c_1, ..., c_{b-1}

of H_1(F), where the c_i are boundary circle classes (the last one is
determined, c_b = -(c_1 + ... + c_{b-1})).  A valid action fixes every
boundary class, preserves the algebraic intersection form (symplectic on the
a/b pairs, zero on boundary classes) and is unimodular.

First homology of the closed manifold.  Gluing the solid tori kills, for each
boundary circle, the class of its suspension loop.  That loop is the
suspension class t corrected by a winding class w_i in H_1(F) measuring how
the monodromy drags an arc reaching that boundary circle.  The resulting
presentation is

    H_1(M) = ( H_1(F) + Z<t> ) / < (phi_* - 1) x  for all x;  t + w_i >.

Two parts of it are known in advance and never built.  Subtracting the
relation of circle 1 from those of the other circles is unimodular and
leaves t + w_1 as the only relation that involves t, which eliminates
t = -w_1; and (phi_* - 1) c_i = 0 for every boundary class.  What is left
is a square k x k relation matrix, k = 2g + b - 1, with the columns
(phi_* - 1) a_i, (phi_* - 1) b_i and w_j - w_1 for j = 2..b.

For a monodromy specified directly by its action matrix all windings are
declared zero and the formula collapses to the familiar cokernel of
(phi_* - 1).  Stabilization is the one place where nonzero windings arise:
plumbing a positive Hopf band composes the monodromy with a Dehn twist along
a curve parallel to the fresh boundary circle.  Such a twist acts trivially
on absolute homology; its entire homological content is the winding of the
new circle, and recording it is exactly what keeps H_1(M) unchanged under
stabilization (the ambient manifold does not change).

The rank certificate uses rank pi_1(M) >= (minimal generator count of
H_1(M)).  An Uncertified verdict means the rank-four hypothesis is not
established by this bound; it never asserts the hypothesis is false.
"""

from __future__ import annotations

import sys
from collections import namedtuple

from .errors import MonodromyError, TribranchError
from .intalg import AbelianGroup, IntMatrix, cokernel, fits_str_limit, min_generators
from .paths import PantsPath, check_path
from .reports import ValidationReport
from .surfaces import SurfaceSig

CERTIFIED = "Certified"
UNCERTIFIED = "Uncertified"

RANK_THRESHOLD = 4


def h1_rank(page: SurfaceSig) -> int:
    """Rank of the first homology of the page: 2*genus + boundary - 1."""
    if page.n_boundary < 1:
        raise TribranchError("an open book page needs at least one boundary circle")
    return 2 * page.genus + page.n_boundary - 1


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


class MonodromyH1(namedtuple("MonodromyH1", "matrix")):
    """The action of the monodromy on H_1 of the page, in the standard basis.

    ``matrix`` is the action's :class:`IntMatrix`.
    """

    __slots__ = ()

    @staticmethod
    def identity(page: SurfaceSig) -> "MonodromyH1":
        return MonodromyH1(IntMatrix.identity(h1_rank(page)))


def validate_monodromy(page: SurfaceSig, m: MonodromyH1) -> ValidationReport:
    """Check the monodromy action invariants against the page."""
    report = ValidationReport()
    k = h1_rank(page)
    mat = m.matrix
    if (mat.rows, mat.cols) != (k, k):
        report.add(
            "matrix-dimension",
            f"matrix is {mat.rows}x{mat.cols}, expected {k}x{k} for page {page}",
        )
        return report
    # Column i of a fixed boundary class i is the unit vector e_i; each row's
    # entries at the boundary columns are read in place.
    moved = {i for r, row in enumerate(mat.entries)
             for i in range(2 * page.genus, k) if row[i] != (r == i)}
    for i in sorted(moved):
        report.add("boundary-class", f"boundary class c_{i - 2 * page.genus + 1} not fixed")
    # With the boundary classes fixed M = [[A, 0], [C, I]], and M^T J M = J
    # reduces to A^T J_g A = J_g on the top-left 2g x 2g block A, the form
    # check of the page F(g, 1); it gives det M = det A = 1.  A moved class
    # keeps the check on all of M.
    g2 = 2 * page.genus
    form_page, form_mat = (page, mat) if moved else (
        SurfaceSig(page.genus, 1),
        IntMatrix(g2, g2, tuple([row[:g2] for row in mat.entries[:g2]])))
    if not preserves_intersection_form(form_page, form_mat):
        report.add("intersection-form", "action does not preserve the intersection form")
    # The determinant can only fail next to an earlier entry, so it is
    # computed only to explain one.
    if not report.ok:
        det = mat.det()
        if abs(det) != 1:
            shown = det if fits_str_limit(det) else "with too many digits to print"
            report.add("determinant", f"determinant {shown} is not +-1")
    return report


def preserves_intersection_form(page: SurfaceSig, mat: IntMatrix) -> bool:
    """Whether M^T J M = J for the intersection form J of the page.

    Entry (p, q) of M^T J M is the intersection number of columns p and q
    of the k x k matrix M.  Only the g symplectic pairs of rows (a_i, b_i)
    contribute to it, so row p is the sum over i of
    a_i[p] * b_i - b_i[p] * a_i.  Each row is compared packed: the row x
    stands for the integer [x] = sum over j of x[j] * 2^(s j) (Kronecker
    substitution), so packed row p is the sum over i of
    a_i[p] * [b_i] - b_i[p] * [a_i], 2g integer multiply-adds, and it is
    compared with J's packed row p.  With B the largest |entry| of the
    rows a_i and b_i and s = 2 bitlen(B) + bitlen(2g) + 2, every entry on
    both sides is at most 2g B^2 < 2^(s - 2) in absolute value.  An integer
    has exactly one digit vector in base 2^s with digits in
    [-2^(s - 1), 2^(s - 1)), so equal packed rows mean equal rows.  M^T J M
    is antisymmetric for every M, as J is, so its last row follows from the
    others and is not compared.
    """
    k, g = mat.rows, page.genus
    pairs = [(mat.entries[2 * i], mat.entries[2 * i + 1]) for i in range(g)]
    bound = max([max(map(abs, row)) for pair in pairs for row in pair], default=0)
    s = 2 * bound.bit_length() + (2 * g).bit_length() + 2

    def packed(row) -> int:
        out = 0
        for x in reversed(row):
            out = (out << s) + x
        return out

    handles = [(a, b, packed(a), packed(b)) for a, b in pairs]
    for p in range(k - 1):
        row = 0
        for a, b, pa, pb in handles:
            row += a[p] * pb - b[p] * pa
        # J's row p: +1 at b_i for p = a_i, -1 at a_i for p = b_i.
        if p >= 2 * g:
            form_row = 0
        elif p % 2:
            form_row = -(1 << s * (p - 1))
        else:
            form_row = 1 << s * (p + 1)
        if row != form_row:
            return False
    return True


class OpenBookSpec(namedtuple("OpenBookSpec", "page monodromy pants_path name windings "
                                             "degenerate_path_convention",
                              defaults=(None, "", None, True))):
    """A page, a monodromy action, and optionally a closed-up pants path.

    ``page`` is a :class:`SurfaceSig`, ``monodromy`` a :class:`MonodromyH1`
    and ``pants_path`` a :class:`PantsPath` or None.  ``windings`` is an
    :class:`IntMatrix` or None and carries one column per boundary circle:
    the homology class by which the monodromy drags arcs reaching that
    circle.  It is zero for directly specified monodromies and only becomes
    nonzero through stabilization; see the module docstring.
    """

    __slots__ = ()

    def winding_matrix(self) -> IntMatrix:
        if self.windings is not None:
            return self.windings
        return IntMatrix.zeros(h1_rank(self.page), self.page.n_boundary)


class CheckedSpec(namedtuple("CheckedSpec", "spec report decomps closure_map",
                             defaults=(None, None))):
    """A spec with its validation report and the path replay behind it.

    ``decomps`` is the list of decompositions C_0, ..., C_n that the path
    check replayed and ``closure_map`` the dict of the closure's vertex map
    C_n -> C_0.  Both are None without a pants path, and may be partial or
    None when the report is not clean.
    """

    __slots__ = ()


def validate_spec(spec: OpenBookSpec) -> CheckedSpec:
    """Validate the page, monodromy, winding shape and (if present) the path.

    The path check validates the start decomposition; the intermediate ones
    stand on :func:`apply_move`'s checks (see :func:`check_path`).  The
    result keeps the path replay, which :func:`construct_outer` builds on.
    """
    report = ValidationReport()
    if spec.page.n_boundary < 1:
        report.add("page-boundary", "page must have at least one boundary circle")
        return CheckedSpec(spec, report)
    report.extend(validate_monodromy(spec.page, spec.monodromy))
    # Default windings are zero and shaped to the page; building them just to
    # check that would allocate a matrix as large as the declared page.
    w = spec.windings
    if w is not None:
        k = h1_rank(spec.page)
        if (w.rows, w.cols) != (k, spec.page.n_boundary):
            report.add(
                "windings-shape",
                f"windings are {w.rows}x{w.cols}, expected {k}x{spec.page.n_boundary}",
            )
    decomps = closure_map = None
    if spec.pants_path is not None:
        path_report, path_sig, decomps, closure_map = check_path(spec.pants_path)
        # A start that spans no surface (path_sig None) is in the path report.
        if path_sig not in (None, spec.page):
            report.add(
                "path-page",
                f"pants path lives on {path_sig}, spec page is {spec.page}",
            )
        for issue in path_report.entries:
            report.add(issue.code, issue.message, f"pants_path {issue.where}".strip())
    return CheckedSpec(spec, report, decomps, closure_map)


def _checked_shapes(spec: OpenBookSpec) -> tuple:
    """The action matrix and the windings, once they are k x k and k x b."""
    page = spec.page
    k, b = h1_rank(page), page.n_boundary
    m, w = spec.monodromy.matrix, spec.winding_matrix()
    if (m.rows, m.cols) != (k, k):
        raise MonodromyError(f"matrix is {m.rows}x{m.cols}, expected {k}x{k} for page {page}")
    if (w.rows, w.cols) != (k, b):
        raise MonodromyError(f"windings are {w.rows}x{w.cols}, expected {k}x{b}")
    return m, w


def h1_open_book(spec: OpenBookSpec) -> AbelianGroup:
    """First homology of the closed manifold of the open book.

    It is the cokernel of the k x (2g + b - 1) matrix whose row i is

        [M[i][j] - delta_ij for j < 2g] + [w_i,j - w_i,1 for j = 2..b].

    The full presentation [[M - 1, W], [0, 1 ... 1]] is (k + 1) x (k + b),
    its last row standing for t.  Subtracting the column of circle 1 from
    the other circle columns is unimodular and leaves a single 1 in that
    row; the pivot splits off a factor 1, which eliminates t = -w_1.  The
    columns (M - 1) e_j for j >= 2g are zero, because a valid monodromy
    fixes the boundary classes.  So the free rank and the torsion are those
    of the full presentation.
    """
    report = validate_monodromy(spec.page, spec.monodromy)
    if not report.ok:
        raise MonodromyError(report.summary())
    m, w = _checked_shapes(spec)
    g = spec.page.genus
    # Lists, not generators, go into tuple(): tuples grown from generators
    # left the benchmark's peak RSS about 1 MB higher.
    entries = tuple([
        tuple([x - (i == j) for j, x in enumerate(m_row[:2 * g])]
              + [y - w_row[0] for y in w_row[1:]])
        for i, (m_row, w_row) in enumerate(zip(m.entries, w.entries))
    ])
    return cokernel(IntMatrix(w.rows, 2 * g + w.cols - 1, entries))


class RankCertificate(namedtuple("RankCertificate", "h1 lower_bound verdict")):
    """The computable lower bound for the rank of the fundamental group.

    ``h1`` is the :class:`AbelianGroup` H_1(M) and ``lower_bound`` its
    minimal generator count, which bounds the rank of pi_1(M) from below.
    Certified means the bound is at least four.  Uncertified means the
    hypothesis was not established; it does NOT mean the hypothesis is
    false.
    """

    __slots__ = ()

    @property
    def statement(self) -> str:
        if self.verdict == CERTIFIED:
            return (
                f"H_1(M) = {self.h1}; rank pi_1(M) >= {self.lower_bound} >= 4: "
                "the rank hypothesis is established."
            )
        return (
            f"H_1(M) = {self.h1}; the homology bound gives rank pi_1(M) >= "
            f"{self.lower_bound} < 4: hypothesis not established (this does "
            "not assert the hypothesis is false)."
        )

    def to_json(self) -> dict:
        return {
            "h1": self.h1.to_json(),
            "lower_bound": self.lower_bound,
            "verdict": self.verdict,
            "statement": self.statement,
        }


def rank_certificate(spec: OpenBookSpec) -> RankCertificate:
    """Certify rank pi_1(M) >= 4 through the first homology lower bound."""
    h1 = h1_open_book(spec)
    # The certificate is written out in decimal, which Python refuses for
    # integers beyond its int-to-str digit limit.
    if not all(fits_str_limit(d) for d in h1.torsion):
        raise TribranchError(
            "H_1(M) has a torsion order with more decimal digits than "
            f"Python's limit of {sys.get_int_max_str_digits()}; it cannot be reported"
        )
    bound = min_generators(h1)
    verdict = CERTIFIED if bound >= RANK_THRESHOLD else UNCERTIFIED
    return RankCertificate(h1=h1, lower_bound=bound, verdict=verdict)


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
    g, k = page.genus, h1_rank(page)
    rows = [[0] * r + [1] + [0] * (k - r) for r in range(k)] + [[0] * (k + 1)]
    for r in range(2 * g, k):
        rows[r][k] = -1
    rows[k][2 * g + site - 1] = -1  # index k itself when site = b
    return IntMatrix(k + 1, k + 1, tuple([tuple(row) for row in rows]))


def _to_stabilized_basis(page: SurfaceSig, site: int, rows) -> IntMatrix:
    """P^-1 X for the basis change P of :func:`_stabilized_basis_change`.

    On the new page the boundary classes c'_1, ..., c'_{b+1} sum to zero and
    c'_{b+1} = e, so e = -(c'_1 + ... + c'_b); the old class c_site (site < b)
    is c'_site + e, and every other old class keeps its coordinates.  So
    P^-1 is the identity except on the rows 2g <= r <= k, and row r of
    P^-1 X is [r < k] X_r - X_k - [site < b] X_{2g+site-1}: row operations
    in O(k) per row, with no inverse matrix built.  ``rows`` are the k + 1
    rows of X, int tuples of one length.
    """
    g = page.genus
    k = len(rows) - 1
    zero = [0] * len(rows[k])
    # When site = b the circle's index 2g + site - 1 is k itself.
    site_row = rows[2 * g + site - 1] if 2 * g + site - 1 < k else zero
    changed = [[x - y - z for x, y, z in zip(rows[r] if r < k else zero, rows[k], site_row)]
               for r in range(2 * g, k + 1)]
    # A list, not map(), into tuple(): see the note on peak RSS in h1_open_book.
    return IntMatrix(k + 1, len(zero), tuple(rows[:2 * g]) + tuple([tuple(r) for r in changed]))


class StabilizationResult(namedtuple("StabilizationResult", "spec change_of_basis notes",
                                     defaults=((),))):
    """The stabilized spec, the basis change P as an IntMatrix and notes."""

    __slots__ = ()


def stabilize(spec: OpenBookSpec, site: int, extend_path: bool = False) -> StabilizationResult:
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
    disjointness information.  By default the path is cleared.  With
    ``extend_path=True`` the caller asserts the stabilizing curve is disjoint
    from every path curve, and the path is extended by one new curve that
    cuts off the two fresh boundary circles.
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
    new_path = None
    if spec.pants_path is not None:
        if extend_path:
            new_path = _extend_path(spec.pants_path, site)
            notes.append(
                "pants path extended by a curve cutting off the two fresh "
                "boundary circles (caller asserted disjointness)"
            )
        else:
            notes.append(
                "pants path cleared: isotopy data does not transport through "
                "a stabilization (pass extend_path=True to assert disjointness)"
            )

    new_spec = OpenBookSpec(
        page=new_page,
        monodromy=MonodromyH1(new_matrix),
        pants_path=new_path,
        name=spec.name,
        windings=new_w,
        degenerate_path_convention=spec.degenerate_path_convention,
    )
    return StabilizationResult(
        spec=new_spec, change_of_basis=p, notes=tuple(notes)
    )


def _extend_path(path: PantsPath, site: int) -> PantsPath:
    """Append a pants cutting off the two fresh boundary circles at ``site``."""
    start = path.start
    b = start.n_legs
    pants_id = "Pstab"
    while pants_id in start.pants:
        pants_id += "x"
    curve_id = "cstab"
    while curve_id in start.edges:
        curve_id += "x"
    old_cuff = start.legs[site]
    pants = set(start.pants) | {pants_id}
    edges = dict(start.edges)
    edges[curve_id] = (old_cuff, (pants_id, 1))
    legs = dict(start.legs)
    legs[site] = (pants_id, 2)
    legs[b + 1] = (pants_id, 3)
    new_start = type(start)(pants=frozenset(pants), edges=edges, legs=legs)
    closure = dict(path.closure)
    closure[curve_id] = curve_id
    return PantsPath(start=new_start, moves=list(path.moves), closure=closure)
