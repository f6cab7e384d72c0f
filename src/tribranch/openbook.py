"""Open book specifications, their first homology and rank certificates.

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
(phi_* - 1).  Stabilization is the one place where nonzero windings arise;
``stabilize`` (in ``builders``) resolves here on each access, because the
benchmark reads it here.

The rank certificate uses rank pi_1(M) >= (minimal generator count of
H_1(M)).  An Uncertified verdict means the rank-four hypothesis is not
established by this bound; it never asserts the hypothesis is false.
"""

from __future__ import annotations

import sys
from collections import namedtuple

from . import _resolver
from .errors import MonodromyError, TribranchError
from .intalg import AbelianGroup, IntMatrix, cokernel, fits_str_limit, int_text, min_generators
from .paths import check_path
from .reports import ValidationReport
from .surfaces import SurfaceSig

__getattr__ = _resolver(__name__, {"stabilize": "builders"})

CERTIFIED = "Certified"
UNCERTIFIED = "Uncertified"

RANK_THRESHOLD = 4


def h1_rank(page: SurfaceSig) -> int:
    """Rank of the first homology of the page: 2*genus + boundary - 1."""
    if page.n_boundary < 1:
        raise TribranchError("an open book page needs at least one boundary circle")
    return 2 * page.genus + page.n_boundary - 1


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
        n = int_text(k)
        report.add(
            "matrix-dimension",
            f"matrix is {mat.rows}x{mat.cols}, expected {n}x{n} for page {page}",
        )
        return report
    # Column i of a fixed boundary class i is the unit vector e_i.  Each row's
    # boundary slice is compared with e_r's, a slice of ``line``, and read
    # entry by entry only where it differs.
    g2 = 2 * page.genus
    line = (0,) * k + (1,) + (0,) * k
    moved = {i for r, row in enumerate(mat.entries) if row[g2:] != line[k + g2 - r:2 * k - r]
             for i in range(g2, k) if row[i] != (r == i)}
    for i in sorted(moved):
        report.add("boundary-class", f"boundary class c_{i - g2 + 1} not fixed")
    # With the boundary classes fixed M = [[A, 0], [C, I]], and M^T J M = J
    # reduces to A^T J_g A = J_g on the top-left 2g x 2g block A, the form
    # check of the page F(g, 1); it gives det M = det A = 1.  A moved class
    # keeps the check on all of M.
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
            report.add("determinant", f"determinant {int_text(det)} is not +-1")
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
    nonzero through stabilization; see ``builders``.
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
                f"windings are {w.rows}x{w.cols}, expected {int_text(k)}x{spec.page.n_boundary}",
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
        n = int_text(k)
        raise MonodromyError(f"matrix is {m.rows}x{m.cols}, expected {n}x{n} for page {page}")
    if (w.rows, w.cols) != (k, b):
        raise MonodromyError(f"windings are {w.rows}x{w.cols}, expected {k}x{b}")
    return m, w


def h1_open_book(spec: OpenBookSpec) -> AbelianGroup:
    """First homology of the closed manifold of the open book.

    It is the cokernel of the k x k matrix whose row i is

        [M[i][j] - delta_ij for j < 2g] + [w_i,j - w_i,1 for j = 2..b],

    the presentation of the module docstring without t and without the
    zero columns of the boundary classes.  An invalid monodromy raises
    :class:`MonodromyError` before the matrix is built.
    """
    report = validate_monodromy(spec.page, spec.monodromy)
    if not report.ok:
        raise MonodromyError(report.summary())
    m, w = _checked_shapes(spec)
    g2 = 2 * spec.page.genus
    # Lists, not generators, go into tuple(): tuples grown from generators
    # left the benchmark's peak RSS about 1 MB higher.
    entries = tuple([
        (m_row[:i] + (m_row[i] - 1,) + m_row[i + 1:g2] if i < g2 else m_row[:g2])
        + (tuple([y - w_row[0] for y in w_row[1:]]) if w_row[0] else w_row[1:])
        for i, (m_row, w_row) in enumerate(zip(m.entries, w.entries))
    ])
    return cokernel(IntMatrix(w.rows, g2 + w.cols - 1, entries))


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
