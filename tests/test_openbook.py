import itertools
import time

import pytest

from tribranch import (
    CERTIFIED,
    UNCERTIFIED,
    AbelianGroup,
    IntMatrix,
    MonodromyError,
    MonodromyH1,
    OpenBookSpec,
    PantsPath,
    SurfaceSig,
    TribranchError,
    cokernel,
    h1_open_book,
    h1_rank,
    intersection_form,
    min_generators,
    rank_certificate,
    smith_normal_form,
    stabilize,
    standard_decomposition,
    transvection,
    validate_monodromy,
    validate_path,
    validate_spec,
)
from tribranch import intalg, openbook
from tribranch.openbook import (
    _stabilized_basis_change,
    _to_stabilized_basis,
    preserves_intersection_form,
)

from genutils import (
    dense_monodromy,
    make_rng,
    random_monodromy,
    random_page,
    rows_tested_and_reduced,
    traced_rows,
)
from oracles import h1_presentation


def identity_spec(g, b, **kw):
    page = SurfaceSig(g, b)
    return OpenBookSpec(page=page, monodromy=MonodromyH1.identity(page), **kw)


# ---------------------------------------------------------------------------
# validate_monodromy
# ---------------------------------------------------------------------------


def test_identity_monodromy_valid():
    for g, b in [(0, 1), (0, 5), (1, 1), (2, 3)]:
        page = SurfaceSig(g, b)
        assert validate_monodromy(page, MonodromyH1.identity(page)).ok


def test_transvection_is_valid_monodromy():
    page = SurfaceSig(1, 1)
    m = MonodromyH1(IntMatrix.from_rows([[1, 1], [0, 1]]))
    report = validate_monodromy(page, m)
    assert report.ok
    # Direct 2x2 check of the form condition.
    j = intersection_form(page)
    assert m.matrix.transpose().mul(j).mul(m.matrix) == j


def test_boundary_class_must_be_fixed():
    page = SurfaceSig(0, 3)
    m = MonodromyH1(IntMatrix.from_rows([[2, 0], [0, 1]]))
    report = validate_monodromy(page, m)
    assert "boundary-class" in report.codes()


def test_form_violation_detected():
    page = SurfaceSig(1, 1)
    m = MonodromyH1(IntMatrix.from_rows([[1, 0], [0, -1]]))
    report = validate_monodromy(page, m)
    assert "intersection-form" in report.codes()
    # diag(2, 1) on the handle block of F(1, 2): <2 a_1, b_1> = 2, so the
    # only wrong entries of M^T J M are the pair's own (0, 1), just above
    # the diagonal, and its mirror (1, 0).
    page = SurfaceSig(1, 2)
    mat = IntMatrix.from_rows([[2, 0, 0], [0, 1, 0], [0, 0, 1]])
    j = intersection_form(page)
    product = mat.transpose().mul(j).mul(mat)
    assert [(p, q) for p in range(3) for q in range(3)
            if product.entries[p][q] != j.entries[p][q]] == [(0, 1), (1, 0)]
    assert not preserves_intersection_form(page, mat)
    assert validate_monodromy(page, MonodromyH1(mat)).codes() == [
        "intersection-form", "determinant"]


def test_dimension_mismatch_detected():
    page = SurfaceSig(0, 5)
    m = MonodromyH1(IntMatrix.identity(3))
    report = validate_monodromy(page, m)
    assert "matrix-dimension" in report.codes()


def test_random_transvection_products_are_valid():
    rng = make_rng(30)
    for _ in range(25):
        page = random_page(rng, chi_max=0)
        m = random_monodromy(page, rng, twists=4)
        assert validate_monodromy(page, m).ok, (page, m.matrix.to_json())


def test_valid_monodromy_needs_no_determinant(monkeypatch):
    rng = make_rng(35)
    calls = []
    det = IntMatrix.det
    monkeypatch.setattr(IntMatrix, "det", lambda self: calls.append(1) or det(self))
    for _ in range(10):
        page = random_page(rng, g_max=3, b_max=4, chi_max=0)
        assert validate_monodromy(page, random_monodromy(page, rng, twists=4)).ok
    assert calls == []
    bad = MonodromyH1(IntMatrix.from_rows([[2, 0], [0, 1]]))
    assert validate_monodromy(SurfaceSig(1, 1), bad).codes() == ["intersection-form", "determinant"]
    assert calls == [1]


def _generic_validation(page, mat):
    """The (code, message) entries validate_monodromy reports, with the generic form check."""
    k = h1_rank(page)
    if (mat.rows, mat.cols) != (k, k):
        return [("matrix-dimension", f"matrix is {mat.rows}x{mat.cols}, expected {k}x{k} "
                 f"for page {page}")]
    columns = mat.transpose().entries
    unit = IntMatrix.identity(k).entries
    entries = [("boundary-class", f"boundary class c_{i - 2 * page.genus + 1} not fixed")
               for i in range(2 * page.genus, k) if columns[i] != unit[i]]
    j = intersection_form(page)
    if mat.transpose().mul(j).mul(mat) != j:
        entries.append(("intersection-form", "action does not preserve the intersection form"))
    if k and abs(mat.det()) != 1:
        entries.append(("determinant", f"determinant {mat.det()} is not +-1"))
    return entries


def test_form_check_agrees_with_generic_product():
    # With the boundary classes fixed the form is checked on the 2g x 2g
    # block; a moved class keeps the check on all of M.  Here the block is
    # the identity, but c_1 goes to a_1 + c_1 and <b_1, a_1 + c_1> = -1.
    mat = IntMatrix.from_rows([[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    assert validate_monodromy(SurfaceSig(1, 2), MonodromyH1(mat)).codes() == [
        "boundary-class", "intersection-form"]
    rng = make_rng(34)
    seen = {True: 0, False: 0}
    guarded = 0
    for _ in range(300):
        page = random_page(rng, g_max=3, b_max=4, chi_max=0)
        k, g2 = h1_rank(page), 2 * page.genus
        rows = [list(row) for row in
                random_monodromy(page, rng, twists=rng.randint(0, 4)).matrix.entries]
        kind = rng.choice(("valid", "perturbed", "block", "random", "moved"))
        if kind == "perturbed":
            rows[rng.randrange(k)][rng.randrange(k)] += rng.choice((-2, -1, 1, 2))
        elif kind == "block" and g2:
            rows[rng.randrange(g2)][rng.randrange(g2)] += rng.choice((-2, -1, 1, 2))
        elif kind == "random":
            rows = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
        elif kind == "moved" and k > g2:
            # Only a boundary column changes, so the block stays symplectic.
            rows[rng.randrange(k)][rng.randrange(g2, k)] += rng.choice((-1, 1))
        mat = IntMatrix.from_rows(rows)
        j = intersection_form(page)
        generic = mat.transpose().mul(j).mul(mat) == j
        assert preserves_intersection_form(page, mat) == generic, (page, mat)
        seen[generic] += 1
        report = validate_monodromy(page, MonodromyH1(mat))
        assert [(e.code, e.message) for e in report.entries] == _generic_validation(page, mat)
        # A form violation that the full product finds and the block does not.
        guarded += kind == "moved" and not generic
    assert min(seen.values()) >= 30, seen
    assert guarded >= 10, guarded


def _packs_equal(page, mat, width) -> bool:
    """Whether every compared row of M^T J M packs to J's row at ``width`` bits."""
    def packed(row):
        return sum(x << width * j for j, x in enumerate(row))

    product = mat.transpose().mul(intersection_form(page)).mul(mat)
    return all(packed(x) == packed(y) for x, y in
               zip(product.entries[:-1], intersection_form(page).entries))


def test_packed_form_check_equals_the_explicit_product():
    # Dense valid actions (entries past 10^6 from P D P^-1), actions with
    # entries past 2^100, and single-entry perturbations of both; genus 0
    # and moved boundary classes, which keep the check on all of M.
    rng = make_rng(37)
    seen = {True: 0, False: 0}
    huge = moved = 0
    for _ in range(240):
        page = SurfaceSig(rng.randint(0, 4), rng.randint(1, 4))
        k, g2 = h1_rank(page), 2 * page.genus
        j = intersection_form(page)
        if rng.random() < 0.5:
            shifts = [rng.choice((0, 1, 2, 4)) for _ in range(rng.randint(0, page.genus))]
            mat = dense_monodromy(page, rng, shifts).matrix
        else:
            mat = IntMatrix.identity(k)
            for _ in range(2):
                c = [rng.choice((0, 1, -1)) * rng.getrandbits(52) for _ in range(k)]
                mat = mat.mul(transvection(j, c))
            huge += max((abs(x) for row in mat.entries for x in row), default=0) >= 2 ** 100
        rows = [list(row) for row in mat.entries]
        kind = rng.choice(("valid", "perturbed", "moved"))
        if k and kind == "perturbed":
            rows[rng.randrange(k)][rng.randrange(k)] += rng.choice((-1, 1, 2, 3 << 60))
        elif kind == "moved" and k > g2:
            rows[rng.randrange(k)][rng.randrange(g2, k)] += rng.choice((-1, 1))
            moved += 1
        mat = IntMatrix.from_rows(rows) if rows else mat
        generic = mat.transpose().mul(j).mul(mat) == j
        assert preserves_intersection_form(page, mat) == generic, (page, rows)
        seen[generic] += 1
        report = validate_monodromy(page, MonodromyH1(mat))
        assert [(e.code, e.message) for e in report.entries] == _generic_validation(page, mat)
    assert min(seen.values()) >= 60, seen
    assert huge >= 60, huge
    assert moved >= 40, moved


def test_packed_form_check_has_no_alias():
    # A two-entry perturbation of a valid action on F(1, 2) that moves c_1.
    # Row 0 of M^T J M is [0, 5, -2] against J's [0, 1, 0] and row 1 is
    # [-5, 0, 1] against [-1, 0, 0]: packed 1 bit wide, 5 * 2 - 2 * 4 and
    # -5 + 1 * 4 equal 2 and -1, the packed rows of J.  The check packs
    # s = 2 * bitlen(2) + bitlen(2) + 2 = 8 bits wide and sees the difference.
    page = SurfaceSig(1, 2)
    valid = IntMatrix.from_rows([[0, -1, 0], [1, 2, 0], [-1, -1, 1]])
    assert validate_monodromy(page, MonodromyH1(valid)).ok
    mat = IntMatrix.from_rows([[2, -1, 0], [1, 2, -1], [-1, -1, 1]])
    assert _packs_equal(page, mat, 1)
    assert not _packs_equal(page, mat, 8)
    assert not preserves_intersection_form(page, mat)
    assert validate_monodromy(page, MonodromyH1(mat)).codes() == [
        "boundary-class", "intersection-form", "determinant"]
    # Genus 0: J = 0 and every action preserves it.
    assert preserves_intersection_form(SurfaceSig(0, 3), IntMatrix.from_rows([[2, 5], [7, -3]]))
    assert preserves_intersection_form(SurfaceSig(0, 1), IntMatrix(0, 0, ()))


def test_huge_determinant_is_reported_without_its_digits():
    page = SurfaceSig(1, 1)
    big = 10 ** 4000
    mat = IntMatrix.from_rows([[big, 0], [0, big]])
    report = validate_monodromy(page, MonodromyH1(mat))
    assert report.codes() == ["intersection-form", "determinant"]
    assert "too many digits" in report.entries[-1].message


# ---------------------------------------------------------------------------
# h1_open_book / rank_certificate
# ---------------------------------------------------------------------------


def test_h1_planar_identity_books():
    # Trivial-monodromy planar books are connected sums of b-1 copies of
    # S^1 x S^2: first homology is free of rank b - 1.
    for b in range(1, 6):
        spec = identity_spec(0, b)
        assert h1_open_book(spec) == AbelianGroup(b - 1, ())


def test_h1_one_holed_torus_identity():
    assert h1_open_book(identity_spec(1, 1)) == AbelianGroup(2, ())


def test_h1_one_holed_torus_transvection():
    page = SurfaceSig(1, 1)
    spec = OpenBookSpec(
        page=page, monodromy=MonodromyH1(IntMatrix.from_rows([[1, 1], [0, 1]]))
    )
    # Oracle: invariant factors of (action - identity) = [[0,1],[0,0]] are
    # (1, 0), so the cokernel is a single free summand.
    factors = smith_normal_form(IntMatrix.from_rows([[0, 1], [0, 0]]))
    assert factors.invariant_factors == (1, 0)
    assert h1_open_book(spec) == AbelianGroup(1, ())


def test_h1_rejects_invalid_monodromy():
    page = SurfaceSig(0, 3)
    spec = OpenBookSpec(
        page=page, monodromy=MonodromyH1(IntMatrix.from_rows([[2, 0], [0, 1]]))
    )
    with pytest.raises(MonodromyError):
        h1_open_book(spec)


def _presentation_specs(rng):
    """Specs on every page with g <= 3 and b <= 6: transvection products with
    zero or random windings, and stabilization chains up to b = 6."""
    for g in range(4):
        for b in range(1, 7):
            page = SurfaceSig(g, b)
            k = h1_rank(page)
            for n in range(60):
                windings = None
                if n % 2:
                    windings = IntMatrix(k, b, tuple(
                        tuple(rng.randint(-4, 4) for _ in range(b)) for _ in range(k)))
                monodromy = random_monodromy(page, rng, twists=rng.randint(0, 4))
                spec = OpenBookSpec(page=page, monodromy=monodromy, windings=windings)
                yield spec
                while n < 10 and spec.page.n_boundary < 6:
                    spec = stabilize(spec, rng.randint(1, spec.page.n_boundary)).spec
                    yield spec


def _snf_cokernel(a):
    factors = [d for d in smith_normal_form(a).invariant_factors if d]
    return AbelianGroup(a.rows - len(factors), tuple(d for d in factors if d > 1))


def test_h1_equals_the_full_presentation_oracle():
    # Each spec's square k x k matrix against the Smith normal form of the
    # (k + 1) x (k + b) presentation with t and the boundary columns kept.
    # F(0, 1) gives a 0 x 0 matrix; b = 1 leaves no winding columns.
    count = 0
    for spec in _presentation_specs(make_rng(38)):
        assert h1_open_book(spec) == _snf_cokernel(h1_presentation(spec)), spec
        count += 1
    assert count >= 2000


def test_h1_eliminates_the_suspension_row_and_boundary_columns(monkeypatch):
    shapes = []

    def spy(a):
        shapes.append((a.rows, a.cols))
        return cokernel(a)

    monkeypatch.setattr(openbook, "cokernel", spy)
    for g, b in [(0, 1), (0, 4), (2, 1), (2, 3), (3, 6)]:
        h1_open_book(identity_spec(g, b))
        k = h1_rank(SurfaceSig(g, b))
        assert shapes.pop() == (k, 2 * g + b - 1), (g, b)


def test_rank_certificate_fixtures():
    cert = rank_certificate(identity_spec(0, 5))
    assert cert.verdict == CERTIFIED and cert.lower_bound == 4
    assert "established" in cert.statement

    cert = rank_certificate(identity_spec(1, 1))
    assert cert.verdict == UNCERTIFIED and cert.lower_bound == 2

    cert = rank_certificate(identity_spec(0, 3))
    assert cert.verdict == UNCERTIFIED and cert.lower_bound == 2
    # Uncertified wording never claims the hypothesis fails.
    assert "not established" in cert.statement
    assert "not assert" in cert.statement


def test_h1_invariant_under_boundary_fixing_conjugation():
    rng = make_rng(31)
    for _ in range(20):
        page = random_page(rng, g_max=2, b_max=3, chi_max=0)
        k = h1_rank(page)
        m = random_monodromy(page, rng)
        spec = OpenBookSpec(page=page, monodromy=m)
        # Conjugate by a random product of transvections, itself a valid
        # "monodromy shape" matrix fixing the boundary classes.  The form is
        # alternating, so (T_c - 1)^2 = 0 and T_c has inverse 2 - T_c.
        j = intersection_form(page)
        twists = [
            transvection(j, [rng.randint(-2, 2) for _ in range(k)]) for _ in range(3)
        ]
        conj = IntMatrix.identity(k)
        conj_inv = IntMatrix.identity(k)
        for t in twists:
            conj = conj.mul(t)
            undo = [[2 * (i == c) - x for c, x in enumerate(row)]
                    for i, row in enumerate(t.entries)]
            conj_inv = IntMatrix.from_rows(undo).mul(conj_inv)
        assert conj_inv.mul(conj) == IntMatrix.identity(k)

        conjugated = conj_inv.mul(m.matrix).mul(conj)
        spec2 = OpenBookSpec(page=page, monodromy=MonodromyH1(conjugated))
        if not validate_monodromy(page, MonodromyH1(conjugated)).ok:
            continue
        assert h1_open_book(spec) == h1_open_book(spec2)


def _dense_conjugate_h1(rng, g, b, shifts):
    """H_1 of a dense M = P D P^-1 on F(g, b) and the seconds it took.

    M comes from :func:`genutils.dense_monodromy`; ``shifts`` lists t - 2.
    """
    page = SurfaceSig(g, b)
    m = dense_monodromy(page, rng, shifts)
    assert max(abs(x) for row in m.matrix.entries for x in row) > 10 ** 6
    spec = OpenBookSpec(page=page, monodromy=m)
    begin = time.perf_counter()
    h1 = h1_open_book(spec)
    return h1, time.perf_counter() - begin


def _kernel_passes(monkeypatch) -> list:
    """Trace each Bareiss pass: its row log and where it formed a kernel.

    Each pass is (log, formed): ``log`` holds (row index, reader) as
    :func:`genutils.traced_rows` records them, and ``formed`` the length of
    ``log`` at each call of ``intalg._pivot_kernel``.
    """
    fraction_free, pivot_kernel = intalg._fraction_free, intalg._pivot_kernel
    passes = []

    def traced(rows):
        passes.append(([], []))
        return fraction_free(traced_rows(rows, passes[-1][0]))

    def kernel(pivots, cols):
        log, formed = passes[-1]
        formed.append(len(log))
        return pivot_kernel(pivots, cols)

    monkeypatch.setattr(intalg, "_fraction_free", traced)
    monkeypatch.setattr(intalg, "_pivot_kernel", kernel)
    return passes


def _assert_tested_not_reduced(passes, boundary_rows):
    """One pass, one kernel, and no row reduced after it: at least the
    boundary rows are only tested."""
    (log, formed), = passes
    (at,) = formed
    after = log[at:]
    assert all(who == "<genexpr>" for _, who in after), after
    assert len({i for i, _ in after}) >= boundary_rows, after


def test_h1_of_dense_rank_60_conjugate_in_closed_form(monkeypatch):
    # The two zero shifts add to the free rank, and the other torsion orders
    # already divide one another in sorted order.
    shifts = [0, 0, 1, -1, 1, -1, 2, -2, 2, 4, -4, 12, 12, -12, 12, 24, 1, 1, -1, 1]
    with monkeypatch.context() as patch:
        passes = _kernel_passes(patch)
        h1, spent = _dense_conjugate_h1(make_rng(35), 20, 21, shifts)
    # The 40 handle rows reach the rank: the 20 boundary rows are tested
    # against the pivots' kernel and skipped, none of them reduced.
    _assert_tested_not_reduced(passes, 20)
    assert h1 == AbelianGroup(20 + 2, (2, 2, 2, 4, 4, 12, 12, 12, 12, 24))
    # Carrying the transforms U and V takes over 20 s here.
    assert spent < 10.0, f"H_1 at rank 60 took {spent:.2f}s"
    # No zero shift: the 40 handle columns have full rank, so the Bareiss
    # pass stops before it has read all of its rows, and the pass modulo G
    # runs modulo |D|.
    fraction_free = intalg._fraction_free
    passes = []

    def counted(rows):
        read = []
        out = fraction_free(read.append(row) or row for row in rows)
        passes.append((len(read), len(rows), len(rows[0]), out[0]))
        return out

    monkeypatch.setattr(intalg, "_fraction_free", counted)
    shifts = [1, -1, 1, -1, 2, -2, 2, 4, -4, 12, 12, -12, 12, 24, 1, 1, -1, 1, -1, 1]
    h1, spent = _dense_conjugate_h1(make_rng(35), 20, 21, shifts)
    assert h1 == AbelianGroup(20, (2, 2, 2, 4, 4, 12, 12, 12, 12, 24))
    assert spent < 10.0, f"H_1 at rank 60 took {spent:.2f}s"
    (read, rows, cols, rank), = passes
    assert rank == cols and read < rows, passes[0]


def test_h1_of_dense_rank_80_conjugate_in_closed_form(monkeypatch):
    # F(27, 27) has rank 80.  Three zero shifts add to the free rank; the
    # torsion orders 2, 4, 12, 24, 48 divide one another in sorted order.
    shifts = [0, 0, 0, 1, -1, 1, -1, 2, -2, 2, 2, 4, -4, 4, 12, -12, 12,
              24, 24, -24, 48, 1, 1, -1, 1, -1, 1]
    passes = _kernel_passes(monkeypatch)
    h1, spent = _dense_conjugate_h1(make_rng(36), 27, 27, shifts)
    _assert_tested_not_reduced(passes, 26)
    assert h1 == AbelianGroup(26 + 3, (2, 2, 2, 2, 4, 4, 4, 12, 12, 12, 24, 24, 24, 48))
    assert spent < 10.0, f"H_1 at rank 80 took {spent:.2f}s"


def test_boundary_row_that_raises_the_rank_is_reduced_after_the_test(monkeypatch):
    # On F(2, 2) the handle block comes from a dense action on F(2, 1) with
    # shifts 0 and 2, so its rows fall one short of full rank and one of
    # them is cleared by the last pivot; the boundary row then raises the
    # rank, fails the kernel test and is reduced.
    a = dense_monodromy(SurfaceSig(2, 1), make_rng(7), [0, 2]).matrix
    rows = [list(row) + [0] for row in a.entries] + [[3, -5, 7, 2, 1]]
    page, m = SurfaceSig(2, 2), MonodromyH1(IntMatrix.from_rows(rows))
    assert validate_monodromy(page, m).ok
    passes = _kernel_passes(monkeypatch)
    assert h1_open_book(OpenBookSpec(page=page, monodromy=m)) == AbelianGroup(1, (2, 60))
    (log, formed), = passes
    assert len(formed) == 1
    tested, reduced = rows_tested_and_reduced(log)
    assert tested == [tested[-1]] and tested[-1] in reduced, log
    presentation = IntMatrix.from_rows(
        [[x - (i == j) for j, x in enumerate(row[:4])] for i, row in enumerate(rows)])
    assert intalg.invariant_factors(presentation) == (1, 1, 2, 60)
    assert smith_normal_form(presentation).invariant_factors == (1, 1, 2, 60)


# ---------------------------------------------------------------------------
# stabilize
# ---------------------------------------------------------------------------


def test_stabilize_shape_and_chi():
    spec = identity_spec(1, 1)
    res = stabilize(spec, site=1)
    assert res.spec.page == SurfaceSig(1, 2)
    assert res.spec.page.euler_char == spec.page.euler_char - 1
    assert validate_monodromy(res.spec.page, res.spec.monodromy).ok
    assert abs(res.change_of_basis.det()) == 1


def test_stabilize_preserves_h1_basic_cases():
    for g, b in [(0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (2, 1)]:
        spec = identity_spec(g, b)
        before = h1_open_book(spec)
        after = h1_open_book(stabilize(spec, site=b).spec)
        assert before == after, (g, b, str(before), str(after))


def test_stabilize_disc_gives_hopf_band():
    # The disc book is the three-sphere; one stabilization gives the annulus
    # book with a single twist, still the three-sphere.
    spec = identity_spec(0, 1)
    assert h1_open_book(spec) == AbelianGroup(0, ())
    res = stabilize(spec, site=1)
    assert res.spec.page == SurfaceSig(0, 2)
    assert h1_open_book(res.spec) == AbelianGroup(0, ())


def test_stabilize_random_specs_preserve_h1():
    rng = make_rng(32)
    for _ in range(20):
        page = random_page(rng, chi_max=0)
        spec = OpenBookSpec(page=page, monodromy=random_monodromy(page, rng))
        before = h1_open_book(spec)
        site = rng.randint(1, page.n_boundary)
        res = stabilize(spec, site=site)
        assert res.spec.page.euler_char == page.euler_char - 1
        assert h1_open_book(res.spec) == before
        # And again: stabilizations compose.
        res2 = stabilize(res.spec, site=rng.randint(1, res.spec.page.n_boundary))
        assert h1_open_book(res2.spec) == before


def test_stabilized_basis_inverse_closed_form():
    for g in range(3):
        for b in range(1, 9):
            page = SurfaceSig(g, b)
            n = h1_rank(page) + 1
            for site in range(1, b + 1):
                p = _stabilized_basis_change(page, site)
                one = IntMatrix.identity(n)
                p_inv = _to_stabilized_basis(page, site, one.entries)
                assert _to_stabilized_basis(page, site, p.entries) == one, (g, b, site)
                assert p.mul(p_inv) == one, (g, b, site)


def _column_basis_change(page, site):
    """The basis change P built column by column: the oracle for the closed form."""
    g, b = page.genus, page.n_boundary
    k = h1_rank(page)
    n = k + 1
    cols = []
    for i in range(2 * g):
        col = [0] * n
        col[i] = 1
        cols.append(col)
    for label in range(1, b + 1):
        col = [0] * n
        if label <= b - 1:
            col[2 * g + label - 1] = 1
            if label == site:
                col[k] = -1
        else:
            # Circle b was never a basis vector: its class is minus the sum
            # of the other old boundary classes.
            for i in range(1, b):
                col[2 * g + i - 1] = -1
            if site == b:
                col[k] = -1
        cols.append(col)
    return IntMatrix.from_rows([[cols[j][i] for j in range(n)] for i in range(n)])


def test_stabilized_basis_change_matches_column_oracle():
    for g in range(3):
        for b in range(1, 9):
            page = SurfaceSig(g, b)
            for site in range(1, b + 1):
                closed_form = _stabilized_basis_change(page, site)
                assert closed_form == _column_basis_change(page, site), (g, b, site)


def test_stabilize_agrees_with_the_product_formula():
    # The new action M' and windings W' satisfy P M' = E P and P W' = carried,
    # where E is the old action extended by the identity on the handle class
    # and carried copies the site circle's winding onto the fresh circle.
    rng = make_rng(37)
    for g in range(4):
        for b in range(1, 8):
            page = SurfaceSig(g, b)
            k = h1_rank(page)
            for site, with_windings in itertools.product(range(1, b + 1), (False, True)):
                rows = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(k)]
                w = None
                if with_windings and k:
                    w = IntMatrix.from_rows(
                        [[rng.randint(-9, 9) for _ in range(b)] for _ in range(k)]
                    )
                m = MonodromyH1(IntMatrix.from_rows(rows))
                spec = OpenBookSpec(page=page, monodromy=m, windings=w)
                res = stabilize(spec, site=site)
                p = _column_basis_change(page, site)
                assert res.change_of_basis == p
                extended = IntMatrix.from_rows([row + [0] for row in rows] + [[0] * k + [1]])
                assert p.mul(res.spec.monodromy.matrix) == extended.mul(p), (g, b, site)
                old_w = spec.winding_matrix().entries
                carried = [list(row) + [row[site - 1]] for row in old_w] + [[0] * b + [1]]
                assert p.mul(res.spec.windings) == IntMatrix.from_rows(carried), (g, b, site)


def test_stabilize_rejects_wrongly_shaped_input():
    page = SurfaceSig(1, 3)
    cases = [
        (IntMatrix.identity(3), None, 1, "matrix is 3x3, expected 4x4 for page"),
        (IntMatrix.identity(4), IntMatrix.zeros(4, 2), 3, "windings are 4x2, expected 4x3"),
        (IntMatrix.identity(4), IntMatrix.zeros(3, 3), 1, "windings are 3x3, expected 4x3"),
        (IntMatrix.identity(4), IntMatrix.zeros(5, 3), 1, "windings are 5x3, expected 4x3"),
    ]
    for matrix, windings, site, message in cases:
        spec = OpenBookSpec(page=page, monodromy=MonodromyH1(matrix), windings=windings)
        with pytest.raises(MonodromyError, match=message):
            stabilize(spec, site=site)


def test_stabilize_ladder_to_rank_42_keeps_h1():
    rng = make_rng(33)
    page = SurfaceSig(1, 1)
    spec = OpenBookSpec(page=page, monodromy=random_monodromy(page, rng))
    before = h1_open_book(spec)
    spent = 0.0
    for _ in range(40):
        site = rng.randint(1, spec.page.n_boundary)
        begin = time.perf_counter()
        spec = stabilize(spec, site=site).spec
        spent += time.perf_counter() - begin
        assert h1_open_book(spec) == before
    assert h1_rank(spec.page) == 42
    # An O(n^5) inversion of the basis change takes tens of seconds here.
    assert spent < 1.0, f"40 stabilizations took {spent:.2f}s"


def test_stabilize_ladders_keep_h1_and_split_the_winding_units(monkeypatch):
    # Each rung adds a boundary circle whose winding column carries a unit;
    # invariant_factors splits the units off, so the Bareiss pass never sees
    # more rows than the base presentation has.
    rng = make_rng(37)
    seen = []
    fraction_free = intalg._fraction_free
    monkeypatch.setattr(intalg, "_fraction_free",
                        lambda rows: seen.append(len(rows)) or fraction_free(rows))
    # The torsion orders of each base already divide one another in sorted
    # order; the handles without a shift add Z^2 each.
    for (g, b), shifts in [((3, 9), [2, 0, -4]), ((4, 7), [12, -2, 1, 4]), ((2, 11), [6])]:
        page = SurfaceSig(g, b)
        spec = OpenBookSpec(page=page, monodromy=dense_monodromy(page, rng, shifts))
        base = h1_open_book(spec)
        free = b - 1 + shifts.count(0) + 2 * (g - len(shifts))
        assert base == AbelianGroup(free, tuple(sorted(abs(n) for n in shifts if abs(n) > 1)))
        k = h1_rank(page)
        for rung in range(30):
            spec = stabilize(spec, site=rng.randint(1, b + rung)).spec
            assert h1_open_book(spec) == base, (page, rung)
        assert h1_rank(spec.page) == k + 30
        assert seen and max(seen) <= k, (page, max(seen))
        seen.clear()


def test_stabilize_invalid_site():
    spec = identity_spec(1, 1)
    with pytest.raises(TribranchError):
        stabilize(spec, site=0)
    with pytest.raises(TribranchError):
        stabilize(spec, site=2)


@pytest.mark.parametrize("site", [True, 1.0, "1", None])
def test_stabilize_rejects_a_site_that_is_not_an_int(site):
    spec = identity_spec(1, 2)
    with pytest.raises(TribranchError, match="not a boundary label 1..2"):
        stabilize(spec, site=site)


def test_stabilize_builds_plain_int_tuples_equal_to_dense_builds():
    rng = make_rng(38)
    for g, b in [(0, 1), (1, 1), (1, 3), (2, 2), (3, 4)]:
        page = SurfaceSig(g, b)
        k = h1_rank(page)
        w = IntMatrix(k, b, tuple(tuple(rng.randint(-5, 5) for _ in range(b))
                                  for _ in range(k)))
        spec = OpenBookSpec(page=page, monodromy=random_monodromy(page, rng), windings=w)
        for site in range(1, b + 1):
            res = stabilize(spec, site=site)
            for mat in (res.change_of_basis, res.spec.monodromy.matrix, res.spec.windings):
                assert type(mat.entries) is tuple
                assert all(type(row) is tuple for row in mat.entries)
                assert all(type(x) is int for row in mat.entries for x in row)
                assert IntMatrix.from_rows(mat.to_json()) == mat


def test_transvection_takes_integer_classes_only():
    j_form = intersection_form(SurfaceSig(1, 1))
    for bad in (1.5, "1", None):
        with pytest.raises(TribranchError, match="grid of integers"):
            transvection(j_form, [1, bad])
    t = transvection(j_form, [1, 0])
    assert t == IntMatrix.from_rows([[1, -1], [0, 1]])
    assert all(type(x) is int for row in t.entries for x in row)


def test_stabilize_clears_path_by_default():
    page = SurfaceSig(1, 1)
    pd = standard_decomposition(page)
    path = PantsPath(start=pd, moves=[], closure={c: c for c in pd.edges})
    spec = OpenBookSpec(page=page, monodromy=MonodromyH1.identity(page), pants_path=path)
    res = stabilize(spec, site=1)
    assert res.spec.pants_path is None
    assert any("cleared" in note for note in res.notes)


def test_stabilize_extend_path_keeps_a_valid_path():
    page = SurfaceSig(1, 1)
    pd = standard_decomposition(page)
    path = PantsPath(start=pd, moves=[], closure={c: c for c in pd.edges})
    spec = OpenBookSpec(page=page, monodromy=MonodromyH1.identity(page), pants_path=path)
    res = stabilize(spec, site=1, extend_path=True)
    new_path = res.spec.pants_path
    assert new_path is not None
    assert new_path.start.surface_sig() == SurfaceSig(1, 2)
    assert validate_path(new_path).ok
    assert validate_spec(res.spec).report.ok


def test_stabilize_extend_path_with_moves():
    from tribranch import PantsMove, S_MOVE

    page = SurfaceSig(1, 1)
    pd = standard_decomposition(page)
    moves = [PantsMove("c1", "g1", S_MOVE), PantsMove("g1", "g2", S_MOVE)]
    path = PantsPath(start=pd, moves=moves, closure={"g2": "c1"})
    spec = OpenBookSpec(page=page, monodromy=MonodromyH1.identity(page), pants_path=path)
    assert validate_spec(spec).report.ok
    res = stabilize(spec, site=1, extend_path=True)
    assert validate_spec(res.spec).report.ok


# ---------------------------------------------------------------------------
# validate_spec
# ---------------------------------------------------------------------------


def test_validate_spec_flags_page_path_mismatch():
    page = SurfaceSig(0, 5)
    wrong_pd = standard_decomposition(SurfaceSig(0, 4))
    path = PantsPath(start=wrong_pd, moves=[], closure={c: c for c in wrong_pd.edges})
    spec = OpenBookSpec(page=page, monodromy=MonodromyH1.identity(page), pants_path=path)
    report = validate_spec(spec).report
    assert "path-page" in report.codes()


def test_validate_spec_checks_windings_shape():
    page = SurfaceSig(1, 1)
    spec = OpenBookSpec(
        page=page,
        monodromy=MonodromyH1.identity(page),
        windings=IntMatrix.zeros(3, 3),
    )
    report = validate_spec(spec).report
    assert "windings-shape" in report.codes()


def test_min_generators_drives_certificates():
    # A book with torsion: genus-one page, monodromy twisting twice.
    page = SurfaceSig(1, 1)
    m = MonodromyH1(IntMatrix.from_rows([[1, 2], [0, 1]]))
    spec = OpenBookSpec(page=page, monodromy=m)
    h1 = h1_open_book(spec)
    assert h1 == AbelianGroup(1, (2,))
    assert min_generators(h1) == 2
    assert rank_certificate(spec).lower_bound == 2
