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
from tribranch.openbook import (
    _stabilized_basis_change,
    _stabilized_basis_inverse,
    preserves_intersection_form,
)

from genutils import make_rng, random_monodromy, random_page


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
    """The codes validate_monodromy reports, with the generic form check."""
    k = h1_rank(page)
    if (mat.rows, mat.cols) != (k, k):
        return ["matrix-dimension"]
    codes = ["boundary-class" for i in range(2 * page.genus, k)
             if mat.column(i) != IntMatrix.identity(k).column(i)]
    j = intersection_form(page)
    if mat.transpose().mul(j).mul(mat) != j:
        codes.append("intersection-form")
    if k and abs(mat.det()) != 1:
        codes.append("determinant")
    return codes


def test_form_check_agrees_with_generic_product():
    rng = make_rng(34)
    seen = {True: 0, False: 0}
    for _ in range(150):
        page = random_page(rng, g_max=3, b_max=4, chi_max=0)
        k = h1_rank(page)
        mat = random_monodromy(page, rng, twists=rng.randint(0, 4)).matrix
        kind = rng.randrange(3)
        if kind and k:
            rows = [list(row) for row in mat.entries]
            i, c = rng.randrange(k), rng.randrange(k)
            if kind == 1:
                rows[i][c] += rng.choice((-2, -1, 1, 2))
            else:
                rows = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
            mat = IntMatrix.from_rows(rows)
        j = intersection_form(page)
        generic = mat.transpose().mul(j).mul(mat) == j
        assert preserves_intersection_form(page, mat) == generic, (page, mat)
        seen[generic] += 1
        report = validate_monodromy(page, MonodromyH1(mat))
        assert report.codes() == _generic_validation(page, mat)
        if "determinant" in report.codes():
            det = mat.det()
            assert report.entries[-1].message == f"determinant {det} is not +-1"
    assert min(seen.values()) >= 30, seen


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
    """H_1 of M = P D P^-1 on F(g, b) and the seconds it took.

    D is the identity on the boundary classes and the block
    [[1, 1], [t - 2, t - 1]] on each handle, whose part of M - 1 has cokernel
    Z/(t - 2); ``shifts`` lists t - 2.  P is a product of k transvections
    T = 1 + c (Jc)^T, applied as rank-one updates, and P^-1 the reversed
    product of their inverses 1 - c (Jc)^T.
    """
    page = SurfaceSig(g, b)
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
    m = IntMatrix.from_rows(pd).mul(IntMatrix.from_rows(p_inv))
    assert max(abs(x) for row in m.entries for x in row) > 10 ** 6
    spec = OpenBookSpec(page=page, monodromy=MonodromyH1(m))
    begin = time.perf_counter()
    h1 = h1_open_book(spec)
    return h1, time.perf_counter() - begin


def test_h1_of_dense_rank_60_conjugate_in_closed_form():
    # The two zero shifts add to the free rank, and the other torsion orders
    # already divide one another in sorted order.
    shifts = [0, 0, 1, -1, 1, -1, 2, -2, 2, 4, -4, 12, 12, -12, 12, 24, 1, 1, -1, 1]
    h1, spent = _dense_conjugate_h1(make_rng(35), 20, 21, shifts)
    assert h1 == AbelianGroup(20 + 2, (2, 2, 2, 4, 4, 12, 12, 12, 12, 24))
    # Carrying the transforms U and V takes over 20 s here.
    assert spent < 10.0, f"H_1 at rank 60 took {spent:.2f}s"


def test_h1_of_dense_rank_80_conjugate_in_closed_form():
    # F(27, 27) has rank 80.  Three zero shifts add to the free rank; the
    # torsion orders 2, 4, 12, 24, 48 divide one another in sorted order.
    shifts = [0, 0, 0, 1, -1, 1, -1, 2, -2, 2, 2, 4, -4, 4, 12, -12, 12,
              24, 24, -24, 48, 1, 1, -1, 1, -1, 1]
    h1, spent = _dense_conjugate_h1(make_rng(36), 27, 27, shifts)
    assert h1 == AbelianGroup(26 + 3, (2, 2, 2, 2, 4, 4, 4, 12, 12, 12, 24, 24, 24, 48))
    assert spent < 10.0, f"H_1 at rank 80 took {spent:.2f}s"


# ---------------------------------------------------------------------------
# stabilize
# ---------------------------------------------------------------------------


def test_stabilize_shape_and_chi():
    spec = identity_spec(1, 1)
    res = stabilize(spec, site=1)
    assert res.spec.page == SurfaceSig(1, 2)
    assert res.spec.page.euler_char == spec.page.euler_char - 1
    assert validate_monodromy(res.spec.page, res.spec.monodromy).ok
    assert res.change_of_basis.is_unimodular()


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
                p_inv = _stabilized_basis_inverse(page, site)
                assert p_inv.mul(p) == IntMatrix.identity(n), (g, b, site)
                assert p.mul(p_inv) == IntMatrix.identity(n), (g, b, site)


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


def test_stabilize_invalid_site():
    spec = identity_spec(1, 1)
    with pytest.raises(TribranchError):
        stabilize(spec, site=0)
    with pytest.raises(TribranchError):
        stabilize(spec, site=2)


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
    assert validate_path(new_path, res.spec.monodromy).ok
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
