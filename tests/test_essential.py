import pytest

from tribranch import (
    CERTIFIED,
    ESSENTIAL,
    FAIL,
    NOT_CERTIFIED,
    PASS,
    PRODUCT_BLOCK,
    STRUCTURAL_PASS,
    Block,
    Branch,
    BranchingCircle,
    MonodromyH1,
    OpenBookSpec,
    PantsPath,
    RankCertificate,
    SurfaceSig,
    TribranchError,
    TribranchedComplex,
    AbelianGroup,
    check_essential,
    construct_naive,
    construct_outer,
    rank_certificate,
    standard_decomposition,
    validate_spec,
)

from genutils import make_rng, random_outer_spec


def degenerate_spec(g, b):
    page = SurfaceSig(g, b)
    pd = standard_decomposition(page)
    path = PantsPath(start=pd, moves=[], closure={c: c for c in pd.edges})
    return OpenBookSpec(page=page, monodromy=MonodromyH1.identity(page), pants_path=path)


def test_end_to_end_positive_fixture():
    spec = degenerate_spec(0, 5)
    cert = rank_certificate(spec)
    assert cert.verdict == CERTIFIED
    tc = construct_outer(validate_spec(spec))
    report = check_essential(tc, cert)
    assert report.condition(1).status == PASS
    assert report.condition(2).status == STRUCTURAL_PASS
    assert report.condition(3).status == STRUCTURAL_PASS
    assert report.condition(4).status == PASS
    assert report.verdict == ESSENTIAL


def test_end_to_end_negative_fixture():
    spec = degenerate_spec(1, 1)
    cert = rank_certificate(spec)
    assert cert.lower_bound == 2
    tc = construct_outer(validate_spec(spec))
    report = check_essential(tc, cert)
    assert report.condition(4).status == NOT_CERTIFIED
    for number in (1, 2, 3):
        assert report.condition(number).status in (PASS, STRUCTURAL_PASS)
    assert report.verdict != ESSENTIAL


def test_disc_branch_fails_condition_one():
    branch = Branch(id="d", sig=SurfaceSig(0, 1), taxonomy="PantsPiece",
                    slots=("x",))
    filler = Branch(id="f", sig=SurfaceSig(0, 2), taxonomy="PantsPiece",
                    slots=("y", "z"))
    block = Block(id="blk", kind=PRODUCT_BLOCK, base=SurfaceSig(0, 3),
                  pi1_rank_bound=2)
    circle = BranchingCircle(id="c", germs=(("d", "x"), ("f", "y"), ("f", "z")))
    tc = TribranchedComplex(
        branches=(branch, filler), circles=(circle,), blocks=(block,),
        sides={"d": ("blk", "blk"), "f": ("blk", "blk")},
    )
    cert = RankCertificate(h1=AbelianGroup(4, ()), lower_bound=4, verdict=CERTIFIED)
    report = check_essential(tc, cert)
    assert report.condition(1).status == FAIL
    assert "d" in report.condition(1).witness
    assert report.verdict != ESSENTIAL


def test_dirty_local_models_rejected():
    branch = Branch(id="d", sig=SurfaceSig(0, 2), taxonomy="PantsPiece",
                    slots=("x", "y"))
    circle = BranchingCircle(id="c", germs=(("d", "x"), ("d", "y")))
    tc = TribranchedComplex(branches=(branch,), circles=(circle,), blocks=(),
                            sides={})
    cert = RankCertificate(h1=AbelianGroup(4, ()), lower_bound=4, verdict=CERTIFIED)
    with pytest.raises(TribranchError, match="dirty local models"):
        check_essential(tc, cert)


def test_naive_complex_never_certifies_condition_four():
    # For the naive construction the block rank equals the page rank, and a
    # certified book (rank >= 4) forces page rank >= 4 > 3: condition (4)
    # cannot pass, matching the fact that the naive surface is not essential.
    spec = OpenBookSpec(page=SurfaceSig(0, 5),
                        monodromy=MonodromyH1.identity(SurfaceSig(0, 5)))
    cert = rank_certificate(spec)
    assert cert.verdict == CERTIFIED
    tc = construct_naive(spec)
    report = check_essential(tc, cert)
    assert report.condition(1).status == PASS
    assert report.condition(3).status == STRUCTURAL_PASS
    assert report.condition(4).status == NOT_CERTIFIED
    assert "rank bound above 3" in report.condition(4).witness


def test_naive_condition_two_needs_negative_chi():
    spec = OpenBookSpec(page=SurfaceSig(0, 2),
                        monodromy=MonodromyH1.identity(SurfaceSig(0, 2)))
    cert = rank_certificate(spec)
    tc = construct_naive(spec)
    report = check_essential(tc, cert)
    assert report.condition(2).status == NOT_CERTIFIED


def test_condition_four_never_passes_when_uncertified():
    rng = make_rng(50)
    for _ in range(15):
        spec = random_outer_spec(rng)
        cert = rank_certificate(spec)
        tc = construct_outer(validate_spec(spec))
        report = check_essential(tc, cert)
        if cert.verdict != CERTIFIED:
            assert report.condition(4).status == NOT_CERTIFIED
        status = report.condition(4).status
        assert status in (PASS, NOT_CERTIFIED)
        if status == PASS:
            assert cert.verdict == CERTIFIED


def test_degenerate_convention_reported_in_notes():
    spec = degenerate_spec(0, 5)
    tc = construct_outer(validate_spec(spec))
    report = check_essential(tc, rank_certificate(spec))
    assert any("degenerate path convention" in note for note in report.notes)


def test_s_move_supports_reported_in_notes():
    from tribranch import PantsMove, S_MOVE

    page = SurfaceSig(1, 1)
    pd = standard_decomposition(page)
    moves = [PantsMove("c1", "g1", S_MOVE), PantsMove("g1", "g2", S_MOVE)]
    path = PantsPath(start=pd, moves=moves, closure={"g2": "c1"})
    spec = OpenBookSpec(page=page, monodromy=MonodromyH1.identity(page), pants_path=path)
    tc = construct_outer(validate_spec(spec))
    report = check_essential(tc, rank_certificate(spec))
    assert any("one-holed torus" in note for note in report.notes)


def test_report_json_contains_condition_numbering():
    spec = degenerate_spec(0, 5)
    tc = construct_outer(validate_spec(spec))
    doc = check_essential(tc, rank_certificate(spec)).to_json()
    assert [c["condition"] for c in doc["conditions"]] == ["(1)", "(2)", "(3)", "(4)"]
    assert doc["verdict"] == ESSENTIAL
