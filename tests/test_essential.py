import sys

import pytest

from tribranch import (
    CERTIFIED,
    ESSENTIAL,
    FAIL,
    NOT_CERTIFIED,
    PASS,
    PRODUCT_BLOCK,
    STRUCTURAL_PASS,
    UNCERTIFIED,
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
    check_local_models,
    construct_naive,
    construct_outer,
    rank_certificate,
    standard_decomposition,
    validate_spec,
)
from tribranch.complexes import (
    PANTS_PIECE,
    PUSHOFF_ANNULUS,
    TORUS_ANNULUS,
    product_block,
    solid_torus_block,
)
from tribranch.essential import (
    no_block_surjects,
    no_component_in_ball,
    no_disc_branch,
    pi1_injective,
)

from genutils import make_rng, random_outer_spec

CERT4 = RankCertificate(h1=AbelianGroup(4, ()), lower_bound=4, verdict=CERTIFIED)


def essentiality(tc, cert):
    return check_essential(tc, cert, check_local_models(tc))


def theta(prefix, sig, taxonomy, blocks):
    """Three branches of signature ``sig`` glued slot by slot along one
    circle per slot, each branch facing ``blocks`` on its two sides.

    Every slot meets exactly one germ and every circle has three, so the
    local models are clean whatever ``sig`` is.
    """
    slots = tuple(f"s{k}" for k in range(sig.n_boundary))
    branches = tuple(
        Branch(id=f"{prefix}{k}", sig=sig, taxonomy=taxonomy, slots=slots)
        for k in range(3)
    )
    circles = tuple(
        BranchingCircle(id=f"{prefix}{slot}",
                        germs=tuple((b.id, slot) for b in branches))
        for slot in slots
    )
    return TribranchedComplex(
        branches=branches, circles=circles, blocks=tuple(blocks),
        sides={b.id: (blocks[0].id, blocks[-1].id) for b in branches},
    )


PANTS_THETA = theta("p", SurfaceSig(0, 3), PANTS_PIECE,
                    [product_block("blk", SurfaceSig(0, 3))])


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
    report = essentiality(tc, cert)
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
    report = essentiality(tc, cert)
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
    report = essentiality(tc, CERT4)
    assert report.condition(1).status == FAIL
    assert "d" in report.condition(1).witness
    assert report.verdict != ESSENTIAL


def test_dirty_local_models_rejected():
    branch = Branch(id="d", sig=SurfaceSig(0, 2), taxonomy="PantsPiece",
                    slots=("x", "y"))
    circle = BranchingCircle(id="c", germs=(("d", "x"), ("d", "y")))
    tc = TribranchedComplex(branches=(branch,), circles=(circle,), blocks=(),
                            sides={})
    local = check_local_models(tc)
    assert not local.ok
    # A raise, not an assert: it must hold under python -O too.
    with pytest.raises(TribranchError, match="dirty local models: "):
        check_essential(tc, CERT4, local)


def test_naive_complex_never_certifies_condition_four():
    # For the naive construction the block rank equals the page rank, and a
    # certified book (rank >= 4) forces page rank >= 4 > 3: condition (4)
    # cannot pass, matching the fact that the naive surface is not essential.
    spec = OpenBookSpec(page=SurfaceSig(0, 5),
                        monodromy=MonodromyH1.identity(SurfaceSig(0, 5)))
    cert = rank_certificate(spec)
    assert cert.verdict == CERTIFIED
    tc = construct_naive(spec)
    report = essentiality(tc, cert)
    assert report.condition(1).status == PASS
    assert report.condition(3).status == STRUCTURAL_PASS
    assert report.condition(4).status == NOT_CERTIFIED
    assert "rank bound above 3" in report.condition(4).witness


def test_naive_condition_two_needs_negative_chi():
    spec = OpenBookSpec(page=SurfaceSig(0, 2),
                        monodromy=MonodromyH1.identity(SurfaceSig(0, 2)))
    cert = rank_certificate(spec)
    tc = construct_naive(spec)
    report = essentiality(tc, cert)
    assert report.condition(2).status == NOT_CERTIFIED


def test_condition_four_never_passes_when_uncertified():
    rng = make_rng(50)
    for _ in range(15):
        spec = random_outer_spec(rng)
        cert = rank_certificate(spec)
        tc = construct_outer(validate_spec(spec))
        report = essentiality(tc, cert)
        if cert.verdict != CERTIFIED:
            assert report.condition(4).status == NOT_CERTIFIED
        status = report.condition(4).status
        assert status in (PASS, NOT_CERTIFIED)
        if status == PASS:
            assert cert.verdict == CERTIFIED


def test_degenerate_convention_reported_in_notes():
    spec = degenerate_spec(0, 5)
    tc = construct_outer(validate_spec(spec))
    report = essentiality(tc, rank_certificate(spec))
    assert any("degenerate path convention" in note for note in report.notes)


def test_s_move_supports_reported_in_notes():
    from tribranch import PantsMove, S_MOVE

    page = SurfaceSig(1, 1)
    pd = standard_decomposition(page)
    moves = [PantsMove("c1", "g1", S_MOVE), PantsMove("g1", "g2", S_MOVE)]
    path = PantsPath(start=pd, moves=moves, closure={"g2": "c1"})
    spec = OpenBookSpec(page=page, monodromy=MonodromyH1.identity(page), pants_path=path)
    tc = construct_outer(validate_spec(spec))
    report = essentiality(tc, rank_certificate(spec))
    assert any("one-holed torus" in note for note in report.notes)


def test_report_json_contains_condition_numbering():
    spec = degenerate_spec(0, 5)
    tc = construct_outer(validate_spec(spec))
    doc = essentiality(tc, rank_certificate(spec)).to_json()
    assert [c["condition"] for c in doc["conditions"]] == ["(1)", "(2)", "(3)", "(4)"]
    assert doc["verdict"] == ESSENTIAL


# ---------------------------------------------------------------------------
# The four condition functions on hand-built complexes.
# ---------------------------------------------------------------------------


def test_condition_one_passes_and_fails_on_its_own():
    assert no_disc_branch(PANTS_THETA) == (1, PASS, "none of the 3 branches is a disc")
    discs = theta("d", SurfaceSig(0, 1), PANTS_PIECE, PANTS_THETA.blocks)
    assert no_disc_branch(discs) == (1, FAIL, "disc branches: d0, d1, d2")


def test_condition_two_each_branch():
    assert no_component_in_ball(PANTS_THETA) == (
        2, STRUCTURAL_PASS,
        "complex is connected and contains the page-derived branch p0 with "
        "negative Euler characteristic",
    )
    # Annuli have Euler characteristic 0, and an annulus is not page-derived
    # whatever its Euler characteristic.
    annuli = theta("a", SurfaceSig(0, 2), PANTS_PIECE, PANTS_THETA.blocks)
    pushoffs = theta("q", SurfaceSig(0, 3), PUSHOFF_ANNULUS, PANTS_THETA.blocks)
    for tc in (annuli, pushoffs):
        assert no_component_in_ball(tc) == (
            2, NOT_CERTIFIED, "no page-derived branch of negative Euler characteristic",
        )
    # Two clean thetas side by side: connectivity is checked before the anchor.
    other = theta("o", SurfaceSig(0, 3), PANTS_PIECE,
                  [product_block("blk2", SurfaceSig(0, 3))])
    apart = TribranchedComplex(
        branches=PANTS_THETA.branches + other.branches,
        circles=PANTS_THETA.circles + other.circles,
        blocks=PANTS_THETA.blocks + other.blocks,
        sides={**PANTS_THETA.sides, **other.sides},
    )
    assert check_local_models(apart).ok
    assert no_component_in_ball(apart) == (2, NOT_CERTIFIED, "complex is disconnected")
    report = essentiality(apart, CERT4)
    assert report.condition(2).status == NOT_CERTIFIED
    assert not any(note.startswith("condition (2)") for note in report.notes)
    assert report.verdict != ESSENTIAL


def test_condition_three_each_branch():
    assert pi1_injective(PANTS_THETA) == (
        3, STRUCTURAL_PASS,
        "every branch-block incidence matches a construction-certified "
        "pi_1-injective pattern",
    )
    torus = solid_torus_block("T1", 1)
    product = product_block("blk", SurfaceSig(0, 3))
    # A torus annulus may face a solid torus; a push-off annulus may not.
    allowed = theta("t", SurfaceSig(0, 2), TORUS_ANNULUS, [product, torus])
    assert pi1_injective(allowed).status == STRUCTURAL_PASS
    tc = theta("q", SurfaceSig(0, 2), PUSHOFF_ANNULUS, [product, torus])
    assert check_local_models(tc).ok
    assert pi1_injective(tc) == (
        3, NOT_CERTIFIED,
        "3 incidence(s) outside the certified patterns, first: branch q0 in block T1",
    )
    assert essentiality(tc, CERT4).condition(3).status == NOT_CERTIFIED


def test_condition_three_rejects_dirty_sides():
    # A TribranchError naming the branch or block, not a bare KeyError; a
    # raise, so it holds under python -O too.
    block = product_block("blk", SurfaceSig(0, 3))
    unassigned = theta("p", SurfaceSig(0, 3), PANTS_PIECE, [block])._replace(
        sides={"p0": ("blk", "blk"), "p1": ("blk", "blk")})
    assert not check_local_models(unassigned).ok
    with pytest.raises(TribranchError, match="^branch p2 has no block assignment$"):
        pi1_injective(unassigned)
    unknown = theta("p", SurfaceSig(0, 3), PANTS_PIECE, [block])._replace(
        sides={"p0": ("blk", "blk"), "p1": ("blk", "gone"), "p2": ("blk", "blk")})
    assert not check_local_models(unknown).ok
    with pytest.raises(TribranchError,
                       match="^branch p1 assigned to unknown block gone$"):
        pi1_injective(unknown)


def test_condition_four_each_branch():
    assert no_block_surjects(PANTS_THETA, CERT4) == (
        4, PASS,
        "every block needs at most 2 <= 3 generators while rank pi_1(M) >= 4 >= 4",
    )
    weak = RankCertificate(h1=AbelianGroup(2, ()), lower_bound=2, verdict=UNCERTIFIED)
    assert no_block_surjects(PANTS_THETA, weak) == (
        4, NOT_CERTIFIED,
        "rank certificate is Uncertified (lower bound 2 < 4): hypothesis not "
        "established, not asserted false",
    )
    big = theta("p", SurfaceSig(0, 3), PANTS_PIECE,
                [product_block("big", SurfaceSig(1, 3))])
    assert no_block_surjects(big, CERT4) == (
        4, NOT_CERTIFIED, "blocks with fundamental group rank bound above 3: big",
    )


def test_check_essential_composes_the_four_in_order():
    report = essentiality(PANTS_THETA, CERT4)
    assert report.conditions == [
        no_disc_branch(PANTS_THETA),
        no_component_in_ball(PANTS_THETA),
        pi1_injective(PANTS_THETA),
        no_block_surjects(PANTS_THETA, CERT4),
    ]
    assert report.verdict == ESSENTIAL


def test_check_essential_uses_the_callers_local_models(monkeypatch):
    # Every binding of check_local_models in the package is replaced by a
    # spy, so a call through any import path would be counted.
    original = check_local_models
    local = original(PANTS_THETA)
    calls = []

    def spy(tc):
        calls.append(tc)
        return original(tc)

    for name, module in list(sys.modules.items()):
        if name == "tribranch" or name.startswith("tribranch."):
            for key in [k for k, v in vars(module).items() if v is original]:
                monkeypatch.setattr(module, key, spy)
    report = check_essential(PANTS_THETA, CERT4, local)
    assert calls == []
    assert report.verdict == ESSENTIAL
