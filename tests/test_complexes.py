import json

import pytest

from tribranch import (
    HORIZONTAL_ANNULUS,
    MERGED_PIECE,
    NAIVE_PAGE,
    PANTS_PIECE,
    PRODUCT_BLOCK,
    PUSHOFF_ANNULUS,
    SOLID_TORUS,
    TORUS_ANNULUS,
    Block,
    Branch,
    BranchingCircle,
    ConstructionError,
    MonodromyH1,
    OpenBookSpec,
    PantsMove,
    PantsPath,
    S_MOVE,
    SurfaceSig,
    TribranchedComplex,
    check_local_models,
    construct_naive,
    construct_outer,
    euler_audit,
    standard_decomposition,
    validate_spec,
)

from genutils import make_rng, random_monodromy, random_outer_spec, random_page
from test_essential import theta
from tribranch.complexes import product_block
from tribranch.schema import complex_json


def degenerate_spec(g, b, monodromy=None):
    page = SurfaceSig(g, b)
    pd = standard_decomposition(page)
    path = PantsPath(start=pd, moves=[], closure={c: c for c in pd.edges})
    return OpenBookSpec(
        page=page,
        monodromy=monodromy or MonodromyH1.identity(page),
        pants_path=path,
    )


def germ_slot_identity(tc: TribranchedComplex):
    """3 * circles = total branch boundary slots; every slot matched once."""
    assert 3 * len(tc.circles) == sum(len(b.slots) for b in tc.branches)
    assert check_local_models(tc).ok


# ---------------------------------------------------------------------------
# construct_naive
# ---------------------------------------------------------------------------


def test_naive_one_holed_torus():
    page = SurfaceSig(1, 1)
    tc = construct_naive(OpenBookSpec(page=page, monodromy=MonodromyH1.identity(page)))
    assert len(tc.branches) == 3
    assert len(tc.blocks) == 3
    assert len(tc.circles) == 1
    assert all(b.taxonomy == NAIVE_PAGE and b.sig == page for b in tc.branches)
    assert all(
        b.kind == PRODUCT_BLOCK and b.base == page and b.pi1_rank_bound == 2
        for b in tc.blocks
    )
    germ_slot_identity(tc)


def test_naive_pair_of_pants():
    page = SurfaceSig(0, 3)
    tc = construct_naive(OpenBookSpec(page=page, monodromy=MonodromyH1.identity(page)))
    assert len(tc.branches) == 3 and len(tc.blocks) == 3 and len(tc.circles) == 3
    for circle in tc.circles:
        assert len(circle.germs) == 3
        assert {g[0] for g in circle.germs} == {"page:0", "page:1", "page:2"}
    germ_slot_identity(tc)


def test_naive_rejects_disc_page():
    page = SurfaceSig(0, 1)
    with pytest.raises(ConstructionError, match="chi"):
        construct_naive(OpenBookSpec(page=page, monodromy=MonodromyH1.identity(page)))


def test_naive_rejects_closed_page():
    # F(1, 0) has chi = 0 but no boundary circle to bind the open book.
    with pytest.raises(ConstructionError, match="at least one boundary circle"):
        construct_naive(OpenBookSpec(page=SurfaceSig(1, 0), monodromy=None))


def test_naive_allows_chi_zero_annulus_page():
    page = SurfaceSig(0, 2)
    tc = construct_naive(OpenBookSpec(page=page, monodromy=MonodromyH1.identity(page)))
    assert len(tc.branches) == 3 and len(tc.circles) == 2
    germ_slot_identity(tc)


def test_naive_counts_independent_of_monodromy():
    rng = make_rng(40)
    for _ in range(10):
        page = random_page(rng, chi_max=0)
        spec = OpenBookSpec(page=page, monodromy=random_monodromy(page, rng))
        tc = construct_naive(spec)
        assert len(tc.branches) == 3
        assert len(tc.blocks) == 3
        assert len(tc.circles) == page.n_boundary
        assert all(b.sig.euler_char == page.euler_char for b in tc.branches)
        germ_slot_identity(tc)
        audit = euler_audit(tc)
        assert audit.ok
        assert audit.chi_from_branches == 3 * page.euler_char


# ---------------------------------------------------------------------------
# construct_outer: frozen fixtures
# ---------------------------------------------------------------------------


def test_outer_four_holed_sphere_hand_enumeration():
    """Hand/cell enumeration of the degenerate single-curve construction.

    Page (0,4) with one decomposition curve at a single level: the page is
    cut along the curve and its push-off into two pants and one strip; one
    annulus climbs around; each of the four boundary tori is one annulus.
    Circles: the curve, its push-off, and four page boundary circles.
    Blocks: a product over each pants and four solid tori.
    """
    tc = construct_outer(validate_spec(degenerate_spec(0, 4)))
    assert tc.inventory()["branch_taxonomy"] == {
        HORIZONTAL_ANNULUS: 1,
        PUSHOFF_ANNULUS: 1,
        PANTS_PIECE: 2,
        TORUS_ANNULUS: 4,
    }
    assert len(tc.branches) == 8
    assert len(tc.circles) == 6
    assert len(tc.blocks) == 6
    assert tc.inventory()["block_kinds"] == {PRODUCT_BLOCK: 2, SOLID_TORUS: 4}
    germ_slot_identity(tc)
    audit = euler_audit(tc)
    assert audit.ok and audit.chi_from_branches == -2


def test_outer_f05_fixture():
    tc = construct_outer(validate_spec(degenerate_spec(0, 5)))
    assert tc.inventory()["branch_taxonomy"] == {
        HORIZONTAL_ANNULUS: 2,
        PUSHOFF_ANNULUS: 2,
        PANTS_PIECE: 3,
        TORUS_ANNULUS: 5,
    }
    assert len(tc.circles) == 2 * 2 + 5
    assert tc.inventory()["block_kinds"] == {PRODUCT_BLOCK: 3, SOLID_TORUS: 5}
    assert all(b.pi1_rank_bound <= 3 for b in tc.blocks)
    assert tc.is_connected()
    germ_slot_identity(tc)


def test_empty_complex_is_connected():
    assert TribranchedComplex(branches=(), circles=(), blocks=(), sides={}).is_connected()


def test_outer_requires_negative_chi():
    page = SurfaceSig(0, 2)
    pd_dummy = standard_decomposition(SurfaceSig(0, 3))
    path = PantsPath(start=pd_dummy, moves=[], closure={})
    spec = OpenBookSpec(page=page, monodromy=MonodromyH1.identity(page), pants_path=path)
    with pytest.raises(ConstructionError, match="chi"):
        construct_outer(validate_spec(spec))


def test_outer_requires_pants_data():
    page = SurfaceSig(0, 5)
    spec = OpenBookSpec(page=page, monodromy=MonodromyH1.identity(page))
    with pytest.raises(ConstructionError, match="pants data required"):
        construct_outer(validate_spec(spec))


def test_outer_degenerate_convention_can_be_disabled():
    spec = degenerate_spec(0, 5)
    spec = OpenBookSpec(
        page=spec.page,
        monodromy=spec.monodromy,
        pants_path=spec.pants_path,
        degenerate_path_convention=False,
    )
    with pytest.raises(ConstructionError, match="degenerate"):
        construct_outer(validate_spec(spec))


def test_outer_alternating_self_loop_path_gives_one_holed_tori():
    page = SurfaceSig(1, 1)
    pd = standard_decomposition(page)
    moves = [PantsMove("c1", "g1", S_MOVE), PantsMove("g1", "g2", S_MOVE)]
    path = PantsPath(start=pd, moves=moves, closure={"g2": "c1"})
    spec = OpenBookSpec(page=page, monodromy=MonodromyH1.identity(page), pants_path=path)
    tc = construct_outer(validate_spec(spec))
    merged = [b for b in tc.branches if b.taxonomy == MERGED_PIECE]
    assert merged and all(b.sig == SurfaceSig(1, 1) for b in merged)
    # Oracle: the move support is the whole one-holed torus, so the blocks
    # are products over it too.
    products = [b for b in tc.blocks if b.kind == PRODUCT_BLOCK]
    assert all(b.base == SurfaceSig(1, 1) and b.pi1_rank_bound == 2 for b in products)
    assert len(tc.circles) == 2 * 0 + 2 * 1  # no shared curves, two levels
    germ_slot_identity(tc)
    assert euler_audit(tc).ok


def test_outer_nondegenerate_mirror_path():
    from genutils import inverse_move
    from tribranch import A_MOVE, apply_move, enumerate_pairings

    page = SurfaceSig(0, 5)
    pd = standard_decomposition(page)
    mv = PantsMove("c1", "x1", A_MOVE, enumerate_pairings(pd, "c1")[1])
    mid = apply_move(pd, mv)
    inv = inverse_move(pd, mv, mid, "x2")
    final = apply_move(mid, inv)
    from tribranch import find_isomorphism

    closure = dict(find_isomorphism(final, pd)[1])
    path = PantsPath(start=pd, moves=[mv, inv], closure=closure)
    spec = OpenBookSpec(page=page, monodromy=MonodromyH1.identity(page), pants_path=path)
    tc = construct_outer(validate_spec(spec))
    assert tc.meta["levels"] == 2
    assert not tc.meta["degenerate_path_convention_used"]
    # One shared-curve set per level, each of size E - 1 = 1.
    assert tc.meta["shared_curve_counts"] == [1, 1]
    assert len(tc.circles) == 2 * 2 + 2 * 5
    counts = tc.inventory()["branch_taxonomy"]
    assert counts[HORIZONTAL_ANNULUS] == 2
    assert counts[MERGED_PIECE] == 2  # the move supports stay uncut
    germ_slot_identity(tc)
    assert euler_audit(tc).ok
    assert tc.is_connected()


# ---------------------------------------------------------------------------
# construct_outer: randomized suite
# ---------------------------------------------------------------------------


def test_outer_randomized_suite():
    rng = make_rng(41)
    for _ in range(30):
        spec = random_outer_spec(rng)
        tc = construct_outer(validate_spec(spec))
        for branch in tc.branches:
            assert branch.sig.euler_char in (0, -1, -2)
            assert branch.sig != SurfaceSig(0, 1)
        for block in tc.blocks:
            assert block.pi1_rank_bound <= 3
        n_shared = sum(tc.meta["shared_curve_counts"])
        levels = tc.meta["levels"]
        b = spec.page.n_boundary
        assert len(tc.circles) == 2 * n_shared + levels * b
        counts = tc.inventory()["branch_taxonomy"]
        assert counts.get(HORIZONTAL_ANNULUS, 0) == n_shared
        assert counts.get(TORUS_ANNULUS, 0) == levels * b
        assert tc.is_connected()
        germ_slot_identity(tc)
        assert euler_audit(tc).ok


def corner_block_parity(tc: TribranchedComplex):
    """At a triple circle the three germ branches bound three sectors, each
    a corner of one block seen from two sides; so among the six block
    assignments meeting the circle, every block occurs an even number of
    times.  An independent witness that the side bookkeeping is geometric."""
    from collections import Counter

    for circle in tc.circles:
        corners = Counter()
        for branch_id, _slot in circle.germs:
            for block_id in tc.sides[branch_id]:
                corners[block_id] += 1
        if any(count % 2 for count in corners.values()):
            return circle.id, dict(corners)
    return None


def test_corner_block_parity_on_constructions():
    rng = make_rng(42)
    spec = degenerate_spec(0, 5)
    assert corner_block_parity(construct_outer(validate_spec(spec))) is None
    assert corner_block_parity(construct_naive(spec)) is None
    for _ in range(25):
        tc = construct_outer(validate_spec(random_outer_spec(rng)))
        assert corner_block_parity(tc) is None


def test_corner_block_parity_detects_corruption():
    tc = construct_outer(validate_spec(degenerate_spec(0, 5)))
    sides = dict(tc.sides)
    # Reassign one side of one horizontal annulus to the wrong block.
    victim = next(b.id for b in tc.branches if b.taxonomy == HORIZONTAL_ANNULUS)
    below, above = sides[victim]
    other = next(b.id for b in tc.blocks if b.id not in (below, above))
    sides[victim] = (other, above)
    broken = TribranchedComplex(
        branches=tc.branches, circles=tc.circles, blocks=tc.blocks,
        sides=sides, meta=tc.meta,
    )
    assert corner_block_parity(broken) is not None


# ---------------------------------------------------------------------------
# check_local_models on hand-built complexes
# ---------------------------------------------------------------------------


def hand_built():
    branch = Branch(id="s", sig=SurfaceSig(0, 2), taxonomy=TORUS_ANNULUS,
                    slots=("x", "y"))
    block = Block(id="blk", kind=SOLID_TORUS, boundary_label=1, pi1_rank_bound=1)
    circle_good = BranchingCircle(id="c", germs=(("s", "x"), ("s", "y"), ("s", "x")))
    return branch, block, circle_good


def test_local_models_two_germ_circle_rejected():
    branch, block, _ = hand_built()
    tc = TribranchedComplex(
        branches=(branch,),
        circles=(BranchingCircle(id="c", germs=(("s", "x"), ("s", "y"))),),
        blocks=(block,),
        sides={"s": ("blk", "blk")},
    )
    report = check_local_models(tc)
    assert "germ-count" in report.codes()


def test_local_models_slot_reuse_rejected():
    branch, block, circle = hand_built()
    tc = TribranchedComplex(
        branches=(branch,), circles=(circle,), blocks=(block,),
        sides={"s": ("blk", "blk")},
    )
    report = check_local_models(tc)
    assert "slot-reused" in report.codes()


def test_local_models_missing_sides_rejected():
    branch, block, _ = hand_built()
    circle = BranchingCircle(id="c", germs=(("s", "x"), ("s", "y"), ("t", "z")))
    tc = TribranchedComplex(
        branches=(branch,), circles=(circle,), blocks=(block,), sides={},
    )
    report = check_local_models(tc)
    assert "germ-branch" in report.codes()
    assert "sides-missing" in report.codes()


def test_local_models_side_to_unknown_block():
    branch, block, _ = hand_built()
    tc = TribranchedComplex(
        branches=(branch,),
        circles=(BranchingCircle(id="c", germs=(("s", "x"), ("s", "y"), ("s", "x"))),),
        blocks=(block,),
        sides={"s": ("blk", "nope")},
    )
    report = check_local_models(tc)
    assert "sides-block" in report.codes()


def test_local_models_side_count_must_be_two():
    branch, block, _ = hand_built()
    tc = TribranchedComplex(
        branches=(branch,),
        circles=(BranchingCircle(id="c", germs=(("s", "x"), ("s", "y"), ("s", "x"))),),
        blocks=(block,),
        sides={"s": ("blk", "blk", "blk")},
    )
    report = check_local_models(tc)
    assert "sides-count" in report.codes()


BLK = product_block("blk", SurfaceSig(0, 3))


def _misplaced_germ(tc):
    first, *rest = tc.circles
    germs = ((first.germs[0][0], "s9"),) + first.germs[1:]
    return tc._replace(circles=(first._replace(germs=germs), *rest))


def _extra_slot(tc):
    first, *rest = tc.branches
    return tc._replace(branches=(first._replace(slots=first.slots + ("s3",)), *rest))


@pytest.mark.parametrize("tamper, codes", [
    # The slot the germ should name is then matched by no circle.
    (_misplaced_germ, ["germ-slot", "slot-unmatched"]),
    (_extra_slot, ["slot-unmatched"]),
    (lambda tc: tc._replace(sides={**tc.sides, "ghost": ("blk", "blk")}), ["sides-branch"]),
], ids=["germ-slot", "slot-unmatched", "sides-branch"])
def test_local_models_report_each_fault(tamper, codes):
    tc = theta("p", SurfaceSig(0, 3), PANTS_PIECE, [BLK])
    assert check_local_models(tc).ok
    assert check_local_models(tamper(tc)).codes() == codes


def _levelled(tc, levels):
    return tc._replace(branches=tuple(b._replace(level=k) for b, k in zip(tc.branches, levels)))


@pytest.mark.parametrize("tc, meta, codes", [
    # Pants filed as annuli.
    (theta("a", SurfaceSig(0, 3), TORUS_ANNULUS, [BLK]), {}, ["annulus-chi"] * 3),
    # Three pants as the pages of F(0,4): 3 chi(page) is off as well.
    (theta("n", SurfaceSig(0, 3), NAIVE_PAGE, [BLK]),
     {"construction": "naive", "page": SurfaceSig(0, 4)},
     ["naive-branch-chi"] * 3 + ["chi-mismatch"]),
    # Pants at levels 0, 0 and 2 of three: levels 0 and 1 are off, the sum is not.
    (_levelled(theta("p", SurfaceSig(0, 3), PANTS_PIECE, [BLK]), (0, 0, 2)),
     {"construction": "outer", "page": SurfaceSig(0, 3), "levels": 3},
     ["level-chi"] * 2),
    # No levels, so no page pieces to sum, but branches of chi -1.
    (theta("n", SurfaceSig(0, 3), NAIVE_PAGE, [BLK]),
     {"construction": "outer", "page": SurfaceSig(0, 3), "levels": 0},
     ["chi-mismatch"]),
], ids=["annulus-chi", "naive-branch-chi", "level-chi", "chi-mismatch"])
def test_euler_audit_reports_each_fault(tc, meta, codes):
    assert euler_audit(tc._replace(meta=meta)).report.codes() == codes


def test_complex_serialization_shape():
    tc = construct_outer(validate_spec(degenerate_spec(0, 4)))
    doc = json.loads(complex_json(tc, tc.inventory()))
    assert doc["inventory"]["branches"] == 8
    assert {b["taxonomy"] for b in doc["branches"]} == {
        HORIZONTAL_ANNULUS, PUSHOFF_ANNULUS, PANTS_PIECE, TORUS_ANNULUS,
    }
    assert all(len(c["germs"]) == 3 for c in doc["circles"])
    assert doc["meta"]["construction"] == "outer"
