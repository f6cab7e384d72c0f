import pytest

from tribranch import (
    PantsDecomposition,
    SurfaceSig,
    TribranchError,
    canonical_key,
    find_isomorphism,
    standard_decomposition,
    validate_pants,
)
from tribranch.schema import parse_decomposition
from tribranch.surfaces import components, cut_structure

from genutils import make_rng, random_decomposition, random_page


def test_euler_char():
    assert SurfaceSig(0, 3).euler_char == -1
    assert SurfaceSig(1, 0).euler_char == 0
    assert SurfaceSig(2, 1).euler_char == -3


def test_negative_signature_rejected():
    with pytest.raises(TribranchError):
        SurfaceSig(-1, 0)
    with pytest.raises(TribranchError):
        SurfaceSig(0, -2)


def test_validate_two_pants_four_legs():
    sig = SurfaceSig(0, 4)
    pd = PantsDecomposition.build(
        ["P0", "P1"],
        {"c1": (("P0", 1), ("P1", 1))},
        {1: ("P0", 2), 2: ("P0", 3), 3: ("P1", 2), 4: ("P1", 3)},
    )
    assert validate_pants(sig, pd).ok
    assert 3 * pd.n_pants == 2 * pd.n_curves + pd.n_legs


def test_validate_self_loop_one_holed_torus():
    sig = SurfaceSig(1, 1)
    pd = PantsDecomposition.build(
        ["P0"], {"c1": (("P0", 1), ("P0", 2))}, {1: ("P0", 3)}
    )
    assert validate_pants(sig, pd).ok
    assert pd.n_curves - pd.n_pants + 1 == sig.genus


def test_validate_pants_count_mismatch():
    sig = SurfaceSig(0, 4)
    pd = PantsDecomposition.build(["P0"], {}, {1: ("P0", 1), 2: ("P0", 2), 3: ("P0", 3)})
    report = validate_pants(sig, pd)
    assert not report.ok
    assert "pants-count" in report.codes()


def test_validate_degenerate_surfaces():
    for sig in (SurfaceSig(0, 1), SurfaceSig(0, 2), SurfaceSig(1, 0), SurfaceSig(0, 0)):
        report = validate_pants(sig, PantsDecomposition.build([], {}, {}))
        assert "no-pants-decomposition" in report.codes()


def test_validate_slot_reuse_detected():
    sig = SurfaceSig(0, 4)
    pd = PantsDecomposition.build(
        ["P0", "P1"],
        {"c1": (("P0", 1), ("P1", 1))},
        {1: ("P0", 1), 2: ("P0", 3), 3: ("P1", 2), 4: ("P1", 3)},
    )
    report = validate_pants(sig, pd)
    assert [e.message for e in report.entries if e.code == "slot-usage"] == [
        "cuff (P0,1) used 2 times (expected exactly 1)",
        "cuff (P0,2) used 0 times (expected exactly 1)",
    ]


def test_validate_disconnected():
    sig = SurfaceSig(0, 6)
    pd = PantsDecomposition.build(
        ["P0", "P1", "P2", "P3"],
        {"c1": (("P0", 1), ("P1", 1)), "c2": (("P2", 1), ("P3", 1))},
        {
            1: ("P0", 2), 2: ("P0", 3), 3: ("P1", 2), 4: ("P1", 3),
            5: ("P2", 2), 6: ("P2", 3),
        },
    )
    report = validate_pants(sig, pd)
    assert "disconnected" in report.codes()
    # The leg labels are also off (P3 has unused slots), caught separately.
    assert "slot-usage" in report.codes()


def test_connected_graphs():
    assert components([], []) == []
    assert components(["a"], []) == [["a"]]
    assert components(["b", "a"], []) == [["a"], ["b"]]
    assert components(["a", "b", "c"], [("a", "b"), ("c", "b"), ("c", "c")]) == [["a", "b", "c"]]
    # Parallel edges and self-loops join nothing new.
    assert components(["a", "b", "c"], [("a", "b"), ("b", "a"), ("a", "b"), ("c", "c")]) \
        == [["a", "b"], ["c"]]
    # Pairs with an end outside the nodes are ignored.
    assert components(["a", "b"], [("a", "x"), ("x", "b")]) == [["a"], ["b"]]
    # Components are sorted and ordered by their smallest node.
    assert components(["e", "d", "c", "b", "a"], [("e", "a"), ("d", "b"), ("c", "d")]) \
        == [["a", "e"], ["b", "c", "d"]]
    # An empty decomposition is never reported as disconnected.
    empty = PantsDecomposition.build([], {}, {})
    assert "disconnected" not in validate_pants(SurfaceSig(0, 3), empty).codes()


def cut_sigs(pd, cut):
    """The homeomorphism types of the pieces of ``pd`` cut along ``cut``."""
    return [piece.sig for piece in cut_structure(pd, cut)]


def test_cut_components_nothing_removed_gives_pants():
    sig = SurfaceSig(0, 5)
    pd = standard_decomposition(sig)
    assert cut_sigs(pd, set(pd.edges)) == [SurfaceSig(0, 3)] * 3


def test_cut_components_merging_two_pants():
    sig = SurfaceSig(0, 5)
    pd = standard_decomposition(sig)
    pieces = cut_sigs(pd, set(pd.edges) - {"c1"})
    assert sorted(pieces) == sorted([SurfaceSig(0, 4), SurfaceSig(0, 3)])


def test_cut_components_self_loop_gives_one_holed_torus():
    sig = SurfaceSig(1, 1)
    pd = standard_decomposition(sig)
    [piece] = cut_sigs(pd, set(pd.edges) - {"c1"})
    assert piece == SurfaceSig(1, 1)
    assert piece.euler_char == -1 and piece.n_boundary == 1


def test_cut_components_unknown_curve():
    sig = SurfaceSig(0, 4)
    pd = standard_decomposition(sig)
    with pytest.raises(TribranchError, match="unknown curve ids \\['nope'\\]"):
        cut_structure(pd, {"nope"})
    with pytest.raises(TribranchError, match="unknown curve ids \\['nope'\\]"):
        cut_structure(pd, set(pd.edges) | {"nope"})


@pytest.mark.parametrize("stray", ["leg", "curve_end"])
def test_cut_on_unknown_pants_is_a_domain_error(stray):
    # Pants P and Q; either leg 2 or an end of curve c2 sits on pants Z.
    edges = {"c1": (("P", 1), ("Q", 1)), "c2": (("P", 2), ("Q", 2))}
    legs = {1: ("P", 3), 2: ("Q", 3)}
    if stray == "leg":
        legs[2] = ("Z", 1)
    else:
        edges["c2"] = (("P", 2), ("Z", 2))
    pd = PantsDecomposition(pants=frozenset({"P", "Q"}), edges=edges, legs=legs)
    for cut in ({"c1"}, {"c1", "c2"}):
        with pytest.raises(TribranchError, match="unknown pants \\['Z'\\]"):
            cut_structure(pd, cut)


def test_cut_components_all_removed_recovers_surface():
    rng = make_rng(1)
    for _ in range(15):
        sig = random_page(rng)
        pd = random_decomposition(sig, rng)
        assert cut_sigs(pd, set()) == [sig]
        # and removing nothing always gives one pants per vertex
        assert cut_sigs(pd, set(pd.edges)) == [SurfaceSig(0, 3)] * pd.n_pants


def test_cut_components_chi_additivity():
    rng = make_rng(2)
    for _ in range(15):
        sig = random_page(rng)
        pd = random_decomposition(sig, rng)
        curves = sorted(pd.edges)
        removed = {c for c in curves if rng.random() < 0.5}
        pieces = cut_sigs(pd, set(curves) - removed)
        assert sum(p.euler_char for p in pieces) == sig.euler_char


def test_counting_identities_on_random_decompositions():
    rng = make_rng(3)
    for _ in range(20):
        sig = random_page(rng)
        pd = random_decomposition(sig, rng)
        assert validate_pants(sig, pd).ok
        v, e, legs = pd.n_pants, pd.n_curves, pd.n_legs
        assert 3 * v == 2 * e + legs
        assert v == 2 * sig.genus + sig.n_boundary - 2
        assert e == 3 * sig.genus + sig.n_boundary - 3
        assert e - v + 1 == sig.genus


def test_canonical_key_is_isomorphism_invariant():
    sig = SurfaceSig(0, 5)
    pd = standard_decomposition(sig)
    relabeled = PantsDecomposition.build(
        ["Q2", "Q0", "Q1"],
        {"x": (("Q2", 3), ("Q0", 2)), "y": (("Q0", 3), ("Q1", 1))},
        {1: ("Q2", 1), 2: ("Q2", 2), 3: ("Q0", 1), 4: ("Q1", 2), 5: ("Q1", 3)},
    )
    assert validate_pants(sig, relabeled).ok
    assert canonical_key(pd) == canonical_key(relabeled)
    assert find_isomorphism(pd, relabeled) is not None


def test_leg_labels_distinguish_decorated_graphs():
    base = {"c1": (("P0", 1), ("P1", 1)), "c2": (("P1", 2), ("P2", 1))}
    a = PantsDecomposition.build(
        ["P0", "P1", "P2"], base,
        {1: ("P0", 2), 2: ("P0", 3), 3: ("P1", 3), 4: ("P2", 2), 5: ("P2", 3)},
    )
    b = PantsDecomposition.build(
        ["P0", "P1", "P2"], base,
        {1: ("P0", 2), 3: ("P0", 3), 2: ("P1", 3), 4: ("P2", 2), 5: ("P2", 3)},
    )
    assert find_isomorphism(a, b) is None
    assert canonical_key(a) != canonical_key(b)


def test_find_isomorphism_returns_usable_maps():
    sig = SurfaceSig(1, 2)
    pd = standard_decomposition(sig)
    rng = make_rng(4)
    other = random_decomposition(sig, rng, scramble=0)
    iso = find_isomorphism(pd, other)
    assert iso is not None
    vmap, emap = iso
    for curve, image in emap.items():
        ends = {vmap[end[0]] for end in pd.edges[curve]}
        image_ends = {end[0] for end in other.edges[image]}
        assert ends == image_ends


def test_serialization_round_trip():
    rng = make_rng(5)
    for _ in range(10):
        sig = random_page(rng)
        pd = random_decomposition(sig, rng)
        doc = pd.to_json()
        back = parse_decomposition(doc)
        assert back == pd
