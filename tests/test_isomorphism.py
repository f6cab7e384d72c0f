"""The isomorphism routines of ``surfaces`` against the exhaustive oracles."""

import itertools
from collections import Counter

import oracles
from tribranch import (
    PantsDecomposition,
    SurfaceSig,
    apply_move,
    canonical_key,
    find_isomorphism,
    standard_decomposition,
    validate_pants,
)
from tribranch import surfaces
from tribranch.surfaces import vertex_map_from_curve_bijection

from genutils import make_rng, random_decomposition, random_move, random_page

SIGS = ([SurfaceSig(0, b) for b in range(4, 8)]
        + [SurfaceSig(1, b) for b in range(1, 6)]
        + [SurfaceSig(2, b) for b in range(0, 4)])


def relabel(pd, rng):
    """A copy with fresh random pants and curve ids, and the curve map onto it."""
    pants = sorted(pd.pants)
    new_p = dict(zip(pants, (f"Q{n}" for n in rng.sample(range(1000), len(pants)))))
    curves = sorted(pd.edges)
    new_c = dict(zip(curves, (f"k{n}" for n in rng.sample(range(1000), len(curves)))))
    copy = PantsDecomposition.build(
        [new_p[p] for p in pants],
        {new_c[c]: tuple((new_p[p], s) for p, s in pd.edges[c]) for c in curves},
        {label: (new_p[p], s) for label, (p, s) in pd.legs.items()},
    )
    return copy, new_c


def check_against_oracles(a, b, rng):
    """Keys, isomorphisms and curve-bijection extensions of a and b agree with the oracles."""
    assert (canonical_key(a) == canonical_key(b)) == (oracles.canonical_key(a)
                                                        == oracles.canonical_key(b))
    assert find_isomorphism(a, b) == oracles.find_isomorphism(a, b)
    if a.n_curves == b.n_curves:
        images = sorted(b.edges)
        rng.shuffle(images)
        curve_map = dict(zip(sorted(a.edges), images))
        assert (vertex_map_from_curve_bijection(a, b, curve_map)
                == oracles.vertex_map_from_curve_bijection(a, b, curve_map))


def check_refinement(pd):
    """Colouring and key equal those of the refinement that always confirms."""
    assert surfaces._colours(pd) == oracles.stable_colours(pd)
    assert canonical_key(pd) == oracles.individualised_key(pd)


def check_relabelled(pd, rng):
    copy, curve_map = relabel(pd, rng)
    assert canonical_key(copy) == canonical_key(pd)
    assert find_isomorphism(pd, copy) == oracles.find_isomorphism(pd, copy)
    assert find_isomorphism(copy, pd) == oracles.find_isomorphism(copy, pd)
    vmap = vertex_map_from_curve_bijection(pd, copy, curve_map)
    assert vmap is not None
    assert vmap == oracles.vertex_map_from_curve_bijection(pd, copy, curve_map)
    check_against_oracles(pd, copy, rng)


def test_routines_agree_with_exhaustive_oracles():
    rng = make_rng(31)
    decomps = []
    for i in range(520):
        sig = SIGS[i % len(SIGS)]
        decomps.append(random_decomposition(sig, rng, scramble=rng.randint(0, 8)))
    isomorphic_pairs = 0
    for pd in decomps:
        assert canonical_key(pd) is not None
        check_refinement(pd)
        check_relabelled(pd, rng)
        other = rng.choice([d for d in decomps if d.surface_sig() == pd.surface_sig()])
        check_against_oracles(pd, other, rng)
        isomorphic_pairs += oracles.find_isomorphism(pd, other) is not None
    # Both outcomes are exercised by the random pairs.
    assert 0 < isomorphic_pairs < len(decomps)


def test_leg_fixing_automorphism_keeps_the_smallest_map():
    # F(2,1): the leg pants P0 is joined to P1 and P2, each closed by a
    # self-loop; swapping P1 and P2 fixes the leg.
    pd = PantsDecomposition.build(
        ["P0", "P1", "P2"],
        {"c1": (("P0", 1), ("P1", 1)), "c2": (("P0", 2), ("P2", 1)),
         "c3": (("P1", 2), ("P1", 3)), "c4": (("P2", 2), ("P2", 3))},
        {1: ("P0", 3)},
    )
    assert validate_pants(SurfaceSig(2, 1), pd).ok
    identity = {"P0": "P0", "P1": "P1", "P2": "P2"}
    assert find_isomorphism(pd, pd) == (identity, {c: c for c in pd.edges})
    assert find_isomorphism(pd, pd) == oracles.find_isomorphism(pd, pd)
    swap = {"c1": "c2", "c2": "c1", "c3": "c4", "c4": "c3"}
    assert vertex_map_from_curve_bijection(pd, pd, swap) == {"P0": "P0", "P1": "P2", "P2": "P1"}
    rng = make_rng(32)
    for _ in range(20):
        check_relabelled(pd, rng)


def test_key_of_a_page_pinned_by_its_legs_ranks_once(monkeypatch):
    # The legs 1, 2 / 3 / 4, 5 of F(0,5) give its three pants three colours
    # from the start, so no refinement round is needed to confirm them.
    pd = standard_decomposition(SurfaceSig(0, 5))
    calls = []
    ranks = surfaces._ranks

    def spy(signature):
        calls.append(signature)
        return ranks(signature)

    monkeypatch.setattr(surfaces, "_ranks", spy)
    key = canonical_key(pd)
    assert len(calls) == 1
    assert key == oracles.individualised_key(pd)


def closed_page(pairs):
    """The page without legs whose curves join the given pairs of pants."""
    free = {}
    for u, v in pairs:
        free.setdefault(u, [1, 2, 3])
        free.setdefault(v, [1, 2, 3])
    edges = {f"c{i + 1}": ((u, free[u].pop(0)), (v, free[v].pop(0)))
             for i, (u, v) in enumerate(pairs)}
    return PantsDecomposition.build(sorted(free), edges, {})


# The closed genus-two theta page: three curves join the same two pants, so
# both pants have the same content under any curve bijection, and both
# vertex maps extend it.  It is the one page whose curve bijections extend
# in two ways.
THETA = [("P0", "P1")] * 3

# Closed pages of genus 2 (the theta page), 3 (four pants) and 4 (six
# pants).  Every pants of a page without legs or self-loops starts with the
# same colour, so the refinement alone cannot tell the pants apart.  In the
# last page they are not all alike either: the two ends of the double curve
# differ from the rest.
CLOSED_PAGES = (
    THETA,
    [("P0", "P1"), ("P0", "P2"), ("P0", "P3"), ("P1", "P2"), ("P1", "P3"), ("P2", "P3")],
    [("P0", "P1"), ("P0", "P1"), ("P2", "P3"), ("P2", "P3"), ("P1", "P2"), ("P3", "P0")],
    [("P0", "P0"), ("P0", "P1"), ("P1", "P2"), ("P1", "P2"), ("P2", "P3"), ("P3", "P3")],
    [("P0", "P1"), ("P1", "P2"), ("P2", "P3"), ("P3", "P4"), ("P4", "P5"), ("P5", "P0"),
     ("P0", "P3"), ("P1", "P4"), ("P2", "P5")],
    [("P0", "P2"), ("P0", "P2"), ("P1", "P3"), ("P1", "P5"), ("P1", "P4"), ("P2", "P5"),
     ("P3", "P0"), ("P3", "P4"), ("P4", "P5")],
)


def test_closed_pages_without_legs():
    rng = make_rng(33)
    pages = [closed_page(pairs) for pairs in CLOSED_PAGES]
    for pd in pages:
        assert validate_pants(pd.surface_sig(), pd).ok
    for i in range(60):
        pd = rng.choice(pages)
        for j in range(rng.randint(0, 6)):
            pd = apply_move(pd, random_move(pd, rng, f"m{i}_{j}"))
        pages.append(pd)
    for pd in pages:
        check_refinement(pd)
        check_relabelled(pd, rng)
        check_against_oracles(pd, rng.choice(
            [d for d in pages if d.surface_sig() == pd.surface_sig()]), rng)
    assert len({oracles.canonical_key(pd) for pd in pages}) > 1


def test_every_curve_permutation_of_the_theta_page_extends_to_the_smallest_map():
    pd = closed_page(THETA)
    assert validate_pants(SurfaceSig(2, 0), pd).ok
    curves = sorted(pd.edges)
    for images in itertools.permutations(curves):
        curve_map = dict(zip(curves, images))
        vmap = vertex_map_from_curve_bijection(pd, pd, curve_map)
        assert vmap == {"P0": "P0", "P1": "P1"}
        assert vmap == oracles.vertex_map_from_curve_bijection(pd, pd, curve_map)
    # On a relabelled copy the smallest map still sends sorted pants to sorted pants.
    copy = PantsDecomposition.build(
        ["Q9", "Q3"], {c: (("Q9", s), ("Q3", t)) for c, ((_, s), (_, t)) in pd.edges.items()}, {})
    assert vertex_map_from_curve_bijection(pd, copy, {c: c for c in curves}) == {
        "P0": "Q3", "P1": "Q9"}


def test_curve_bijection_extensions_agree_with_the_oracle():
    # Random curve maps seldom extend; an isomorphism's curve map always
    # does, and with two of its images swapped it extends only when the two
    # curves are alike.  Pages with legs pin their pants by label, pages
    # without legs only by their curves.
    rng = make_rng(35)
    pages = [random_decomposition(SIGS[i % len(SIGS)], rng, scramble=rng.randint(0, 8))
             for i in range(130)]
    pages += [closed_page(pairs) for pairs in CLOSED_PAGES[:3]]
    for i in range(40):
        pd = rng.choice(pages[-3:])
        for j in range(rng.randint(1, 5)):
            pd = apply_move(pd, random_move(pd, rng, f"m{i}_{j}"))
        pages.append(pd)
    outcomes = {True: 0, False: 0}
    for pd in pages:
        other = rng.choice([d for d in pages if d.surface_sig() == pd.surface_sig()])
        for b in (other, relabel(pd, rng)[0]):
            images = sorted(b.edges)
            rng.shuffle(images)
            maps = [dict(zip(sorted(pd.edges), images))]
            iso = find_isomorphism(pd, b)
            if iso is not None and len(iso[1]) >= 2:
                swapped = dict(iso[1])
                x, y = rng.sample(sorted(swapped), 2)
                swapped[x], swapped[y] = swapped[y], swapped[x]
                maps += [iso[1], swapped]
            for curve_map in maps:
                vmap = vertex_map_from_curve_bijection(pd, b, curve_map)
                assert vmap == oracles.vertex_map_from_curve_bijection(pd, b, curve_map)
                outcomes[vmap is not None] += 1
    assert min(outcomes.values()) >= 100, outcomes


def test_relabelled_thirty_pants_pages_share_keys():
    rng = make_rng(34)
    for sig in (SurfaceSig(0, 32), SurfaceSig(2, 28)):
        pd = random_decomposition(sig, rng, scramble=40)
        assert pd.n_pants == 30
        copy, curve_map = relabel(pd, rng)
        assert canonical_key(copy) == canonical_key(pd)
        vmap, emap = find_isomorphism(pd, copy)
        assert vertex_map_from_curve_bijection(pd, copy, emap) == vmap
        assert vertex_map_from_curve_bijection(pd, copy, curve_map) is not None


def test_curve_bijection_with_a_missing_leg_label_does_not_extend():
    pd = standard_decomposition(SurfaceSig(0, 5))
    legs = dict(pd.legs)
    legs[9] = legs.pop(5)
    other = PantsDecomposition.build(pd.pants, pd.edges, legs)
    assert vertex_map_from_curve_bijection(pd, other, {c: c for c in pd.edges}) is None


def test_isomorphism_respects_leg_label_values():
    # Renaming label 5 to 6 moves no leg, so the canonical keys agree: the
    # key records where each label sits, not its value.  No isomorphism can
    # map label 5 onto a page without one.
    pd = standard_decomposition(SurfaceSig(0, 5))
    legs = dict(pd.legs)
    legs[6] = legs.pop(5)
    other = PantsDecomposition.build(pd.pants, pd.edges, legs)
    assert canonical_key(other) == canonical_key(pd)
    assert oracles.find_isomorphism(pd, other) is None
    assert find_isomorphism(pd, other) is None
    assert find_isomorphism(other, pd) is None


def test_key_shape_is_a_function_of_the_key():
    # Random pages, relabelled copies (same key), copies whose leg labels
    # are renamed in order (same key: the key and the shape read ranks, not
    # label values), moved copies (mostly another key) and the closed pages.
    # Equal keys must give equal shapes.  Distinct keys with one shape are
    # the candidates a search still has to key after their shape matched.
    rng = make_rng(37)
    pages = [random_decomposition(random_page(rng, g_max=2, b_max=7), rng,
                                  scramble=rng.randint(0, 8)) for _ in range(200)]
    pages += [closed_page(pairs) for pairs in CLOSED_PAGES]
    for i, pd in enumerate(list(pages)):
        pages.append(relabel(pd, rng)[0])
        pages.append(PantsDecomposition.build(
            pd.pants, pd.edges, {2 * label + 7: cuff for label, cuff in pd.legs.items()}))
        for j in range(3 if pd.edges else 0):
            pd = apply_move(pd, random_move(pd, rng, f"m{i}_{j}"))
            pages.append(pd)
    shape_of = {}
    for pd in pages:
        key = (pd.surface_sig(), canonical_key(pd))
        shape = surfaces.key_shape(pd)
        assert shape_of.setdefault(key, shape) == shape, pd
    keys_per_shape = Counter((sig, repr(shape)) for (sig, _), shape in shape_of.items())
    shared = sum(n * (n - 1) // 2 for n in keys_per_shape.values())
    assert len(shape_of) > 200 and shared > 100, (len(shape_of), shared)
