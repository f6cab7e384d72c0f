import itertools
import random

import pytest

from tribranch import (
    A_MOVE,
    S_MOVE,
    MonodromyH1,
    MoveError,
    OpenBookSpec,
    PantsDecomposition,
    PantsMove,
    PantsPath,
    SurfaceSig,
    TribranchError,
    apply_move,
    canonical_key,
    common_curves,
    enumerate_pairings,
    find_isomorphism,
    move_kind,
    replay,
    search_path,
    standard_decomposition,
    validate_pants,
    validate_path,
    validate_spec,
)

import oracles
from test_isomorphism import CLOSED_PAGES, closed_page
from tribranch import paths, surfaces
from genutils import (
    inverse_move,
    make_rng,
    random_closed_path,
    random_decomposition,
    random_move,
    random_page,
)


# ---------------------------------------------------------------------------
# apply_move
# ---------------------------------------------------------------------------


def test_a_move_on_four_holed_sphere():
    sig = SurfaceSig(0, 4)
    pd = standard_decomposition(sig)
    out = apply_move(pd, PantsMove("c1", "c9", A_MOVE))
    assert validate_pants(sig, out).ok
    assert sorted(out.edges) == ["c9"]
    # Only one trivalent shape exists for this surface; the default pairing
    # keeps the leg grouping, so the result is even label-isomorphic.
    assert find_isomorphism(out, pd) is not None


def test_s_move_replaces_self_loop():
    sig = SurfaceSig(1, 1)
    pd = standard_decomposition(sig)
    out = apply_move(pd, PantsMove("c1", "fresh", S_MOVE))
    assert validate_pants(sig, out).ok
    assert sorted(out.edges) == ["fresh"]
    assert out.edges["fresh"] == pd.edges["c1"]


def test_move_kind_classification():
    pd = standard_decomposition(SurfaceSig(1, 2))
    kinds = {c: move_kind(pd, c) for c in pd.edges}
    # the chain edge joins distinct pants, the loop is a self-loop
    assert sorted(kinds.values()) == [A_MOVE, S_MOVE]


def test_kind_mismatch_rejected():
    pd = standard_decomposition(SurfaceSig(1, 1))
    with pytest.raises(MoveError, match="kind mismatch"):
        apply_move(pd, PantsMove("c1", "x", A_MOVE))
    pd4 = standard_decomposition(SurfaceSig(0, 4))
    with pytest.raises(MoveError, match="kind mismatch"):
        apply_move(pd4, PantsMove("c1", "x", S_MOVE))


def test_unknown_and_clashing_curves_rejected():
    pd = standard_decomposition(SurfaceSig(0, 4))
    with pytest.raises(MoveError, match="unknown curve"):
        apply_move(pd, PantsMove("zz", "x", A_MOVE))
    with pytest.raises(MoveError, match="already present"):
        apply_move(pd, PantsMove("c1", "c1", A_MOVE))
    # An unknown removed curve is reported before a clashing added id.
    with pytest.raises(MoveError, match="unknown curve"):
        apply_move(pd, PantsMove("zz", "c1", A_MOVE))


def test_pairings_and_omitted_pairing_match_the_oracle():
    """The pairings of every non-loop curve come in the oracle's order, and a
    move with no pairing keeps the oracle's original grouping."""
    rng = random.Random(41)
    checked = 0
    for _ in range(1000):
        sig = random_page(rng, g_max=2, b_max=7)
        pd = random_decomposition(sig, rng, scramble=rng.randint(0, 6))
        for curve in pd.curve_ids():
            if pd.is_self_loop(curve):
                continue
            pairings = enumerate_pairings(pd, curve)
            assert pairings == oracles.enumerate_pairings(pd, curve)
            original = oracles.original_grouping(pd, curve)
            kept = apply_move(pd, PantsMove(curve, "z", A_MOVE))
            assert kept == apply_move(pd, PantsMove(curve, "z", A_MOVE, original))
            checked += 1
    assert checked > 3000


def test_enumerate_pairings_rejects_unknown_curve():
    pd = standard_decomposition(SurfaceSig(0, 4))
    with pytest.raises(MoveError, match="unknown curve"):
        enumerate_pairings(pd, "zz")


def test_enumerate_pairings_rejects_self_loop():
    pd = standard_decomposition(SurfaceSig(1, 2))
    assert pd.is_self_loop("c2")
    with pytest.raises(MoveError, match="self-loop"):
        enumerate_pairings(pd, "c2")


def make_f12_loop_shape():
    """One-holed-torus-plus-pants shape: self-loop at P0, one edge to P1."""
    return PantsDecomposition.build(
        ["P0", "P1"],
        {"c1": (("P0", 1), ("P0", 2)), "c2": (("P0", 3), ("P1", 1))},
        {1: ("P1", 2), 2: ("P1", 3)},
    )


def test_degenerate_repairing_enumeration():
    """Oracle for the illegal re-pairings: enumerate every split of the four
    support cuffs, check connectivity of the candidate, and confirm the
    implementation accepts exactly the two-and-two splits."""
    from itertools import combinations

    sig = SurfaceSig(1, 2)
    pd = make_f12_loop_shape()
    assert validate_pants(sig, pd).ok
    support = [("P0", 1), ("P0", 2), ("P1", 2), ("P1", 3)]
    for r in (1, 2, 3):
        for side in combinations(support, r):
            other = tuple(c for c in support if c not in side)
            pairing = (tuple(side), other)
            if r == 2:
                out = apply_move(pd, PantsMove("c2", "z", A_MOVE, pairing))
                assert validate_pants(sig, out).ok
            else:
                with pytest.raises(MoveError):
                    apply_move(pd, PantsMove("c2", "z", A_MOVE, pairing))


def test_isolating_repairing_reports_disconnection():
    pd = make_f12_loop_shape()
    # Both loop ends plus one leg on one side: the fresh curve would close up
    # on the other pants alone.
    bad = ((("P0", 1), ("P0", 2), ("P1", 2)), (("P1", 3),))
    with pytest.raises(MoveError, match="disconnects"):
        apply_move(pd, PantsMove("c2", "z", A_MOVE, bad))


def test_repairing_can_change_shape():
    sig = SurfaceSig(1, 2)
    pd = make_f12_loop_shape()
    # Split the two loop ends apart: the loop becomes a double edge.
    pairing = ((("P0", 1), ("P1", 2)), (("P0", 2), ("P1", 3)))
    out = apply_move(pd, PantsMove("c2", "z", A_MOVE, pairing))
    assert validate_pants(sig, out).ok
    assert not out.is_self_loop("c1")
    assert find_isomorphism(pd, out) is None


def test_apply_move_preserves_surface_on_random_inputs():
    # check_path validates only a path's start, so every move apply_move
    # accepts must take a valid decomposition to a valid one of the same
    # surface: at every curve, the S-move of a self-loop, or each re-pairing
    # however it is written and the omitted pairing.
    rng = make_rng(10)
    pages = [random_decomposition(random_page(rng, b_max=6), rng, scramble=rng.randint(0, 6))
             for _ in range(40)]
    pages += [closed_page(pairs) for pairs in CLOSED_PAGES]
    checked = 0
    for pd in pages:
        sig = pd.surface_sig()
        assert validate_pants(sig, pd).ok
        for curve in sorted(pd.edges):
            if pd.is_self_loop(curve):
                out = apply_move(pd, PantsMove(curve, "zz", S_MOVE))
                assert validate_pants(sig, out).ok
                checked += 1
                continue
            for (a, b), (c, d) in enumerate_pairings(pd, curve):
                out, *others = [apply_move(pd, PantsMove(curve, "zz", A_MOVE, pairing))
                                for pairing in (((a, b), (c, d)), ((c, d), (a, b)),
                                                ((b, a), (d, c)), ((d, c), (b, a)))]
                assert all(other == out for other in others)
                assert validate_pants(sig, out).ok
                checked += 1
            assert validate_pants(sig, apply_move(pd, PantsMove(curve, "zz", A_MOVE))).ok
    assert checked > 500


def test_move_then_inverse_is_isomorphic():
    rng = make_rng(11)
    for _ in range(20):
        sig = random_page(rng)
        pd = random_decomposition(sig, rng)
        if not pd.edges:
            continue
        mv = random_move(pd, rng, "f1")
        out = apply_move(pd, mv)
        inv = inverse_move(pd, mv, out, "f2")
        back = apply_move(out, inv)
        assert find_isomorphism(back, pd) is not None


@pytest.mark.parametrize("sig, seed", [((1, 3), 88), ((2, 2), 50), ((2, 1), 145), ((1, 4), 145)])
def test_mirrored_walk_keeps_curve_roles(sig, seed):
    # An undo that only lands in the isomorphism class of the earlier state
    # can swap two curves' roles; these seeds then found no re-pairing.
    path = random_closed_path(SurfaceSig(*sig), random.Random(seed))
    assert validate_path(path).ok


# ---------------------------------------------------------------------------
# common_curves
# ---------------------------------------------------------------------------


def test_common_curves_drops_the_moved_curve():
    pd = standard_decomposition(SurfaceSig(0, 5))
    mv = PantsMove("c2", "c9", A_MOVE)
    out = apply_move(pd, mv)
    assert common_curves(pd, out) == frozenset({"c1"})
    assert len(common_curves(pd, out)) == pd.n_curves - 1
    assert common_curves(out, pd) == common_curves(pd, out)


def test_common_curves_identical_systems_return_everything():
    pd = standard_decomposition(SurfaceSig(0, 5))
    assert common_curves(pd, pd) == frozenset(pd.edges)


def test_common_curves_rejects_unrelated_systems():
    pd = standard_decomposition(SurfaceSig(0, 5))
    relabeled = PantsDecomposition.build(
        pd.pants,
        {f"x{i}": ends for i, (_, ends) in enumerate(sorted(pd.edges.items()))},
        pd.legs,
    )
    with pytest.raises(MoveError, match="not an elementary move"):
        common_curves(pd, relabeled)


# ---------------------------------------------------------------------------
# validate_path
# ---------------------------------------------------------------------------


def test_trivial_path_with_identity_closure():
    pd = standard_decomposition(SurfaceSig(0, 5))
    path = PantsPath(start=pd, moves=[], closure={c: c for c in pd.edges})
    assert validate_path(path).ok


def test_path_with_missing_curve_reports_step():
    pd = standard_decomposition(SurfaceSig(0, 5))
    moves = [
        PantsMove("c1", "x1", A_MOVE),
        PantsMove("c1", "x2", A_MOVE),  # c1 is gone at step 1
    ]
    report = validate_path(PantsPath(start=pd, moves=moves, closure={}))
    assert not report.ok
    entry = report.entries[0]
    assert entry.code == "move-failed" and entry.where == "step 1"


def test_closure_must_be_leg_preserving():
    sig = SurfaceSig(1, 2)
    pd = standard_decomposition(sig)
    # c1 joins the pants, c2 is the loop; swapping them in the closure maps a
    # leg-adjacent curve to a non-leg-adjacent one.
    loop = next(c for c in pd.edges if pd.is_self_loop(c))
    chain = next(c for c in pd.edges if not pd.is_self_loop(c))
    bad = PantsPath(start=pd, moves=[], closure={loop: chain, chain: loop})
    report = validate_path(bad)
    assert "closure-legs" in report.codes()
    assert any("not leg-preserving" in e.message for e in report.entries)


def test_closure_domain_and_range_checked():
    pd = standard_decomposition(SurfaceSig(0, 5))
    report = validate_path(PantsPath(start=pd, moves=[], closure={"c1": "c1"}))
    assert "closure-domain" in report.codes()
    report = validate_path(
        PantsPath(start=pd, moves=[], closure={"c1": "c1", "c2": "zz"})
    )
    assert "closure-range" in report.codes()


def test_start_spanning_no_surface_reported():
    # Three pants and no curve: cycle rank -2, so no surface has this graph.
    pd = standard_decomposition(SurfaceSig(0, 5))
    bare = PantsDecomposition.build(pd.pants, {}, pd.legs)
    report = validate_path(PantsPath(start=bare, moves=[], closure={}))
    assert report.codes() == ["start-invalid"]
    assert report.entries[0].where == "step 0"
    assert "spans no surface" in report.entries[0].message


def test_wrong_size_matrix_beside_a_path_reported_once():
    # The matrix size is checked against the page by the spec check alone;
    # the path on that page adds no second issue for it.
    sig = SurfaceSig(0, 5)
    pd = standard_decomposition(sig)
    path = PantsPath(start=pd, moves=[], closure={c: c for c in pd.edges})
    spec = OpenBookSpec(page=sig, monodromy=MonodromyH1.identity(SurfaceSig(1, 1)),
                        pants_path=path)
    # Exactly one matrix-dimension issue, and no monodromy-dimension.
    assert validate_spec(spec).report.codes() == ["matrix-dimension"]


# ---------------------------------------------------------------------------
# search_path
# ---------------------------------------------------------------------------


def two_leg_groupings_f05():
    base = {"c1": (("P0", 1), ("P1", 1)), "c2": (("P1", 2), ("P2", 1))}
    a = PantsDecomposition.build(
        ["P0", "P1", "P2"], base,
        {1: ("P0", 2), 2: ("P0", 3), 3: ("P1", 3), 4: ("P2", 2), 5: ("P2", 3)},
    )
    b = PantsDecomposition.build(
        ["P0", "P1", "P2"], base,
        {1: ("P0", 2), 3: ("P0", 3), 2: ("P1", 3), 4: ("P2", 2), 5: ("P2", 3)},
    )
    return a, b


def test_search_trivial_case():
    pd = standard_decomposition(SurfaceSig(0, 5))
    path = search_path(pd, pd, budget=10)
    assert path is not None and path.moves == []
    assert validate_path(path).ok


def test_search_between_leg_groupings():
    a, b = two_leg_groupings_f05()
    assert find_isomorphism(a, b) is None
    path = search_path(a, b, budget=1000)
    assert path is not None and len(path.moves) >= 1
    final = replay(path)[-1]
    iso = find_isomorphism(final, b)
    assert iso is not None
    assert dict(iso[1]) == path.closure


def test_search_agrees_with_exhaustive_enumeration():
    """Independent oracle: enumerate the full move graph over isomorphism
    classes by brute force and compare reachability and distances."""
    from collections import deque

    a, b = two_leg_groupings_f05()

    fresh = [0]

    def neighbours(pd):
        out = []
        for curve in pd.curve_ids():
            for pairing in enumerate_pairings(pd, curve):
                fresh[0] += 1
                out.append(
                    apply_move(pd, PantsMove(curve, f"t{fresh[0]}", A_MOVE, pairing))
                )
        return out

    dist = {canonical_key(a): (0, a)}
    queue = deque([a])
    while queue:
        cur = queue.popleft()
        base = dist[canonical_key(cur)][0]
        for nxt in neighbours(cur):
            key = canonical_key(nxt)
            if key not in dist:
                dist[key] = (base + 1, nxt)
                queue.append(nxt)
    # 15 decorated classes of this surface: the trivalent shape is unique and
    # the legs split 2-1-2 over it, C(5,1) * C(4,2) / 2 = 15 label groupings.
    assert len(dist) == 15
    assert canonical_key(b) in dist
    for key, (d, target) in sorted(dist.items()):
        path = search_path(a, target, budget=10_000)
        assert path is not None
        assert len(path.moves) == d


def test_search_budget_exhaustion_returns_none():
    a, _ = two_leg_groupings_f05()
    # A target two moves away (both end groupings change): budget 1 expands
    # only the start node, which reaches just the distance-one classes.
    far = PantsDecomposition.build(
        ["P0", "P1", "P2"],
        {"c1": (("P0", 1), ("P1", 1)), "c2": (("P1", 2), ("P2", 1))},
        {1: ("P0", 2), 3: ("P0", 3), 4: ("P1", 3), 2: ("P2", 2), 5: ("P2", 3)},
    )
    assert search_path(a, far, budget=1) is None
    found = search_path(a, far, budget=1000)
    assert found is not None and len(found.moves) == 2


def test_search_fresh_ids_skip_start_curve_ids():
    a, _ = two_leg_groupings_f05()
    far = PantsDecomposition.build(
        ["P0", "P1", "P2"],
        {"c1": (("P0", 1), ("P1", 1)), "c2": (("P1", 2), ("P2", 1))},
        {1: ("P0", 2), 3: ("P0", 3), 4: ("P1", 3), 2: ("P2", 2), 5: ("P2", 3)},
    )

    def rename(pd):
        edges = {"n" + c[1:]: ends for c, ends in pd.edges.items()}
        return PantsDecomposition.build(pd.pants, edges, pd.legs)

    start = rename(a)
    assert sorted(start.edges) == ["n1", "n2"]
    path = search_path(start, rename(far), budget=1000)
    assert path is not None and len(path.moves) == 2
    assert all(mv.added not in start.edges for mv in path.moves)
    assert find_isomorphism(replay(path)[-1], far) is not None
    # Only the names differ from the search on the c-named start.
    plain = search_path(a, far, budget=1000)
    assert [(mv.kind, mv.pairing) for mv in path.moves] == [
        (mv.kind, mv.pairing) for mv in plain.moves
    ]


def test_search_surface_mismatch_rejected():
    a = standard_decomposition(SurfaceSig(0, 4))
    b = standard_decomposition(SurfaceSig(0, 5))
    with pytest.raises(TribranchError, match="surface mismatch"):
        search_path(a, b, budget=10)


@pytest.mark.parametrize("budget", [True, 2.5, "3", 0, -1], ids=repr)
def test_search_budget_must_be_a_positive_int(budget):
    # A bool compares like 0 or 1 and a float like a count, but neither is a
    # number of nodes; a string does not compare with one at all.
    a, b = two_leg_groupings_f05()
    with pytest.raises(TribranchError, match="budget must be a positive integer"):
        search_path(a, b, budget=budget)


def test_search_is_deterministic():
    a, b = two_leg_groupings_f05()
    p1 = search_path(a, b, budget=1000)
    p2 = search_path(a, b, budget=1000)
    assert [m.to_json() for m in p1.moves] == [m.to_json() for m in p2.moves]
    assert p1.closure == p2.closure


def test_search_result_validates_on_monodromy_image_targets():
    # A legitimate monodromy image of the curve system carries the same legs
    # and a curve relabeling that extends to a leg-respecting automorphism.
    # The search result with its found closure is then a complete path that
    # validate_path accepts.
    sig = SurfaceSig(1, 2)
    a = PantsDecomposition.build(
        ["P0", "P1"],
        {"c1": (("P0", 1), ("P1", 1)), "c2": (("P0", 2), ("P1", 2))},
        {1: ("P0", 3), 2: ("P1", 3)},
    )
    assert validate_pants(sig, a).ok
    b = PantsDecomposition.build(
        a.pants, {"c2": a.edges["c1"], "c1": a.edges["c2"]}, a.legs
    )
    path = search_path(a, b, budget=100)
    assert path is not None
    assert validate_path(path).ok


# ---------------------------------------------------------------------------
# Moves that never leave a class, and the search that skips them
# ---------------------------------------------------------------------------


def test_s_moves_and_original_grouping_keep_the_class():
    """An S-move and re-pairing 0 only rename the curve and permute slots, so
    the key never changes; re-pairings 1 and 2 can stay in the class too, so
    only the search's seen set can skip them."""
    rng = random.Random(11)
    kept = s_moves = genuine_stay = genuine_leave = 0
    for _ in range(400):
        sig = random_page(rng, g_max=2, b_max=5)
        pd = random_decomposition(sig, rng, scramble=rng.randint(0, 6))
        key = canonical_key(pd)
        small = pd.n_pants <= 6
        oracle_key = oracles.canonical_key(pd) if small else None
        for curve in pd.curve_ids():
            if move_kind(pd, curve) == S_MOVE:
                same = [apply_move(pd, PantsMove(curve, "z", S_MOVE))]
                genuine = []
                s_moves += 1
            else:
                pairings = enumerate_pairings(pd, curve)
                same = [apply_move(pd, PantsMove(curve, "z", A_MOVE, pairings[0]))]
                genuine = [apply_move(pd, PantsMove(curve, "z", A_MOVE, p))
                           for p in pairings[1:]]
            for out in same:
                assert canonical_key(out) == key
                if small:
                    assert oracles.canonical_key(out) == oracle_key
                kept += 1
            for out in genuine:
                if canonical_key(out) == key:
                    genuine_stay += 1
                else:
                    genuine_leave += 1
    assert kept > 1000 and s_moves > 100
    assert genuine_stay > 0 and genuine_leave > 0


def search_cases():
    """Seeded start/target pairs on pages of genus 0, 1 and 2 with V <= 5."""
    rng = random.Random(23)
    cases = []
    for g, bs in ((0, (4, 5, 6, 7)), (1, (1, 2, 3, 4, 5)), (2, (1, 2, 3))):
        for b in bs:
            sig = SurfaceSig(g, b)
            for _ in range(2):
                start = random_decomposition(sig, rng, scramble=rng.randint(0, 4))
                target = random_decomposition(sig, rng, scramble=rng.randint(1, 4))
                cases.append((start, target))
    return cases


def result_json(path):
    if path is None:
        return None
    return [m.to_json() for m in path.moves], dict(path.closure)


def threshold_budget(start, target, cap=4096):
    """The smallest budget at which the all-moves oracle finds the target."""
    lo, hi = 1, 1
    while oracles.search_path_all_moves(start, target, hi) is None:
        assert hi < cap, "target not found within the cap"
        lo, hi = hi + 1, 2 * hi
    while lo < hi:
        mid = (lo + hi) // 2
        if oracles.search_path_all_moves(start, target, mid) is None:
            lo = mid + 1
        else:
            hi = mid
    return hi


def one_move_target(start, rng):
    """A decomposition one genuine re-pairing away from ``start``, in another
    class, or None when every move of ``start`` keeps its class."""
    key = canonical_key(start)
    near = [apply_move(start, PantsMove(c, "t1", A_MOVE, p))
            for c in start.curve_ids() if not start.is_self_loop(c)
            for p in enumerate_pairings(start, c)[1:]]
    near = [pd for pd in near if canonical_key(pd) != key]
    return rng.choice(near) if near else None


def classes_one_move(start):
    """The number of classes one move of any kind away from ``start``."""
    keys = set()
    for c in start.curve_ids():
        kind = move_kind(start, c)
        for pairing in [None] if kind == S_MOVE else enumerate_pairings(start, c):
            keys.add(canonical_key(apply_move(start, PantsMove(c, "t1", kind, pairing))))
    return len(keys - {canonical_key(start)})


def new_classes_before_the_target(start, path):
    """How many new classes a search queued before its target, read off the
    last move's fresh id: each new class uses up the next id of the sequence."""
    fresh_ids = (f"n{j}" for j in itertools.count(1) if f"n{j}" not in start.edges)
    return next(k for k, x in enumerate(fresh_ids) if x == path.moves[-1].added)


def test_search_matches_the_all_moves_oracle():
    # The budgets around each target's threshold, the benchmark's class-2
    # budget (1 + the classes one move from the start, so that the search
    # queues them all and meets a target two moves away past its horizon)
    # and budget 1 on targets one move away.  Past its horizon the search
    # keys a candidate only when its shape matches the target's, and the
    # earlier ones only when the target turns up, to count their fresh ids.
    rng = random.Random(29)
    cases = search_cases()
    cases += [(start, target) for start, target in
              ((start, one_move_target(start, rng)) for start, _ in cases) if target]
    found = exhausted = past_horizon = 0
    for start, target in cases:
        t = threshold_budget(start, target)
        budgets = sorted({1, 2, 3, max(1, t - 1), t, t + 1, 2 * t + 5,
                          1 + classes_one_move(start)}
                         | {2 ** j for j in range(t.bit_length())})
        for budget in budgets:
            want = result_json(oracles.search_path_all_moves(start, target, budget))
            path = search_path(start, target, budget)
            assert result_json(path) == want, (start.surface_sig(), budget)
            if want is None:
                exhausted += 1
            else:
                found += 1
                past_horizon += (bool(path.moves)
                                 and new_classes_before_the_target(start, path) >= budget - 1)
    assert found > 0 and exhausted > 0 and past_horizon > 50, (found, exhausted, past_horizon)


def test_search_keys_no_candidate_past_its_horizon_by_another_shape(monkeypatch):
    """Once budget - 1 classes are queued, no candidate is expanded any more,
    so a budget-exhausted search hands ``canonical_key`` no candidate past
    that horizon whose shape differs from the target's."""
    keyed, candidates = [], []
    real_key = paths.canonical_key
    real_step = paths._apply_repairing

    def key_spy(pd):
        keyed.append(pd)
        return real_key(pd)

    def step_spy(pd, removed, added, pairing):
        out = real_step(pd, removed, added, pairing)
        candidates.append(out)
        return out

    monkeypatch.setattr(paths, "canonical_key", key_spy)
    monkeypatch.setattr(paths, "_apply_repairing", step_spy)
    rng = random.Random(41)
    searches = skipped = 0
    for _ in range(80):
        sig = random_page(rng, g_max=2, b_max=6)
        start = random_decomposition(sig, rng, scramble=rng.randint(0, 4))
        target = random_decomposition(sig, rng, scramble=rng.randint(3, 8))
        target_shape = surfaces.key_shape(target)
        for budget in (1, 2, 3, 5, 8):
            keyed.clear()
            candidates.clear()
            if search_path(start, target, budget) is not None:
                continue
            searches += 1
            keyed_ids = {id(pd) for pd in keyed}
            seen = {canonical_key(start)}
            for pd in candidates:
                if len(seen) < budget:
                    seen.add(canonical_key(pd))
                elif surfaces.key_shape(pd) != target_shape:
                    assert id(pd) not in keyed_ids, (start.surface_sig(), budget)
                    skipped += 1
    assert searches > 80 and skipped > 2000, (searches, skipped)


def test_search_closures_on_symmetric_pages_are_the_smallest_isomorphisms():
    # Pages without legs have many automorphisms, so the closure is one of
    # several isomorphisms onto the target; it must be the one with the
    # smallest vertex map, as the exhaustive oracle picks it.
    rng = make_rng(36)
    for i in range(40):
        start = closed_page(CLOSED_PAGES[i % len(CLOSED_PAGES)])
        target = start
        for j in range(rng.randint(1, 3)):
            target = apply_move(target, random_move(target, rng, f"m{i}_{j}"))
        path = search_path(start, target, budget=200)
        assert path is not None
        assert path.closure == oracles.find_isomorphism(replay(path)[-1], target)[1]


def test_search_applies_only_the_genuine_repairings(monkeypatch):
    """Every expanded node applies re-pairings 1 and 2 of each non-loop curve,
    in order, and nothing else; the last node may stop at the target.  Every
    A-move, with or without apply_move's checks, ends in
    ``paths._apply_repairing``, so the spy sits there; a second spy on
    ``paths.apply_move`` sees any S-move."""
    applied = []
    real_step = paths._apply_repairing
    real_apply_move = paths.apply_move

    def spy(pd, removed, added, pairing):
        assert not pd.is_self_loop(removed), "the search applied an S-move"
        applied.append((pd, removed, pairing))
        return real_step(pd, removed, added, pairing)

    def no_s_move(pd, mv):
        assert mv.kind != S_MOVE, "the search applied an S-move"
        return real_apply_move(pd, mv)

    monkeypatch.setattr(paths, "_apply_repairing", spy)
    monkeypatch.setattr(paths, "apply_move", no_s_move)
    n_loops = 0
    for start, target in search_cases():
        applied.clear()
        result = search_path(start, target, budget=10_000)
        assert result is not None
        groups = []
        for pd, removed, pairing in applied:
            if not groups or groups[-1][0] is not pd:
                groups.append((pd, []))
            groups[-1][1].append((removed, pairing))
        for i, (pd, got) in enumerate(groups):
            n_loops += sum(pd.is_self_loop(c) for c in pd.edges)
            want = [(c, p) for c in pd.curve_ids() if not pd.is_self_loop(c)
                    for p in enumerate_pairings(pd, c)[1:]]
            if i == len(groups) - 1:
                want = want[:len(got)]
            assert got == want
    assert n_loops > 0


def test_search_candidates_equal_checked_moves(monkeypatch):
    """Each candidate the search applies without apply_move's checks is what
    apply_move gives for the same move, however the pairing is written, and
    a valid decomposition whose fresh id no expanded node carries."""
    rng = random.Random(59)
    calls = []
    real_step = paths._apply_repairing

    def spy(pd, removed, added, pairing):
        out = real_step(pd, removed, added, pairing)
        calls.append((pd, removed, added, pairing, out))
        return out

    checked = 0
    for _ in range(150):
        sig = random_page(rng, g_max=2, b_max=5)
        start = random_decomposition(sig, rng, scramble=rng.randint(0, 4))
        target = random_decomposition(sig, rng, scramble=rng.randint(1, 4))
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(paths, "_apply_repairing", spy)
            search_path(start, target, budget=rng.randint(1, 5))
        expanded_ids = set()
        for pd, removed, added, pairing, out in calls:
            expanded_ids |= pd.edges.keys()
            assert added not in pd.edges
            assert added not in expanded_ids
            want = apply_move(pd, PantsMove(removed, added, A_MOVE, pairing))
            assert out == want
            assert list(out.edges.items()) == list(want.edges.items())
            assert list(out.legs.items()) == list(want.legs.items())
            (a, b), (c, d) = pairing
            reordered = PantsMove(removed, added, A_MOVE, [[d, c], [b, a]])
            assert apply_move(pd, reordered) == out
            assert validate_pants(sig, out).ok
            checked += 1
    assert checked > 1000
