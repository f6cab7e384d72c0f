"""Acceptance gate: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All tolerances are exact; the only numeric limits are the stated runtimes.
"""

import json
import time
from pathlib import Path

from tribranch import (
    OpenBookSpec,
    check_local_models,
    construct_naive,
    construct_outer,
    h1_open_book,
    stabilize,
    validate_spec,
)
from tribranch.cli import main

from genutils import (
    make_rng,
    random_matrix,
    random_monodromy,
    random_outer_spec,
    random_page,
)
from test_intalg import check_snf_contract, oracle_invariant_factors

FIXTURES = Path(__file__).parent / "fixtures"


def announce(number: int, text: str):
    print(f"ACCEPTANCE {number}: {text}: PASS")


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out


def test_acceptance_1_positive_fixture(capsys):
    """F(0,5), identity monodromy, degenerate path: certify -> Essential."""
    started = time.monotonic()
    code, out = run_cli(capsys, "certify", FIXTURES / "f05_identity.json", "--quiet")
    elapsed = time.monotonic() - started
    doc = json.loads(out)
    assert code == 0
    assert doc["essentiality"]["verdict"] == "Essential"
    statuses = {c["condition"]: c["status"] for c in doc["essentiality"]["conditions"]}
    assert statuses == {
        "(1)": "Pass",
        "(2)": "StructuralPass",
        "(3)": "StructuralPass",
        "(4)": "Pass",
    }
    assert doc["certificate"]["lower_bound"] == 4
    assert elapsed < 1.0, f"runtime {elapsed:.3f}s exceeds 1s"
    announce(1, "end-to-end certification of the rank-four planar book "
                f"(exit 0, Essential, {elapsed * 1000:.0f} ms)")


def test_acceptance_2_negative_fixture(capsys):
    """F(1,1), identity monodromy: certify exits 1, only condition (4) fails."""
    started = time.monotonic()
    code, out = run_cli(capsys, "certify", FIXTURES / "f11_identity.json", "--quiet")
    elapsed = time.monotonic() - started
    doc = json.loads(out)
    assert code == 1
    statuses = {c["condition"]: c["status"] for c in doc["essentiality"]["conditions"]}
    assert statuses["(4)"] == "NotCertified"
    assert doc["certificate"]["lower_bound"] == 2
    for cond in ("(1)", "(2)", "(3)"):
        assert statuses[cond] in ("Pass", "StructuralPass"), (cond, statuses[cond])
    assert elapsed < 1.0, f"runtime {elapsed:.3f}s exceeds 1s"
    announce(2, "negative fixture rejected only through the rank bound "
                f"(exit 1, lower bound 2, {elapsed * 1000:.0f} ms)")


def test_acceptance_3_naive_suite():
    """20 random pages with chi <= 0 and random valid monodromies."""
    rng = make_rng(100)
    for i in range(20):
        page = random_page(rng, g_max=2, b_max=4, chi_max=0)
        spec = OpenBookSpec(page=page, monodromy=random_monodromy(page, rng))
        tc = construct_naive(spec)
        assert len(tc.branches) == 3
        assert all(b.sig.euler_char == page.euler_char for b in tc.branches)
        assert len(tc.blocks) == 3
        assert len(tc.circles) == page.n_boundary
        assert all(len(c.germs) == 3 for c in tc.circles)
        assert check_local_models(tc).ok
    announce(3, "naive construction suite over 20 random pages "
                "(3 branches of page type, 3 blocks, b circles, 3 germs each)")


def test_acceptance_4_outer_taxonomy_suite():
    """50 random specs, path length <= 6: taxonomy, counts, connectivity."""
    rng = make_rng(101)
    max_levels = 0
    for i in range(50):
        spec = random_outer_spec(rng, g_max=2, b_max=4, max_moves=6)
        assert len(spec.pants_path.moves) <= 6
        tc = construct_outer(validate_spec(spec))
        max_levels = max(max_levels, tc.meta["levels"])
        for branch in tc.branches:
            assert branch.sig.euler_char in (0, -1, -2), branch
        for block in tc.blocks:
            assert block.pi1_rank_bound <= 3, block
        n_shared = sum(tc.meta["shared_curve_counts"])
        expected_circles = 2 * n_shared + tc.meta["levels"] * spec.page.n_boundary
        assert len(tc.circles) == expected_circles
        assert tc.is_connected()
        assert check_local_models(tc).ok
    announce(4, "outer construction suite over 50 random closed-up paths "
                f"(branch chi in {{0,-1,-2}}, block rank <= 3, "
                f"circle count exact, connected; levels up to {max_levels})")


def test_acceptance_5_snf_oracle_equivalence():
    """200 random matrices, dims <= 5, entries in [-9, 9], under 10 s."""
    rng = make_rng(102)
    started = time.monotonic()
    for _ in range(200):
        a = random_matrix(rng, max_dim=5, lo=-9, hi=9)
        res = check_snf_contract(a)
        assert list(res.invariant_factors) == oracle_invariant_factors(a)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"runtime {elapsed:.2f}s exceeds 10s"
    announce(5, "Smith normal form matches the minor-gcd oracle on 200 "
                f"random matrices ({elapsed:.2f} s)")


def test_acceptance_6_stabilization_invariance():
    """20 random specs: chi drops by exactly 1, H_1(M) unchanged."""
    rng = make_rng(103)
    for _ in range(20):
        page = random_page(rng, g_max=2, b_max=4, chi_max=0)
        spec = OpenBookSpec(page=page, monodromy=random_monodromy(page, rng))
        before = h1_open_book(spec)
        site = rng.randint(1, page.n_boundary)
        res = stabilize(spec, site=site)
        assert res.spec.page.euler_char == page.euler_char - 1
        after = h1_open_book(res.spec)
        assert before == after, (page, site, str(before), str(after))
        # SNF-level equality, not just isomorphism of the reported shape.
        assert before.free_rank == after.free_rank
        assert before.torsion == after.torsion
    announce(6, "stabilization drops chi by exactly one and preserves the "
                "isomorphism type of first homology on 20 random specs")


def test_acceptance_7_determinism(tmp_path, capsys):
    """Every command, every fixture: byte-identical reports across runs."""
    corpus = [
        ("validate", FIXTURES / "f05_identity.json"),
        ("validate", FIXTURES / "f11_twist.json"),
        ("validate", FIXTURES / "f05_wrong_matrix.json"),
        ("homology", FIXTURES / "f05_identity.json"),
        ("homology", FIXTURES / "f11_twist.json"),
        ("certify", FIXTURES / "f05_identity.json"),
        ("certify", FIXTURES / "f11_identity.json"),
        ("construct", FIXTURES / "f04_identity.json", "--mode", "outer"),
        ("construct", FIXTURES / "f11_identity.json", "--mode", "naive"),
    ]
    n_checked = 0
    for case in corpus:
        argv = list(case)
        out_file = None
        if argv[0] == "construct":
            out_file = tmp_path / f"cx_{n_checked}.json"
            argv += ["--out", out_file]
        outputs = []
        complexes = []
        for _attempt in (0, 1):
            code, out = run_cli(capsys, *argv, "--quiet")
            assert code in (0, 1, 2)
            outputs.append(out)
            if out_file is not None:
                complexes.append(out_file.read_bytes())
        assert outputs[0] == outputs[1], f"report differs for {case}"
        if complexes:
            assert complexes[0] == complexes[1], f"complex differs for {case}"
        n_checked += 1
    announce(7, f"byte-identical reports across repeated runs "
                f"({n_checked} command/fixture pairs)")
