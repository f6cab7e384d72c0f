"""Self-test of the benchmark: its generators, its oracle and its tracer.

Run with ``python3 perfbench/run.py --selftest``.  Checks that

* the closed-form H_1 of ``gen`` agrees with ``intalg.determinantal_divisors``
  on small ranks;
* the benchmark's brute-force isomorphism agrees with
  ``surfaces.find_isomorphism`` for V <= 5, isomorphic decompositions share
  a ``gen.signature``, and the move semantics agree with ``paths.apply_move``;
* a search target is within two moves of the start by ``gen.Neighbourhood``
  exactly when ``paths.search_path`` finds it with the budget that
  ``pants-search`` gives such targets;
* generated closed paths pass ``paths.validate_path``, and ``gen.closure_map``
  finds the vertex map ``surfaces.vertex_map_from_curve_bijection`` returns;
* the tracer sees the real call graph of ``certify`` and ``homology``;
* every workload runs its first operations with correct answers.
"""

from __future__ import annotations

import os
import random
import sys
import tempfile
import time

import gen
import worker

# Calls of one `certify` on f04_identity.json (one `homology` for the SNF).
CERTIFY_F04_CALLS = {
    "openbook.validate_spec": 2,
    "openbook.validate_monodromy": 3,
    "paths.validate_path": 2,
    "surfaces.vertex_map_from_curve_bijection": 3,
    "complexes.check_local_models": 2,
    "intalg.smith_normal_form": 1,
}
HOMOLOGY_SNF_CALLS = 2


def check_h1_closed_form(rng):
    from tribranch.intalg import IntMatrix, determinantal_divisors

    for _ in range(12):
        g = rng.randint(0, 2)
        b = rng.randint(1, 5 - 2 * g)
        k = 2 * g + b - 1
        ts = [rng.randint(-2, 6) for _ in range(g)]
        m = gen.monodromy_matrix(g, b, ts, rng, k + 2)
        minus_one = IntMatrix.from_rows(
            [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(m)])
        divisors = determinantal_divisors(minus_one) if k else []
        factors, prev = [], 1
        for d in divisors:
            factors.append(d // prev if d else 0)
            prev = d or prev
        free = k - sum(1 for d in divisors if d)
        torsion = tuple(f for f in factors if f > 1)
        assert (free, torsion) == gen.expected_h1(b, ts), (g, b, ts, divisors)


def to_package(pd):
    from tribranch.schema import parse_decomposition

    return parse_decomposition(gen.decomposition_json(pd))


def check_moves_and_isomorphism(rng):
    from tribranch.paths import PantsMove, apply_move
    from tribranch.surfaces import find_isomorphism

    pages = [(0, 5), (0, 6), (0, 7), (1, 3), (1, 4), (1, 5), (2, 2), (2, 3)]
    agree = 0
    for i in range(40):
        g, b = pages[i % len(pages)]
        start = gen.standard(g, b)
        moves, states = gen.walk(start, rng, rng.randint(1, 5), "m")
        pkg = to_package(start)
        for (removed, added, kind, pairing), state in zip(moves, states[1:]):
            pkg = apply_move(pkg, PantsMove(removed, added, kind, pairing))
            assert gen.decomposition_json(state) == gen.decomposition_json(
                gen.from_json(pkg.to_json())), "move semantics differ"
        other = gen.walk(start, rng, rng.randint(0, 3), "o")[1][-1]
        for a, b_ in ((states[-1], start), (states[-1], other)):
            mine = gen.isomorphism(a, b_) is not None
            assert mine == (find_isomorphism(to_package(a), to_package(b_)) is not None)
            assert not mine or gen.signature(a) == gen.signature(b_)
            agree += 1
    return agree


def check_distance_classes(rng):
    from tribranch.paths import search_path

    seen = set()
    for i in range(18):
        g, b = [(0, 6), (1, 4), (2, 2)][i % 3]
        start = gen.walk(gen.standard(g, b), rng, 3, "s")[1][-1]
        around = gen.Neighbourhood(start)
        target = gen.walk(start, rng, 2 + i % 6, "w")[1][-1]
        cls = around.distance(target)
        found = search_path(to_package(start), to_package(target), 1 + around.classes1())
        assert (cls <= 2) == (found is not None), (g, b, cls)
        seen.add(cls)
    assert seen == {1, 2, 3}, seen


def check_closed_paths(rng):
    from tribranch.schema import parse_path
    from tribranch.paths import replay, validate_path
    from tribranch.surfaces import vertex_map_from_curve_bijection

    for g, b in [(0, 5), (0, 8), (1, 4), (2, 3), (2, 5), (0, 7), (1, 5)]:
        pd = gen.standard(g, b)
        moves, closure = gen.closed_path(pd, rng, rng.randint(1, 6))
        doc = gen.spec_json(g, b, gen.identity(2 * g + b - 1), (pd, moves, closure))
        path = parse_path(doc["monodromy"]["pants_path"])
        report = validate_path(path)
        assert report.ok, report.summary()
        decomps = replay(path)
        want = vertex_map_from_curve_bijection(decomps[-1], decomps[0], closure)
        assert gen.closure_map(gen.replay(pd, moves), pd, closure) == want


def check_tracer(root):
    import tracer as tracing
    from tribranch import cli

    fixture = os.path.join(root, "tests", "fixtures", "f04_identity.json")
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        report = os.path.join(tmp, "report.json")
        for verb, want in (("certify", CERTIFY_F04_CALLS),
                           ("homology", {"intalg.smith_normal_form": HOMOLOGY_SNF_CALLS})):
            tracer = tracing.Tracer()
            tracer.install()
            try:
                cli.main([verb, fixture, "--quiet", "--report", report])
            finally:
                tracer.uninstall()
            calls = tracing.layer_metrics(tracer.spans, 1, tracer.counters)
            got = {name: calls[f"{name}.calls_per_op"] for name in want}
            assert got == want, (verb, got, want)
            assert calls["cli.main.calls_per_op"] == 1


def check_workloads(root):
    import workloads

    with tempfile.TemporaryDirectory(dir=root) as tmp:
        for name in workloads.WORKLOADS:
            work = os.path.join(tmp, name)
            os.makedirs(work)
            ctx = workloads.Context(root, work, seed=7)
            ops = workloads.build(name, ctx)
            runner = worker.Runner()
            for op in ops[:2] + ops[:1]:
                runner.execute(op)
            assert runner.failed == 0, runner.errors


def main():
    begin = time.perf_counter()
    worker.import_checkout()
    rng = random.Random(20260810)
    check_h1_closed_form(rng)
    print("closed-form H_1 matches determinantal divisors")
    n = check_moves_and_isomorphism(rng)
    print(f"move semantics match apply_move; isomorphism agrees on {n} pairs")
    check_distance_classes(rng)
    print("distance classes agree with search_path")
    check_closed_paths(rng)
    print("generated closed paths validate")
    check_tracer(worker.ROOT)
    print("tracer call counts match the certify and homology call graphs")
    check_workloads(worker.ROOT)
    print("every workload ran its first operations correctly")
    print(f"selftest passed in {time.perf_counter() - begin:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
