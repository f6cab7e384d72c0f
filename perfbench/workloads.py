"""The benchmark's workloads: seeded inputs, one operation each, known answers.

Every workload turns a seed into a fixed list of operations.  An operation
has ``call()``, the timed call into the program, and ``check(result)``, the
untimed comparison with the answer known from ``gen``; ``check`` returns
``(error or None, digest)`` where the digest of the output must repeat
exactly whenever the same input is run again.

Why each workload (one layer group does most of the work in each, and
little in the others):

* ``cli-cold``: one ``python -m tribranch`` process per operation.  Process
  start and imports dominate; the kernels do almost nothing.
* ``certify-batch``: in-process ``certify`` over a seeded corpus.  Path
  replay and validation, closure extension (the early-exit curve-bijection
  extension in ``surfaces``), construction, essentiality and serialization.
* ``pants-search``: ``search_path`` with a fixed node budget.  Almost all of
  the time goes to the exhaustive ``surfaces.canonical_key``; no ``intalg``,
  ``complexes`` or ``schema`` work.
* ``homology-ladder-read``: in-process ``homology`` on dense monodromies.
  Smith normal form (``intalg``) dominates.
* ``homology-ladder-write``: ``openbook.stabilize`` rungs of a ladder, each
  followed by an H_1 check.  The adjugate inverse (``IntMatrix.det``)
  dominates.  Reads and writes are separate workloads so that each use of
  ``intalg`` has a latency of its own with its own bound.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

import gen

FIXTURES = ("tests", "fixtures")


@dataclass
class Op:
    """One operation: ``name`` identifies its input, repeated runs must agree."""

    name: str
    call: Callable
    check: Callable
    traced_call: Optional[Callable] = None


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def interleave(groups):
    """The items of all groups, each group spread evenly through the result."""
    return [item for _, _, item in sorted(
        ((j + 0.5) / len(group), g, item)
        for g, group in enumerate(groups) for j, item in enumerate(group))]


class Context:
    """Paths of one worker: the checkout root and a private scratch directory."""

    def __init__(self, root, work, seed):
        self.root = root
        self.work = work
        self.rng = random.Random(seed)
        self.probes = []

    def fixture(self, name):
        return os.path.join(self.root, *FIXTURES, name)

    def rel(self, path):
        return os.path.relpath(path, self.root)

    def write(self, name, text):
        path = os.path.join(self.work, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return path


# ---------------------------------------------------------------------------
# Generated specs with known answers.
# ---------------------------------------------------------------------------


@dataclass
class Spec:
    doc: dict
    h1: tuple  # (free rank, torsion)

    @property
    def essential(self):
        return gen.min_generators(*self.h1) >= 4


# The closure extension tries vertex bijections in lexicographic order until
# one fits, so a spec costs in proportion to how deep in that order its
# closure lies (gen.closure_rank): about 70 ms at 7! and 350 ms at 8!, from
# V = 8 pants on, against 2-30 ms for most specs.  Drawn freely, 72 specs hold
# on average 0.5 closures 7! deep and 0.2 8! deep, and whether a pass holds
# one decides its throughput.  So every pass holds the same deep specs, each
# redrawn until its rank lies in a narrow band, (page, forward moves, lowest
# rank, highest rank), and the other specs are redrawn below 7!.  An 8!-deep
# spec would be a third of the pass time; it is left out.
SHALLOW_RANKS = (0, 5040)
DEEP_SPECS = [((0, 10), 6, 5040, 5760)]


def scrambled(g, b, rng, moves=3):
    """The chain decomposition of F(g, b) after a few random moves."""
    pd = gen.standard(g, b)
    for i in range(moves):
        removed, added, _kind, pairing = gen.random_move(pd, rng, f"s{i + 1}")
        pd = gen.apply(pd, removed, added, pairing)
    return pd


def outer_spec(rng, g, b, n_forward, ranks=SHALLOW_RANKS):
    """A page F(g, b) with a closed pants path and a monodromy P D P^-1; the
    closure's rank lies in [ranks[0], ranks[1])."""
    while True:
        pd = scrambled(g, b, rng)
        moves, closure = gen.closed_path(pd, rng, n_forward)
        if ranks[0] <= gen.closure_rank(gen.replay(pd, moves), pd, closure) < ranks[1]:
            break
    ts = [rng.randint(-2, 6) for _ in range(g)]
    matrix = gen.monodromy_matrix(g, b, ts, rng, 2 * g + b - 1)
    return Spec(gen.spec_json(g, b, matrix, (pd, moves, closure)), gen.expected_h1(b, ts))


def dense_spec(rng, g, b):
    """A spec without a pants path; P is a product of k = 2g + b - 1 transvections."""
    ts = [rng.randint(-2, 6) for _ in range(g)]
    matrix = gen.monodromy_matrix(g, b, ts, rng, 2 * g + b - 1)
    return Spec(gen.spec_json(g, b, matrix), gen.expected_h1(b, ts))


def check_certify_report(doc, spec):
    """The verdict and the H_1 of a certify report against the closed form."""
    want = gen.h1_json(*spec.h1)
    if doc.get("certificate", {}).get("h1") != want:
        return f"H_1 {doc.get('certificate', {}).get('h1')} != {want}"
    verdict = doc.get("essentiality", {}).get("verdict")
    if (verdict == "Essential") != spec.essential:
        return f"verdict {verdict} but generator count {gen.min_generators(*spec.h1)}"
    if len(doc.get("complex_sha256", "")) != 64:
        return "no complex digest"
    return None


def check_homology_report(doc, h1):
    want = gen.h1_json(*h1)
    got = doc.get("homology", {}).get("h1")
    if got != want:
        return f"H_1 {got} != {want}"
    n = gen.min_generators(*h1)
    cert = doc.get("certificate", {})
    if cert.get("lower_bound") != n:
        return f"lower bound {cert.get('lower_bound')} != {n}"
    if (cert.get("verdict") == "Certified") != (n >= 4):
        return f"certificate {cert.get('verdict')} for {n} generators"
    return None


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------

# Hand-known answers for the shipped fixtures: exit codes from the README and
# the acceptance tests; H_1 of an identity monodromy on F(g, b) is
# Z^(2g + b - 1), and the twist [[1, 1], [0, 1]] on F(1, 1) leaves Z.
FIXTURE_H1 = {
    "f04_identity.json": (3, ()),
    "f05_identity.json": (4, ()),
    "f11_identity.json": (2, ()),
    "f11_twist.json": (1, ()),
}


def cli_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def cli_cold(ctx):
    """Mostly certify, plus validate, homology and construct, one process each."""
    rng = ctx.rng
    generated = []
    for i, (g, b) in enumerate([(0, 5), (0, 6), (1, 3), (0, 7), (1, 4), (2, 2)]):
        spec = outer_spec(rng, g, b, rng.randint(1, 3))
        generated.append((ctx.write(f"gen{i}.json", gen.dumps(spec.doc)), spec))
    fx = ctx.fixture
    plan = []
    for name, h1 in FIXTURE_H1.items():
        ess = gen.min_generators(*h1) >= 4
        plan.append(("certify", fx(name), [], 0 if ess else 1, ("certify-h1", h1)))
    plan.append(("certify", fx("f05_wrong_matrix.json"), [], 1, None))
    plan.append(("certify", fx("truncated.json"), [], 2, None))
    for path, spec in generated:
        plan.append(("certify", path, [], 0 if spec.essential else 1, ("certify", spec)))
    plan.append(("validate", fx("f05_identity.json"), [], 0, None))
    plan.append(("validate", fx("f05_wrong_matrix.json"), [], 1, None))
    plan.append(("validate", fx("truncated.json"), [], 2, None))
    plan.append(("validate", generated[0][0], [], 0, None))
    plan.append(("homology", fx("f05_identity.json"), [], 0, ("homology", FIXTURE_H1["f05_identity.json"])))
    plan.append(("homology", fx("f11_twist.json"), [], 0, ("homology", FIXTURE_H1["f11_twist.json"])))
    plan.append(("homology", generated[1][0], [], 0, ("homology", generated[1][1].h1)))
    plan.append(("homology", generated[2][0], [], 0, ("homology", generated[2][1].h1)))
    for i, (mode, path) in enumerate([("outer", fx("f04_identity.json")),
                                      ("naive", fx("f11_identity.json")),
                                      ("outer", generated[3][0]),
                                      ("naive", generated[4][0])]):
        out = os.path.join(ctx.work, f"complex{i}.json")
        plan.append(("construct", path, ["--mode", mode, "--out", out], 0, ("construct", out)))
    order = list(range(len(plan)))
    rng.shuffle(order)
    env = cli_env(ctx.root)
    return [cli_op(ctx, env, *plan[i]) for i in order]


def cli_op(ctx, env, verb, spec, extra, want_exit, answer):
    # Paths relative to the checkout keep report bytes independent of its location.
    args = [verb, ctx.rel(spec), "--quiet"]
    args += [ctx.rel(x) if x.endswith(".json") else x for x in extra]
    argv = [sys.executable, "-m", "tribranch"] + args
    probe = [sys.executable, os.path.join(ctx.root, "perfbench", "cli_probe.py")]

    def call():
        return subprocess.run(argv, cwd=ctx.root, env=env, capture_output=True, check=False)

    def traced_call():
        out = os.path.join(ctx.work, "probe.json")
        spawned = time.monotonic_ns()
        proc = subprocess.run(probe + [out] + args, cwd=ctx.root, env=env,
                              capture_output=True, check=False)
        with open(out, encoding="utf-8") as handle:
            doc = json.load(handle)
        doc["spawned_ns"] = spawned
        ctx.probes.append(doc)
        return proc

    def check(proc):
        digest = sha(proc.stdout)
        if proc.returncode != want_exit:
            return f"exit {proc.returncode}, expected {want_exit}: {proc.stderr[-300:]!r}", digest
        if b"Traceback" in proc.stderr:
            return "traceback on stderr", digest
        if want_exit == 2:
            return (None if proc.stdout == b"" else "report on a schema failure"), digest
        doc = json.loads(proc.stdout)
        if doc.get("exit_code") != want_exit:
            return "report exit code differs", digest
        if answer is None:
            return None, digest
        kind, value = answer
        if kind == "certify-h1":
            got = doc.get("certificate", {}).get("h1")
            return (None if got == gen.h1_json(*value) else f"H_1 {got}"), digest
        if kind == "certify":
            return check_certify_report(doc, value), digest
        if kind == "homology":
            return check_homology_report(doc, value), digest
        with open(value, "rb") as handle:
            written = handle.read()
        if doc.get("complex_sha256") != sha(written):
            return "complex file does not match its digest", digest
        return None, digest

    return Op(f"{verb}:{os.path.basename(spec)}:{' '.join(extra[:2])}", call, check, traced_call)


# ---------------------------------------------------------------------------
# certify-batch
# ---------------------------------------------------------------------------

# Pages of genus <= 2 with V = 2g + b - 2 = 3..9 pants.
BATCH_PAGES = [(g, b) for g in range(3) for b in range(1, 12) if 3 <= 2 * g + b - 2 <= 9]
BATCH_VALID = 72


def malformed(ctx, rng):
    """Specs with hand-known exit codes: 2 for schema failures, 1 for domain ones."""
    base = outer_spec(rng, 0, 5, 1).doc
    out = []
    text = gen.dumps(base)
    out.append(("truncated", text[: len(text) // 2], 2))
    missing = {k: v for k, v in base.items() if k != "monodromy"}
    out.append(("no-monodromy", gen.dumps(missing), 2))
    wrong = json.loads(text)
    wrong["page"]["boundary"] = 6
    out.append(("wrong-size", gen.dumps(wrong), 1))
    bad_closure = json.loads(text)
    closure = bad_closure["monodromy"]["pants_path"]["closure"]
    first = sorted(closure)[0]
    closure[first] = "nonexistent"
    out.append(("closure-range", gen.dumps(bad_closure), 1))
    return out


def certify_batch(ctx, cli):
    rng = ctx.rng
    specs = []
    for i in range(BATCH_VALID):
        g, b = BATCH_PAGES[i % len(BATCH_PAGES)]
        specs.append((f"spec{i}", outer_spec(rng, g, b, 1 + i % 6)))
    for i, ((g, b), n_forward, low, high) in enumerate(DEEP_SPECS):
        spec = outer_spec(rng, g, b, n_forward, (low, high))
        specs.insert((2 * i + 1) * len(specs) // (2 * len(DEEP_SPECS)), (f"deep{i}", spec))
    ops = [certify_op(ctx, cli, name, gen.dumps(spec.doc), 0 if spec.essential else 1, spec)
           for name, spec in specs]
    bad = [certify_op(ctx, cli, name, text, code, None)
           for name, text, code in malformed(ctx, rng)]
    # Spread the malformed inputs evenly through the pass.
    step = len(ops) // len(bad)
    for i, op in enumerate(bad):
        ops.insert(i * (step + 1) + step // 2, op)
    return ops


def certify_op(ctx, cli, name, text, want_exit, spec):
    path = ctx.rel(ctx.write(f"{name}.json", text))
    report = os.path.join(ctx.work, f"{name}.report.json")
    argv = ["certify", path, "--quiet", "--report", ctx.rel(report)]

    def call():
        if os.path.exists(report):
            os.remove(report)
        return cli.main(argv)

    def check(code):
        data = b""
        if os.path.exists(report):
            with open(report, "rb") as handle:
                data = handle.read()
        digest = sha(data)
        if code != want_exit:
            return f"exit {code}, expected {want_exit}", digest
        if want_exit == 2:
            return (None if not data else "report on a schema failure"), digest
        doc = json.loads(data)
        if spec is None:
            return (None if doc.get("exit_code") == want_exit else "report exit code"), digest
        return check_certify_report(doc, spec), digest

    return Op(name, call, check)


# ---------------------------------------------------------------------------
# pants-search
# ---------------------------------------------------------------------------

# (walk length, distance class of the target): 1 = within one move of the
# start, 2 = exactly two, 3 = farther.  A breadth-first search that expands
# SEARCH_BUDGET nodes must find every class-1 target and can find no class-3
# one.  A class-2 target is queried with a budget of one more than the number
# of classes one move from the start, so the search must find it too: every
# query has a known outcome.  How many of those classes the search expands
# before it meets the target depends on its order, so class-2 queries are
# asked only on pages with V <= 4, where even the full budget costs less than
# the median query.
NEAR_STRATA = [(2, 1), (3, 2), (6, 3), (9, 3), (12, 3)]
MID_STRATA = [(2, 1), (3, 1), (6, 3), (9, 3), (12, 3)]
FAR_STRATA = [(6, 3), (9, 3), (12, 3)]
# (page, copies, strata).  The V = 6 pages, which take most of the time, get
# only budget-exhausted queries, whose cost does not depend on where in the
# search order a target happens to lie.  The copies put the median operation
# inside the block of equally priced F(0,7) queries and the 90th percentile
# inside the F(2,4) block, not on the jump between two blocks.
SEARCH_PAGES = [((0, 5), 1, NEAR_STRATA), ((0, 6), 1, NEAR_STRATA),
                ((0, 7), 3, MID_STRATA), ((1, 4), 1, NEAR_STRATA),
                ((1, 5), 1, MID_STRATA), ((2, 3), 1, MID_STRATA),
                ((0, 8), 2, FAR_STRATA), ((2, 4), 5, FAR_STRATA)]
SEARCH_BUDGET = 3
SEARCH_TRIES = 40


def pants_search(ctx, schema, paths):
    """Targets are seeded random walks from a scrambled start.

    A walk is redrawn until its end lies in the stratum's distance class, as
    decided by the benchmark's own isomorphism check; on pages too small to
    have such a target the last walk is kept, with its own class.  Each
    page's queries are spread evenly through the pass, so that any stretch of
    it has the mix of the whole pass.
    """
    rng = ctx.rng
    ops = []
    plan = interleave([[(g, b, strata[j % len(strata)], j // len(strata))
                        for j in range(copies * len(strata))]
                       for (g, b), copies, strata in SEARCH_PAGES])
    for g, b, (walk_len, want), copy in plan:
        start = scrambled(g, b, rng)
        around = gen.Neighbourhood(start)
        for _ in range(SEARCH_TRIES):
            target = gen.walk(start, rng, walk_len, "w")[1][-1]
            cls = around.distance(target)
            if cls == want:
                break
        budget = 1 + around.classes1() if cls == 2 else SEARCH_BUDGET
        name = f"F({g},{b})-walk{walk_len}-d{cls}-{copy}"
        ops.append(search_op(schema, paths, name, start, target, walk_len, cls, budget))
    return ops


def search_op(schema, paths, name, start, target, walk_len, cls, budget):
    # The program receives parsed decompositions, built from their JSON form.
    start_pd = schema.parse_decomposition(json.loads(json.dumps(gen.decomposition_json(start))))
    target_pd = schema.parse_decomposition(json.loads(json.dumps(gen.decomposition_json(target))))

    def call():
        return paths.search_path(start_pd, target_pd, budget)

    def check(found):
        if found is None:
            return (None if cls == 3 else
                    f"no path within {budget} expansions to a target within {cls} moves"), "none"
        moves = [(m.removed, m.added, m.kind, m.pairing) for m in found.moves]
        digest = sha(json.dumps([[m[0], m[1], m[2], m[3]] for m in moves]).encode())
        # Breadth first: no longer than the distance, when it is known.
        if len(moves) > (cls if cls < 3 else walk_len):
            return f"{len(moves)} moves to a target of class {cls}, walk {walk_len}", digest
        end = gen.replay(start, moves)
        if gen.isomorphism(end, target) is None:
            return "search result does not replay to its target", digest
        return None, digest

    return Op(name, call, check)


# ---------------------------------------------------------------------------
# homology-ladder-read and homology-ladder-write
# ---------------------------------------------------------------------------

# ((genus, boundary), copies): ranks k = 2g + b - 1 from 14 to 34.  The
# copies put the median operation in the middle of the block of rank-24
# reads (as many reads below it as above) and the 90th percentile inside the
# rank-34 block, not between two ranks.
READ_PAGES = [((4, 7), 2), ((5, 7), 2), ((5, 9), 2), ((6, 9), 4), ((7, 9), 4),
              ((7, 11), 8), ((8, 11), 2), ((8, 13), 2), ((9, 13), 2),
              ((10, 13), 2), ((10, 15), 6)]


def homology_read(ctx, cli):
    rng = ctx.rng
    ops = []
    for g, b, copy in interleave([[(g, b, j) for j in range(copies)]
                                  for (g, b), copies in READ_PAGES]):
        k = 2 * g + b - 1
        spec = dense_spec(rng, g, b)
        name = f"h{k}-{copy}"
        path = ctx.rel(ctx.write(f"{name}.json", gen.dumps(spec.doc)))
        ops.append(homology_op(ctx, cli, name, path, spec.h1))
    return ops


def homology_op(ctx, cli, name, path, h1):
    report = os.path.join(ctx.work, f"{name}.report.json")
    argv = ["homology", path, "--quiet", "--report", ctx.rel(report)]

    def call():
        if os.path.exists(report):
            os.remove(report)
        return cli.main(argv)

    def check(code):
        with open(report, "rb") as handle:
            data = handle.read()
        digest = sha(data)
        if code != 0:
            return f"exit {code}", digest
        return check_homology_report(json.loads(data), h1), digest

    return Op(name, call, check)


# Ladder bases (genus, boundary) of rank k = 2g + b - 1 = 14; the rungs reach
# ranks 15..19.  An odd number of rungs puts the median operation in the
# middle of one rung's block and the 90th percentile inside the top block;
# nine ladders make each block nine operations wide.
LADDER_BASES = [(3, 9), (4, 7), (2, 11)] * 3
LADDER_RUNGS = 5


def homology_write(ctx, schema, openbook):
    """Stabilization ladders; rung r of a ladder stabilizes the spec of rung r-1."""
    rng = ctx.rng
    ladders = []
    for g, b in LADDER_BASES:
        spec = dense_spec(rng, g, b)
        base = schema.parse_spec(json.loads(gen.dumps(spec.doc)))
        sites = [rng.randint(1, b + r) for r in range(LADDER_RUNGS)]
        ladders.append({"base": base, "cur": base, "sites": sites, "h1": spec.h1,
                        "g": g, "b": b})
    ops = []
    for rung in range(LADDER_RUNGS):
        for i, ladder in enumerate(ladders):
            ops.append(stabilize_op(openbook, f"L{i}-r{rung}", ladder, rung))
    return ops


def stabilize_op(openbook, name, ladder, rung):
    def call():
        spec = ladder["base"] if rung == 0 else ladder["cur"]
        res = openbook.stabilize(spec, ladder["sites"][rung])
        ladder["cur"] = res.spec
        return res.spec, openbook.h1_open_book(res.spec)

    def check(result):
        spec, h1 = result
        m, w = spec.monodromy.matrix, spec.windings
        digest = sha(json.dumps([m.to_json(), w.to_json()]).encode())
        # Each rung adds one boundary circle: chi(page) drops by one.
        g, b = ladder["g"], ladder["b"] + rung + 1
        if (spec.page.genus, spec.page.n_boundary) != (g, b):
            return f"page {spec.page} after rung {rung}, expected F({g},{b})", digest
        if (h1.free_rank, tuple(h1.torsion)) != ladder["h1"]:
            return f"H_1 {h1} changed, expected {ladder['h1']}", digest
        return None, digest

    return Op(name, call, check)


WORKLOADS = ("cli-cold", "certify-batch", "pants-search",
             "homology-ladder-read", "homology-ladder-write")


def build(name, ctx):
    """The operations of a workload; imports the package modules it calls."""
    if name == "cli-cold":
        return cli_cold(ctx)
    from tribranch import cli, openbook, paths, schema
    if name == "certify-batch":
        return certify_batch(ctx, cli)
    if name == "pants-search":
        return pants_search(ctx, schema, paths)
    if name == "homology-ladder-read":
        return homology_read(ctx, cli)
    if name == "homology-ladder-write":
        return homology_write(ctx, schema, openbook)
    raise ValueError(f"unknown workload {name!r}")
