"""A seeded semantic-mutation fuzz of the spec verbs.

Each case copies a valid spec document (a fixture with a pants path, or a
spec drawn by ``genutils.random_outer_spec``), breaks one rule of the spec
format in it and runs ``validate``, ``homology``, ``certify`` and
``construct`` in both modes on the result through ``cli.main``.  Whatever
the mutation, every run exits 0, 1 or 2, raises nothing, and on 0 and 1
prints a JSON report carrying its exit code.  The exit codes of all runs
are pinned by one digest, so a run under another ``PYTHONHASHSEED`` checks
that they do not depend on the order of hashed sets.
"""

from __future__ import annotations

import copy
import hashlib
import json
import random
from pathlib import Path

from genutils import random_outer_spec
from tribranch.cli import main
from tribranch.schema import spec_to_json

FIXTURES = Path(__file__).parent / "fixtures"
SEED = 20261020
N_CASES = 300
EXIT_CODES_SHA256 = "8f1dc0ad21a0652b2f98690b7313d98002f799ae6d60c6b21929020911456606"


def _path(doc):
    return doc["monodromy"]["pants_path"]


def _choose_move(doc, rng, keep=lambda mv: True):
    moves = [mv for mv in _path(doc)["moves"] if keep(mv)]
    return rng.choice(moves) if moves else None


# Each mutation breaks ``doc`` in place, or returns False when ``doc`` has
# nothing it applies to.


def flip_kind(doc, rng):
    mv = _choose_move(doc, rng)
    if mv is None:
        return False
    mv["kind"] = "S" if mv["kind"] == "A" else "A"


def reuse_an_id_as_added(doc, rng):
    mv = _choose_move(doc, rng)
    if mv is None:
        return False
    mv["added"] = rng.choice(sorted(_path(doc)["start"]["edges"]))


def drop_a_pairing(doc, rng):
    mv = _choose_move(doc, rng, lambda mv: "pairing" in mv)
    if mv is None:
        return False
    del mv["pairing"]


def three_one_pairing(doc, rng):
    mv = _choose_move(doc, rng, lambda mv: "pairing" in mv)
    if mv is None:
        return False
    cuffs = [cuff for side in mv["pairing"] for cuff in side]
    rng.shuffle(cuffs)
    mv["pairing"] = [cuffs[:3], cuffs[3:]]


def reverse_an_edge(doc, rng):
    edges = _path(doc)["start"]["edges"]
    if not edges:
        return False
    edges[rng.choice(sorted(edges))].reverse()


def slot_out_of_range(doc, rng):
    start = _path(doc)["start"]
    cuffs = [end for ends in start["edges"].values() for end in ends]
    rng.choice(cuffs + list(start["legs"].values()))[1] = rng.choice((0, 4))


def leg_on_an_edge_cuff(doc, rng):
    start = _path(doc)["start"]
    if not start["edges"]:
        return False
    ends = start["edges"][rng.choice(sorted(start["edges"]))]
    start["legs"][rng.choice(sorted(start["legs"]))] = list(rng.choice(ends))


def closure_key_to_itself(doc, rng):
    closure = _path(doc)["closure"]
    moved = [key for key in sorted(closure) if closure[key] != key]
    if not moved:
        return False
    key = rng.choice(moved)
    closure[key] = key


def duplicate_a_move(doc, rng):
    moves = _path(doc)["moves"]
    if not moves:
        return False
    k = rng.randrange(len(moves))
    moves.insert(k, copy.deepcopy(moves[k]))


def shuffle_moves(doc, rng):
    moves = _path(doc)["moves"]
    if len(moves) < 2:
        return False
    before = list(moves)
    rng.shuffle(moves)
    if moves == before:
        return False


def drop_a_pants(doc, rng):
    pants = _path(doc)["start"]["pants"]
    pants.remove(rng.choice(pants))


def removed_is_added(doc, rng):
    mv = _choose_move(doc, rng)
    if mv is None:
        return False
    mv["added"] = mv["removed"]


def shift_page_boundary(doc, rng):
    doc["page"]["boundary"] += rng.choice((-1, 1))


def pairing_on_an_s_move(doc, rng):
    mv = _choose_move(doc, rng, lambda mv: mv["kind"] == "S")
    if mv is None:
        return False
    mv["pairing"] = [[["nowhere", 9]], [["P0", 1], ["P0", 2], ["P0", 3]]]


MUTATIONS = [
    flip_kind, reuse_an_id_as_added, drop_a_pairing, three_one_pairing,
    reverse_an_edge, slot_out_of_range, leg_on_an_edge_cuff, closure_key_to_itself,
    duplicate_a_move, shuffle_moves, drop_a_pants, removed_is_added,
    shift_page_boundary, pairing_on_an_s_move,
]

VERBS = [
    ["validate"],
    ["homology"],
    ["certify"],
    ["construct", "--mode", "naive"],
    ["construct", "--mode", "outer"],
]

# The verbs that replay the pants path.
PATH_VERBS = (["validate"], ["certify"], ["construct", "--mode", "outer"])


def base_documents(rng):
    docs = [json.loads(path.read_text()) for path in sorted(FIXTURES.glob("f*.json"))]
    docs = [doc for doc in docs if "pants_path" in doc["monodromy"]]
    docs += [spec_to_json(random_outer_spec(rng, g_max=2, b_max=4, max_moves=6))
             for _ in range(40)]
    return docs


def mutated_cases():
    """``N_CASES`` pairs (mutation name, document), each mutation in turn."""
    rng = random.Random(SEED)
    bases = base_documents(rng)
    cases = []
    for i in range(N_CASES):
        mutate = MUTATIONS[i % len(MUTATIONS)]
        while True:
            doc = copy.deepcopy(rng.choice(bases))
            if mutate(doc, rng) is not False:
                break
        cases.append((mutate.__name__, doc))
    return cases


def test_mutated_specs_exit_with_a_report(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    out = tmp_path / "complex.json"
    codes = []
    for name, doc in mutated_cases():
        spec.write_text(json.dumps(doc))
        for verb in VERBS:
            argv = [verb[0], str(spec), "--quiet", *verb[1:]]
            if verb[0] == "construct":
                argv += ["--out", str(out)]
            code = main(argv)
            stdout = capsys.readouterr().out
            assert code in (0, 1, 2), (name, verb)
            if code != 2:
                assert json.loads(stdout)["exit_code"] == code, (name, verb)
            if name == "pairing_on_an_s_move" and verb in PATH_VERBS:
                assert code == 1, verb
                entries = json.loads(stdout)["validation"]
                assert [e["code"] for e in entries] == ["move-failed"], verb
                assert entries[0]["message"].endswith("takes no pairing")
            codes.append(code)
    digest = hashlib.sha256(bytes(codes)).hexdigest()
    assert digest == EXIT_CODES_SHA256, digest
