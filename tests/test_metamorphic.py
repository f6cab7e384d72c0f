"""Relations that must hold between the certificates of two open books.

A certificate pinned by the golden digests is checked only against its own
earlier bytes.  A relation between two runs has no such blind spot.

Renaming: every pants and curve id of a path-carrying golden spec gets a
new name, in the start, the moves, the pairings and the closure.  Ids are
bookkeeping, so the exit code, the rank certificate, the inventory, the
verdict, the four condition statuses and the validation issue codes must
not change.  Curve ids are renamed in a shuffled order.  Pants ids keep
their order: ``apply_move`` hands the re-paired cuffs to the support pants
by id order, so after a reordering a later move's pairing would address
other cuffs, and the renamed spec would describe another path.  Where an
outer complex is built, its label-free fingerprint
(``oracles.complex_fingerprint``) must not change either.

Rotation: the mapping torus does not depend on which page of a closed pants
path is called C_0.  Each seeded golden path spec is rotated by every offset
(``genutils.rotate_path``), and the exit code, the rank certificate, the
verdict, the condition statuses, the inventory and the fingerprint must not
change.  Of the three relations only this one moves the wrap of the
construction, where the last slab is glued to page 0 through the closure.

Stabilization: a positive Hopf stabilization of an open book gives the same
manifold, and ``stabilize(..., extend_path=True)`` carries the pants path
along.  So H_1, the rank bound, the verdict and the four condition statuses
must not change, at every boundary site of every seeded spec.  Each spec is
stabilized once first, at a seeded site, so that it carries windings.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

from genutils import random_outer_spec, rotate_path
from oracles import complex_fingerprint
from test_golden_reports import write_corpus
from tribranch import (
    ESSENTIAL,
    TribranchError,
    check_essential,
    check_local_models,
    construct_outer,
    rank_certificate,
    stabilize,
    validate_spec,
)
from tribranch.cli import EXIT_DOMAIN, EXIT_OK, main
from tribranch.schema import load_spec_file

SEED = 20261020


def renamed(doc: dict, rng: random.Random) -> dict:
    """A copy of the spec document with every pants and curve id renamed."""
    path = doc["monodromy"]["pants_path"]
    start = path["start"]
    pants = set(start["pants"])
    curves = set(start["edges"]) | set(path["closure"]) | set(path["closure"].values())
    for mv in path["moves"]:
        curves |= {mv["removed"], mv["added"]}
        for side in mv.get("pairing") or ():
            pants.update(cuff[0] for cuff in side)
    pants_names = [f"V{n}" for n in sorted(rng.sample(range(100, 1000), len(pants)))]
    curve_names = [f"e{n}" for n in rng.sample(range(100, 1000), len(curves))]
    new_pants = dict(zip(sorted(pants), pants_names))
    new_curve = dict(zip(sorted(curves), curve_names))

    def cuff(c):
        return [new_pants[c[0]], c[1]]

    moves = []
    for mv in path["moves"]:
        move = dict(mv, removed=new_curve[mv["removed"]], added=new_curve[mv["added"]])
        if mv.get("pairing") is not None:
            move["pairing"] = [[cuff(c) for c in side] for side in mv["pairing"]]
        moves.append(move)
    copy = json.loads(json.dumps(doc))
    copy["monodromy"]["pants_path"] = {
        "start": {
            "pants": [new_pants[p] for p in start["pants"]],
            "edges": {new_curve[c]: [cuff(end) for end in ends]
                      for c, ends in start["edges"].items()},
            "legs": {label: cuff(c) for label, c in start["legs"].items()},
        },
        "moves": moves,
        "closure": {new_curve[c]: new_curve[d] for c, d in path["closure"].items()},
    }
    return copy


def certify_summary(spec: str) -> tuple:
    """What ``certify`` decides about ``spec``, with every id-bearing text left out."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(["certify", spec])
    report = json.loads(stdout.getvalue())
    essentiality = report.get("essentiality") or {"conditions": [], "verdict": None}
    return (
        code,
        report.get("certificate"),
        report.get("inventory"),
        essentiality["verdict"],
        [c["status"] for c in essentiality["conditions"]],
        [issue["code"] for issue in report["validation"]],
    )


def fingerprint(spec: str):
    """The fingerprint of the outer complex of ``spec``, or None if none is built."""
    checked = validate_spec(load_spec_file(spec)[0])
    try:
        return complex_fingerprint(construct_outer(checked))
    except TribranchError:
        return None


def test_renaming_pants_and_curve_ids_keeps_the_certificate(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rng = random.Random(SEED)
    compared = built = 0
    for name in write_corpus(tmp_path):
        try:
            doc = json.loads((tmp_path / name).read_text(encoding="utf-8"))
        except ValueError:
            continue
        if "pants_path" not in doc.get("monodromy", {}):
            continue
        (tmp_path / "renamed.json").write_text(json.dumps(renamed(doc, rng)), encoding="utf-8")
        assert certify_summary("renamed.json") == certify_summary(name), name
        expected = fingerprint(name)
        assert fingerprint("renamed.json") == expected, name
        compared += 1
        built += expected is not None
    assert (compared, built) == (101, 94)


def outer_summary(spec) -> tuple:
    """What ``certify`` decides about a valid ``spec``, and its complex's fingerprint."""
    checked = validate_spec(spec)
    assert checked.report.ok, checked.report.summary()
    cert = rank_certificate(spec)
    tc = construct_outer(checked)
    local = check_local_models(tc)
    assert local.ok, local.summary()
    report = check_essential(tc, cert, local)
    code = EXIT_OK if report.verdict == ESSENTIAL else EXIT_DOMAIN
    return (code, cert.to_json(), report.verdict, [c.status for c in report.conditions],
            tc.inventory(), complex_fingerprint(tc))


def test_rotating_the_path_keeps_the_certificate_and_the_complex(tmp_path):
    specs = compared = 0
    for name in write_corpus(tmp_path):
        if name[0] not in "rw":
            continue
        spec = load_spec_file(str(tmp_path / name))[0]
        if not spec.pants_path.moves or not validate_spec(spec).report.ok:
            continue
        before = outer_summary(spec)
        path = spec.pants_path
        # Offset n carries every move once round and ends on a relabelled C_0.
        for offset in range(1, len(path.moves) + 1):
            path = rotate_path(path)
            assert outer_summary(spec._replace(pants_path=path)) == before, (name, offset)
            compared += 1
        specs += 1
    assert (specs, compared) == (63, 230)


def library_summary(spec) -> tuple:
    """H_1, the rank bound, the verdict and the condition statuses of ``spec``."""
    cert = rank_certificate(spec)
    tc = construct_outer(validate_spec(spec))
    report = check_essential(tc, cert, check_local_models(tc))
    return cert.h1, cert.lower_bound, report.verdict, [c.status for c in report.conditions]


def test_stabilization_keeps_the_certificate():
    rng = random.Random(SEED)
    # The drawn specs carry no windings.  One stabilization at a seeded site
    # gives the fresh circle a nonzero one, so the relation also sees how
    # the windings of the old circles are carried.
    sites = random.Random(SEED + 1)
    compared = 0
    verdicts = set()
    for _ in range(100):
        spec = random_outer_spec(rng)
        spec = stabilize(spec, sites.randint(1, spec.page.n_boundary), extend_path=True).spec
        assert any(any(row) for row in spec.windings.entries)
        before = library_summary(spec)
        verdicts.add(before[2])
        for site in range(1, spec.page.n_boundary + 1):
            stabilized = stabilize(spec, site, extend_path=True).spec
            assert library_summary(stabilized) == before, (spec, site)
            compared += 1
    assert compared == 376
    assert verdicts == {"Essential", "NotEstablished"}
