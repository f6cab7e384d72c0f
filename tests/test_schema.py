import json
from pathlib import Path

import pytest

import oracles
from genutils import stabilize_along
from tribranch import (
    MonodromyH1,
    OpenBookSpec,
    PantsPath,
    SchemaError,
    SurfaceSig,
    check_essential,
    check_local_models,
    construct_outer,
    h1_open_book,
    rank_certificate,
    standard_decomposition,
    validate_path,
    validate_spec,
)
from tribranch.cli import main
from tribranch.schema import canonical_json, complex_json, parse_spec, spec_to_json


def degenerate_spec(g, b, name=""):
    page = SurfaceSig(g, b)
    pd = standard_decomposition(page)
    path = PantsPath(start=pd, moves=[], closure={c: c for c in pd.edges})
    return OpenBookSpec(page=page, monodromy=MonodromyH1.identity(page),
                        pants_path=path, name=name)


def round_trip(spec: OpenBookSpec) -> OpenBookSpec:
    return parse_spec(json.loads(canonical_json(spec_to_json(spec))))


def test_spec_round_trip():
    spec = degenerate_spec(0, 5, name="fixture")
    back = round_trip(spec)
    assert back.page == spec.page
    assert back.monodromy.matrix == spec.monodromy.matrix
    assert back.pants_path.start == spec.pants_path.start
    assert back.pants_path.closure == spec.pants_path.closure
    assert back.name == "fixture"
    assert back.degenerate_path_convention is True


def test_schema_rejects_structural_problems():
    with pytest.raises(SchemaError):
        parse_spec([])
    with pytest.raises(SchemaError):
        parse_spec({"page": {"genus": 0}})  # boundary missing
    with pytest.raises(SchemaError):
        parse_spec({"page": {"genus": 0, "boundary": 3},
                    "monodromy": {"h1_matrix": [[1, 0], [1]]}})  # ragged
    with pytest.raises(SchemaError):
        parse_spec({"page": {"genus": 0, "boundary": True},
                    "monodromy": {"h1_matrix": []}})
    with pytest.raises(SchemaError):
        parse_spec({"page": {"genus": 0, "boundary": 3},
                    "monodromy": {"h1_matrix": [[1.5, 0], [0, 1]]}})


def _clean_spec() -> dict:
    """F(0,3) with the identity and a one-pants path, which every verb reads."""
    return {"page": {"genus": 0, "boundary": 3},
            "monodromy": {"h1_matrix": [[1, 0], [0, 1]],
                          "pants_path": {"start": {"pants": ["P0"], "edges": {},
                                                   "legs": {"1": ["P0", 1], "2": ["P0", 2],
                                                            "3": ["P0", 3]}},
                                         "moves": [], "closure": {}}}}


def _start(doc):
    return doc["monodromy"]["pants_path"]["start"]


_MOVE = {"removed": "c1", "added": "c2"}
_PATH = "monodromy.pants_path"

# (id, the one fault planted in the clean spec, the SchemaError message).
STRUCTURAL_REJECTIONS = [
    ("not-an-object", lambda d: [d], "spec document must be a JSON object"),
    ("format", lambda d: {**d, "format": "tribranch-spec/2"},
     "format must be 'tribranch-spec/1' when given"),
    ("negative-genus", lambda d: d["page"].update(genus=-1),
     "page.genus and page.boundary must be non-negative"),
    ("negative-boundary", lambda d: d["page"].update(boundary=-1),
     "page.genus and page.boundary must be non-negative"),
    ("options", lambda d: d.update(options=[]), "options must be an object"),
    ("convention", lambda d: d.update(options={"degenerate_path_convention": 1}),
     "options.degenerate_path_convention must be a boolean"),
    ("name", lambda d: d.update(name=7), "name must be a string"),
    ("h1-rows", lambda d: d["monodromy"].update(h1_matrix=[1, 0]),
     "monodromy.h1_matrix must be a list of rows"),
    ("winding-rows", lambda d: d["monodromy"].update(boundary_windings=[0, 0, 0]),
     "monodromy.boundary_windings must be a list of rows"),
    ("pants-strings", lambda d: _start(d).update(pants=["P0", 1]),
     f"{_PATH}.start.pants must be strings"),
    ("pants-twice", lambda d: _start(d).update(pants=["P0", "P0"]),
     f"{_PATH}.start.pants lists a pants id more than once"),
    ("edge-ends", lambda d: _start(d).update(edges={"c1": [["P0", 1]]}),
     f"{_PATH}.start.edges.c1 must list two endpoints"),
    ("cuff-pair", lambda d: _start(d)["legs"].update({"1": ["P0"]}),
     f"{_PATH}.start.legs.1 must be a [pants, slot] pair"),
    ("moves-list", lambda d: d["monodromy"]["pants_path"].update(moves={}),
     f"{_PATH}.moves must be a list"),
    ("move-kind", lambda d: d["monodromy"]["pants_path"].update(moves=[{**_MOVE, "kind": "B"}]),
     f"{_PATH}.moves[0].kind must be 'A' or 'S'"),
    ("pairing-groups", lambda d: d["monodromy"]["pants_path"].update(
        moves=[{**_MOVE, "kind": "A", "pairing": [[["P0", 1], ["P0", 2]]]}]),
     f"{_PATH}.moves[0].pairing must be a list of two groups of cuffs"),
    ("closure-map", lambda d: d["monodromy"]["pants_path"].update(closure={"c1": 1}),
     f"{_PATH}.closure must map curve ids to curve ids"),
    ("invalid-json", lambda d: json.dumps(d)[:-1], None),
]


@pytest.mark.parametrize("fault, message", [case[1:] for case in STRUCTURAL_REJECTIONS],
                         ids=[case[0] for case in STRUCTURAL_REJECTIONS])
def test_each_structural_rejection_exits_2_from_every_verb(tmp_path, capsys, fault, message):
    path = tmp_path / "spec.json"
    out_file = tmp_path / "complex.json"
    doc = _clean_spec()
    bent = fault(doc)
    text = bent if isinstance(bent, str) else json.dumps(bent or doc)
    if message is None:
        with pytest.raises(json.JSONDecodeError) as err:
            json.loads(text)
        message = f"{path} is not valid JSON: {err.value}"
    path.write_text(text)
    for argv in (["validate"], ["homology"], ["certify"],
                 ["construct", "--mode", "naive", "--out", out_file]):
        code = main([argv[0], str(path), *map(str, argv[1:])])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n"), argv
    assert not out_file.exists()


def test_the_clean_spec_of_the_structural_rejections_reaches_every_verb(tmp_path, capsys):
    # certify exits 1 only for its verdict: H_1 = Z^2 bounds the rank by 2.
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_clean_spec()))
    for argv, exit_code in ((["validate"], 0), (["homology"], 0), (["certify"], 1),
                            (["construct", "--mode", "naive", "--out",
                              tmp_path / "complex.json"], 0)):
        assert main([argv[0], str(path), "--quiet", *map(str, argv[1:])]) == exit_code, argv
        out = capsys.readouterr().out
        if argv[0] == "certify":
            assert json.loads(out)["essentiality"]["verdict"] == "NotEstablished"


@pytest.mark.parametrize("bad", [True, 1.0])
@pytest.mark.parametrize("key", ["h1_matrix", "boundary_windings"])
def test_matrix_rejects_a_non_integer_at_any_position(tmp_path, capsys, key, bad):
    # F(1,2): the action is 3 x 3 and the windings 2 rows of 3 (one per circle).
    doc = {"page": {"genus": 1, "boundary": 2},
           "monodromy": {"h1_matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                         "boundary_windings": [[0, 0, 0], [0, 0, 0]]}}
    message = f"monodromy.{key} must be an integer"
    rows = doc["monodromy"][key]
    cells = [(0, 0), (len(rows) // 2, 1), (len(rows) - 1, 2)]
    for i, j in cells:
        bent = json.loads(json.dumps(doc))
        bent["monodromy"][key][i][j] = bad
        with pytest.raises(SchemaError) as err:
            parse_spec(bent)
        assert str(err.value) == message
        path = tmp_path / f"bent{i}{j}.json"
        path.write_text(json.dumps(bent))
        assert main(["validate", str(path), "--quiet"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    assert parse_spec(doc).monodromy.matrix.entries == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_wrong_matrix_size_is_domain_not_schema():
    spec = parse_spec({"page": {"genus": 0, "boundary": 5},
                       "monodromy": {"h1_matrix": [[1, 0], [0, 1]]}})
    report = validate_spec(spec).report
    assert "matrix-dimension" in report.codes()


def test_pairing_survives_round_trip():
    from tribranch import A_MOVE, PantsMove, apply_move, enumerate_pairings
    from genutils import inverse_move

    page = SurfaceSig(0, 5)
    pd = standard_decomposition(page)
    mv = PantsMove("c1", "x1", A_MOVE, enumerate_pairings(pd, "c1")[2])
    mid = apply_move(pd, mv)
    inv = inverse_move(pd, mv, mid, "x2")
    final = apply_move(mid, inv)
    from tribranch import find_isomorphism

    path = PantsPath(start=pd, moves=[mv, inv],
                     closure=dict(find_isomorphism(final, pd)[1]))
    spec = OpenBookSpec(page=page, monodromy=MonodromyH1.identity(page),
                        pants_path=path)
    back = round_trip(spec)
    assert [m.to_json() for m in back.pants_path.moves] == [
        m.to_json() for m in spec.pants_path.moves
    ]
    assert validate_spec(back).report.ok


def test_stabilized_spec_round_trips_with_windings():
    spec = degenerate_spec(0, 5)
    stabilized = stabilize_along(spec, 2)
    assert stabilized.windings is not None
    back = round_trip(stabilized)
    assert back.windings == stabilized.windings
    assert h1_open_book(back) == h1_open_book(stabilized)


def test_stabilized_spec_certifies_end_to_end():
    # Stabilizing a certified book keeps it certified and essential: the
    # windings absorb the boundary-parallel twist and the extended path
    # carries the outer construction through.
    spec = degenerate_spec(0, 5)
    stabilized = stabilize_along(spec, 2)
    assert validate_spec(stabilized).report.ok
    cert = rank_certificate(stabilized)
    assert cert.verdict == "Certified" and cert.lower_bound == 4
    tc = construct_outer(validate_spec(stabilized))
    report = check_essential(tc, cert, check_local_models(tc))
    assert report.verdict == "Essential"
    # And once more on top.
    twice = stabilize_along(stabilized, stabilized.page.n_boundary)
    cert2 = rank_certificate(twice)
    tc2 = construct_outer(validate_spec(twice))
    assert check_essential(tc2, cert2, check_local_models(tc2)).verdict == "Essential"


def test_curve_permuting_closure_construction():
    # A monodromy that swaps the two parallel curves of this decomposition:
    # the wrap transports page pieces through the closure's vertex map.
    from tribranch import PantsDecomposition, euler_audit, validate_pants

    sig = SurfaceSig(1, 2)
    pd = PantsDecomposition.build(
        ["P0", "P1"],
        {"c1": (("P0", 1), ("P1", 1)), "c2": (("P0", 2), ("P1", 2))},
        {1: ("P0", 3), 2: ("P1", 3)},
    )
    assert validate_pants(sig, pd).ok
    path = PantsPath(start=pd, moves=[], closure={"c1": "c2", "c2": "c1"})
    assert validate_path(path).ok
    spec = OpenBookSpec(page=sig, monodromy=MonodromyH1.identity(sig),
                        pants_path=path)
    tc = construct_outer(validate_spec(spec))
    assert check_local_models(tc).ok
    assert euler_audit(tc).ok
    assert tc.is_connected()
    assert len(tc.circles) == 2 * 2 + 1 * 2


def _documents_written(monkeypatch, *argv):
    """The documents ``cli.main`` serializes on one run, in order.

    The complex is written from the complex itself, so its document is the
    oracle's, and the writer's bytes must be the oracle document's.
    """
    from tribranch import cli

    docs = []

    def capture(doc):
        docs.append(doc)
        return canonical_json(doc)

    def capture_complex(tc, inventory):
        text = complex_json(tc, inventory)
        doc = oracles.complex_document(tc)
        assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"
        docs.append(doc)
        return text

    monkeypatch.setattr(cli, "canonical_json", capture)
    monkeypatch.setattr(cli, "complex_json", capture_complex)
    assert cli.main([str(a) for a in argv]) == 0
    return docs


@pytest.mark.parametrize("argv, formats", [
    (["certify", "--quiet"], ["tribranch-complex/1", "tribranch-report/1"]),
    (["certify", "--quiet", "--timings"], ["tribranch-complex/1", "tribranch-report/1"]),
    (["construct", "--quiet", "--mode", "outer"], ["tribranch-complex/1", "tribranch-report/1"]),
], ids=["f05-report", "timings-report", "complex-document"])
def test_canonical_json_equals_json_dumps_on_written_documents(
        argv, formats, monkeypatch, tmp_path, capsys):
    f05 = Path(__file__).parent / "fixtures" / "f05_identity.json"
    verb, *flags = argv
    if verb == "construct":
        flags += ["--out", tmp_path / "complex.json"]
    docs = _documents_written(monkeypatch, verb, f05, *flags)
    assert [doc["format"] for doc in docs] == formats
    if "--timings" in flags:
        assert isinstance(docs[-1]["timings"]["seconds"], float)
    for doc in docs:
        assert canonical_json(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"
