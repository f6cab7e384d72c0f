import json
from pathlib import Path

import pytest

import oracles
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
    stabilize,
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
    res = stabilize(spec, site=2, extend_path=True)
    assert res.spec.windings is not None
    back = round_trip(res.spec)
    assert back.windings == res.spec.windings
    assert h1_open_book(back) == h1_open_book(res.spec)


def test_stabilized_spec_certifies_end_to_end():
    # Stabilizing a certified book keeps it certified and essential: the
    # windings absorb the boundary-parallel twist and the extended path
    # carries the outer construction through.
    spec = degenerate_spec(0, 5)
    res = stabilize(spec, site=2, extend_path=True)
    assert validate_spec(res.spec).report.ok
    cert = rank_certificate(res.spec)
    assert cert.verdict == "Certified" and cert.lower_bound == 4
    tc = construct_outer(validate_spec(res.spec))
    report = check_essential(tc, cert, check_local_models(tc))
    assert report.verdict == "Essential"
    # And once more on top.
    res2 = stabilize(res.spec, site=res.spec.page.n_boundary, extend_path=True)
    cert2 = rank_certificate(res2.spec)
    tc2 = construct_outer(validate_spec(res2.spec))
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
