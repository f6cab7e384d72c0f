import importlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import tribranch
from genutils import random_outer_spec
from tribranch.cli import main
from tribranch.schema import canonical_json, parse_spec, spec_to_json

FIXTURES = Path(__file__).parent / "fixtures"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_of(out: str) -> dict:
    return json.loads(out)


def test_validate_good_spec(capsys):
    code, out, err = run(capsys, "validate", FIXTURES / "f05_identity.json")
    assert code == 0
    doc = report_of(out)
    assert doc["ok"] is True
    assert doc["exit_code"] == 0
    assert doc["command"] == "validate"
    assert len(doc["input"]["sha256"]) == 64
    assert "clean" in err


def test_validate_matrix_dimension_mismatch(capsys):
    code, out, _ = run(capsys, "validate", FIXTURES / "f05_wrong_matrix.json")
    assert code == 1
    doc = report_of(out)
    assert any(e["code"] == "matrix-dimension" for e in doc["validation"])


def test_validate_truncated_file(capsys):
    code, out, err = run(capsys, "validate", FIXTURES / "truncated.json")
    assert code == 2
    assert out == ""
    assert "JSON" in err


def test_validate_missing_file(capsys):
    code, _, err = run(capsys, "validate", FIXTURES / "no_such_file.json")
    assert code == 2
    assert "cannot read" in err


def test_validate_curve_with_both_ends_on_one_cuff(tmp_path, capsys):
    doc = json.loads((FIXTURES / "f05_identity.json").read_text())
    doc["monodromy"]["pants_path"]["start"]["edges"]["c2"] = [["P1", 2], ["P1", 2]]
    spec_file = tmp_path / "loop.json"
    spec_file.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", spec_file)
    assert code == 1
    assert "Traceback" not in err
    assert {"code": "degenerate-loop", "message": "curve c2 occupies one cuff twice",
            "where": "pants_path"} in report_of(out)["validation"]


def test_homology_certified(capsys):
    code, out, err = run(capsys, "homology", FIXTURES / "f05_identity.json")
    assert code == 0
    doc = report_of(out)
    assert doc["homology"]["h1"] == {"free_rank": 4, "torsion": [],
                                     "invariant_factors": [0, 0, 0, 0]}
    assert doc["certificate"]["lower_bound"] == 4
    assert doc["certificate"]["verdict"] == "Certified"
    assert "Z^4" in err and "Certified" in err


def test_homology_uncertified_twist(capsys):
    code, out, err = run(capsys, "homology", FIXTURES / "f11_twist.json")
    assert code == 0
    doc = report_of(out)
    assert doc["homology"]["h1"] == {"free_rank": 1, "torsion": [],
                                     "invariant_factors": [0]}
    assert doc["certificate"]["verdict"] == "Uncertified"
    assert "not established" in doc["certificate"]["statement"]
    assert "lower bound 1" in err


def test_homology_plain_f11(capsys):
    code, out, _ = run(capsys, "homology", FIXTURES / "f11_identity.json")
    assert code == 0
    doc = report_of(out)
    assert doc["homology"]["h1"] == {"free_rank": 2, "torsion": [],
                                     "invariant_factors": [0, 0]}
    assert doc["certificate"]["verdict"] == "Uncertified"


def test_construct_naive(tmp_path, capsys):
    out_file = tmp_path / "complex.json"
    code, out, _ = run(capsys, "construct", FIXTURES / "f11_identity.json",
                       "--mode", "naive", "--out", out_file)
    assert code == 0
    doc = report_of(out)
    assert doc["inventory"]["branches"] == 3
    assert doc["inventory"]["blocks"] == 3
    assert doc["inventory"]["circles"] == 1
    written = json.loads(out_file.read_text())
    assert written["format"] == "tribranch-complex/1"
    assert written["inventory"] == doc["inventory"]
    assert doc["euler_audit"]["issues"] == []


def test_construct_naive_rejects_disc(tmp_path, capsys):
    spec = {"page": {"genus": 0, "boundary": 1}, "monodromy": {"h1_matrix": []}}
    spec_file = tmp_path / "disc.json"
    spec_file.write_text(json.dumps(spec))
    code, out, err = run(capsys, "construct", spec_file, "--mode", "naive",
                         "--out", tmp_path / "cx.json")
    assert code == 1
    assert "chi" in report_of(out)["error"]


def test_disc_page_takes_one_empty_winding_row(tmp_path, capsys):
    # F(0,1) has rank 0: one winding row, for its one circle, of length 0.
    doc = {"page": {"genus": 0, "boundary": 1},
           "monodromy": {"h1_matrix": [], "boundary_windings": [[]]}}
    spec_file = tmp_path / "disc.json"
    spec_file.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "validate", spec_file)
    assert code == 0 and report_of(out)["validation"] == []
    code, out, _ = run(capsys, "homology", spec_file)
    assert code == 0
    assert report_of(out)["homology"]["h1"] == {"free_rank": 0, "torsion": [],
                                                "invariant_factors": []}
    spec = parse_spec(doc)
    assert spec_to_json(spec)["monodromy"]["boundary_windings"] == [[]]
    assert parse_spec(spec_to_json(spec)) == spec


def test_construct_naive_ignores_the_pants_path(tmp_path, capsys):
    # An x* spec of the golden corpus: two closure targets swapped.
    doc = spec_to_json(random_outer_spec(random.Random(7)))
    closure = doc["monodromy"]["pants_path"]["closure"]
    first, second = sorted(closure)[:2]
    closure[first], closure[second] = closure[second], closure[first]
    spec_file = tmp_path / "x.json"
    spec_file.write_text(canonical_json(doc))
    code, out, _ = run(capsys, "construct", spec_file, "--mode", "naive",
                       "--out", tmp_path / "naive.json")
    assert code == 0
    assert report_of(out)["validation"] == []
    code, out, _ = run(capsys, "construct", spec_file, "--mode", "outer",
                       "--out", tmp_path / "outer.json")
    assert code == 1
    assert "closure-iso" in [e["code"] for e in report_of(out)["validation"]]


def test_construct_outer_inventory(tmp_path, capsys):
    out_file = tmp_path / "complex.json"
    code, out, _ = run(capsys, "construct", FIXTURES / "f04_identity.json",
                       "--mode", "outer", "--out", out_file)
    assert code == 0
    doc = report_of(out)
    assert doc["inventory"]["branches"] == 8
    assert doc["inventory"]["blocks"] == 6
    assert doc["inventory"]["circles"] == 6


def test_certify_positive(capsys):
    code, out, err = run(capsys, "certify", FIXTURES / "f05_identity.json")
    assert code == 0
    doc = report_of(out)
    assert doc["essentiality"]["verdict"] == "Essential"
    statuses = {c["condition"]: c["status"] for c in doc["essentiality"]["conditions"]}
    assert statuses == {
        "(1)": "Pass",
        "(2)": "StructuralPass",
        "(3)": "StructuralPass",
        "(4)": "Pass",
    }
    assert doc["complex_sha256"]
    assert "verdict: Essential" in err


def test_certify_negative(capsys):
    code, out, _ = run(capsys, "certify", FIXTURES / "f11_identity.json")
    assert code == 1
    doc = report_of(out)
    statuses = {c["condition"]: c["status"] for c in doc["essentiality"]["conditions"]}
    assert statuses["(4)"] == "NotCertified"
    assert doc["certificate"]["lower_bound"] == 2
    for cond in ("(1)", "(2)", "(3)"):
        assert statuses[cond] in ("Pass", "StructuralPass")


def test_certify_requires_pants_data(tmp_path, capsys):
    spec = {"page": {"genus": 0, "boundary": 5},
            "monodromy": {"h1_matrix": [[1 if i == j else 0 for j in range(4)]
                                        for i in range(4)]}}
    spec_file = tmp_path / "nopath.json"
    spec_file.write_text(json.dumps(spec))
    code, out, _ = run(capsys, "certify", spec_file)
    assert code == 1
    assert "pants data required" in report_of(out)["error"]


def test_report_file_flag(tmp_path, capsys):
    report_file = tmp_path / "report.json"
    code, out, _ = run(capsys, "certify", FIXTURES / "f05_identity.json",
                       "--report", report_file, "--quiet")
    assert code == 0
    assert out == ""
    doc = json.loads(report_file.read_text())
    assert doc["essentiality"]["verdict"] == "Essential"


def test_quiet_suppresses_human_lines(capsys):
    _, _, err = run(capsys, "validate", FIXTURES / "f05_identity.json", "--quiet")
    assert err == ""


def test_exit_codes_never_other_values(tmp_path, capsys):
    cases = [
        ("validate", FIXTURES / "f05_identity.json"),
        ("validate", FIXTURES / "f05_wrong_matrix.json"),
        ("validate", FIXTURES / "truncated.json"),
        ("homology", FIXTURES / "f11_twist.json"),
        ("certify", FIXTURES / "f11_identity.json"),
    ]
    for argv in cases:
        code, _, _ = run(capsys, *argv)
        assert code in (0, 1, 2)


def test_reports_embed_input_hash_and_are_deterministic(capsys):
    import hashlib

    path = FIXTURES / "f05_identity.json"
    code1, out1, _ = run(capsys, "certify", path, "--quiet")
    code2, out2, _ = run(capsys, "certify", path, "--quiet")
    assert out1 == out2 and code1 == code2
    doc = report_of(out1)
    assert doc["input"]["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
    assert doc["timings"] is None


def _timed_stages(capsys, path, exit_code) -> set:
    """The stages that ``certify --timings`` times on ``path``, whose report
    must otherwise equal the untimed one."""
    code, out, _ = run(capsys, "certify", path, "--quiet")
    timed_code, timed_out, _ = run(capsys, "certify", path, "--quiet", "--timings")
    assert timed_code == code == exit_code
    plain, timed = report_of(out), report_of(timed_out)
    assert plain["timings"] is None
    timings = timed.pop("timings")
    plain.pop("timings")
    assert timed == plain
    stages = timings["stages"]
    assert all(seconds >= 0 for seconds in stages.values())
    # Each stage is rounded to the microsecond on its own.
    assert abs(sum(stages.values()) - timings["seconds"]) <= 1e-5 * len(stages)
    return set(stages)


def test_certify_timings_split_by_stage(capsys):
    assert _timed_stages(capsys, FIXTURES / "f05_identity.json", 0) == {
        "parse", "validate", "homology", "construct", "local_models",
        "essentiality", "serialization"}


def test_certify_timings_cover_the_stages_before_a_validation_failure(capsys):
    stages = _timed_stages(capsys, FIXTURES / "f05_wrong_matrix.json", 1)
    assert stages == {"parse", "validate"}


def test_certify_timings_cover_the_stages_before_a_homology_failure(tmp_path, capsys):
    path = _huge_torsion_spec(tmp_path)
    assert _timed_stages(capsys, path, 1) == {"parse", "validate"}
    code, out, _ = run(capsys, "certify", path, "--quiet", "--timings")
    assert code == 1 and "digits" in report_of(out)["error"]


def _mutated_f05(mutate, tmp_path):
    doc = json.loads((FIXTURES / "f05_identity.json").read_text())
    mutate(doc)
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(doc))
    return path


def _bad_pairing(doc):
    doc["monodromy"]["pants_path"]["moves"] = [
        {"removed": "c1", "added": "c9", "kind": "A", "pairing": [1, 2]}
    ]


def _duplicate_pants(doc):
    doc["monodromy"]["pants_path"]["start"]["pants"] = ["P0", "P0", "P1", "P2"]


def _unknown_format(doc):
    doc["format"] = "tribranch-spec/2"


def _run_cli(*argv):
    env = dict(os.environ)
    src = str(Path(tribranch.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "tribranch", *map(str, argv)],
        capture_output=True, text=True, env=env, timeout=60,
    )


@pytest.mark.parametrize("mutate", [_bad_pairing, _duplicate_pants, _unknown_format])
def test_malformed_spec_is_a_schema_failure(mutate, tmp_path):
    spec = _mutated_f05(mutate, tmp_path)
    proc = _run_cli("certify", spec, "--quiet")
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")


@pytest.mark.parametrize("legs", [
    {"1": ["P0", 1], "2": ["P0", 2], "3": ["P0", 3], "03": ["P0", 3]},
    {"1": ["P0", 1], "2": ["P0", 2], " 3": ["P0", 3]},
    {"1": ["P0", 1], "2": ["P0", 2], "+3": ["P0", 3]},
    {"1": ["P0", 1], "2": ["P0", 2], "1_0": ["P0", 3]},
    {"1": ["P0", 1], "2": ["P0", 2], "None": ["P0", 3]},
], ids=["leading_zero", "space", "plus", "underscore", "none"])
def test_non_canonical_leg_label_is_a_schema_failure(legs, tmp_path):
    # int() reads the first four keys; "3" and "03" would merge into one leg.
    # int() rejects "None", but str(None) == "None" must not let it through.
    start = {"pants": ["P0"], "edges": {}, "legs": legs}
    doc = {"page": {"genus": 0, "boundary": 3},
           "monodromy": {"h1_matrix": [[1, 0], [0, 1]],
                         "pants_path": {"start": start, "moves": [], "closure": {}}}}
    spec = tmp_path / "legs.json"
    spec.write_text(json.dumps(doc))
    proc = _run_cli("validate", spec)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    bad = next(label for label in legs if label not in ("1", "2", "3"))
    assert proc.stderr == f"error: monodromy.pants_path.start.legs key {bad!r} " \
                          "is not a canonical integer label\n"


# Beyond Python's default limit of 4300 digits for int <-> str conversion.
_HUGE = "1" + "0" * 4399


@pytest.mark.parametrize("text", [
    # 10^4400 + 5 and 10^4400 + 6: the parser cannot read them.
    '{"page": {"genus": 1, "boundary": 1}, "monodromy": {"h1_matrix": '
    f'[[1, 1], [{_HUGE}5, {_HUGE}6]]}}}}',
    '{"page": {"genus": 0, "boundary": 2}, "monodromy": {"h1_matrix": '
    + "[" * 100000 + "]" * 100000 + "}}",
], ids=["huge_integer", "deep_nesting"])
def test_unreadable_spec_is_a_schema_failure(text, tmp_path):
    spec = tmp_path / "unreadable.json"
    spec.write_text(text)
    for verb in ("validate", "homology", "certify"):
        proc = _run_cli(verb, spec, "--quiet")
        assert proc.returncode == 2, (verb, proc.stderr[-300:])
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")


def _huge_torsion_spec(tmp_path) -> Path:
    # Two handle blocks [[1, 1], [n, n + 1]] with coprime n of 2501 digits:
    # H_1 = Z/(n1 n2), whose order has about 5000 digits.
    n1, n2 = 10 ** 2500 + 1, 10 ** 2500 + 3
    matrix = [[1, 1, 0, 0], [n1, n1 + 1, 0, 0], [0, 0, 1, 1], [0, 0, n2, n2 + 1]]
    spec = tmp_path / "huge_torsion.json"
    spec.write_text(json.dumps({"page": {"genus": 2, "boundary": 1},
                                "monodromy": {"h1_matrix": matrix}}))
    return spec


def test_torsion_too_long_to_print_is_a_domain_failure(tmp_path):
    spec = _huge_torsion_spec(tmp_path)
    assert _run_cli("validate", spec, "--quiet").returncode == 0
    for verb in ("homology", "certify"):
        proc = _run_cli(verb, spec)
        assert proc.returncode == 1, (verb, proc.stderr[-300:])
        assert "Traceback" not in proc.stderr
        assert "digits" in report_of(proc.stdout)["error"]
        assert "digits" in proc.stderr


@pytest.mark.parametrize("argv, what", [
    (["certify", FIXTURES / "f05_identity.json", "--report"], "report"),
    (["construct", FIXTURES / "f04_identity.json", "--mode", "outer", "--out"], "complex"),
], ids=["certify-report", "construct-out"])
def test_unwritable_output_is_a_schema_failure(argv, what, tmp_path):
    proc = _run_cli(*argv, tmp_path / "missing" / "out.json", "--quiet")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"cannot write {what}: ")
    assert "Traceback" not in proc.stderr


def _count_calls(monkeypatch, *names):
    """Count the calls of the package functions ``module.function`` in ``names``.

    Every module-level name that refers to a counted function is rebound, so
    calls made through ``from .x import y`` bindings are counted too.
    """
    modules = [module for name, module in sorted(sys.modules.items())
               if name == "tribranch" or name.startswith("tribranch.")]
    calls = {}
    for dotted in names:
        module_name, attr = dotted.split(".")
        original = getattr(sys.modules[f"tribranch.{module_name}"], attr)
        calls[attr] = 0

        def counted(*args, _attr=attr, _original=original, **kwargs):
            calls[_attr] += 1
            return _original(*args, **kwargs)

        for module in modules:
            for key in [k for k, v in vars(module).items() if v is original]:
                monkeypatch.setattr(module, key, counted)
    return calls


def test_homology_computes_h1_once(monkeypatch, capsys):
    calls = _count_calls(monkeypatch, "openbook.h1_open_book", "openbook.validate_monodromy")
    code, out, _ = run(capsys, "homology", FIXTURES / "f05_identity.json", "--quiet")
    assert code == 0
    assert report_of(out)["certificate"]["lower_bound"] == 4
    assert calls == {"h1_open_book": 1, "validate_monodromy": 1}


@pytest.mark.parametrize("verb, monodromy_checks, local_model_checks", [
    ("certify", 2, 1),
    ("construct", 1, 0),
])
def test_one_validation_pass_per_command(verb, monodromy_checks, local_model_checks,
                                         monkeypatch, tmp_path, capsys):
    rng = random.Random(20261018)
    spec = random_outer_spec(rng)
    while len(spec.pants_path.moves) < 2:
        spec = random_outer_spec(rng)
    n_moves = len(spec.pants_path.moves)
    path = tmp_path / "moves.json"
    path.write_text(canonical_json(spec_to_json(spec)))
    argv = [verb, path, "--quiet"]
    if verb == "construct":
        argv += ["--mode", "outer", "--out", tmp_path / "complex.json"]
    calls = _count_calls(
        monkeypatch,
        "openbook.validate_spec",
        "openbook.validate_monodromy",
        "paths.apply_move",
        "surfaces.validate_pants",
        "surfaces.vertex_map_from_curve_bijection",
        "complexes.check_local_models",
    )
    inventory = tribranch.TribranchedComplex.inventory
    calls["inventory"] = 0

    def counted_inventory(tc):
        calls["inventory"] += 1
        return inventory(tc)

    monkeypatch.setattr(tribranch.TribranchedComplex, "inventory", counted_inventory)
    code, out, _ = run(capsys, *argv)
    assert code in (0, 1)
    assert "inventory" in report_of(out)
    assert calls == {
        "validate_spec": 1,
        "validate_monodromy": monodromy_checks,
        "apply_move": n_moves,
        # The start only: each move stands on apply_move's checks.
        "validate_pants": 1,
        "vertex_map_from_curve_bijection": 1,
        "check_local_models": local_model_checks,
        # Once, for the report and the complex's bytes.
        "inventory": 1,
    }


@pytest.mark.parametrize("verb", ["certify", "construct"])
def test_complex_written_without_a_document(verb, monkeypatch, tmp_path, capsys):
    # The complex's bytes come straight from the complex; only the report
    # goes through canonical_json.
    argv = [verb, FIXTURES / "f05_identity.json", "--quiet"]
    if verb == "construct":
        argv += ["--mode", "outer", "--out", tmp_path / "complex.json"]
    calls = _count_calls(monkeypatch, "schema.canonical_json", "schema.complex_document")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert "complex_sha256" in report_of(out)
    assert calls == {"canonical_json": 1, "complex_document": 0}


def test_huge_page_boundary_is_a_domain_failure(tmp_path, capsys):
    def huge(doc):
        doc["page"]["boundary"] = 10**30

    spec = _mutated_f05(huge, tmp_path)
    for verb in ("validate", "certify"):
        code, out, _ = run(capsys, verb, spec, "--quiet")
        assert code == 1
        assert "matrix-dimension" in {e["code"] for e in report_of(out)["validation"]}


# JSON reads integers of up to 4,300 digits, and Python prints no integer
# longer than that: k = 2g + b - 1 has 4,301 digits for a 4,300-digit genus,
# and for a 4,300-digit boundary b = 10**4300 - 1 on the torus by the carry.
HUGE = int("9" * 4300)


def _huge_genus(doc):
    doc["page"] = {"genus": HUGE, "boundary": 1}
    del doc["monodromy"]["pants_path"]


def _huge_genus_with_windings(doc):
    _huge_genus(doc)
    doc["monodromy"]["boundary_windings"] = [[0, 0, 0, 0]]


def _huge_genus_with_a_path(doc):
    doc["page"] = {"genus": HUGE, "boundary": 1}


def _huge_boundary_on_the_torus(doc):
    doc["page"] = {"genus": 1, "boundary": HUGE}
    del doc["monodromy"]["pants_path"]


@pytest.mark.parametrize("verb", ["validate", "homology", "certify", "construct"])
@pytest.mark.parametrize("mutate", [_huge_genus, _huge_genus_with_windings,
                                    _huge_genus_with_a_path, _huge_boundary_on_the_torus])
def test_page_rank_past_the_digit_limit_is_a_domain_failure(mutate, verb, tmp_path, capsys):
    spec = _mutated_f05(mutate, tmp_path)
    argv = [verb, spec, "--quiet"]
    if verb == "construct":
        argv += ["--mode", "naive", "--out", tmp_path / "complex.json"]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert report_of(out)["exit_code"] == 1
    assert "matrix-dimension" in out
    assert "Traceback" not in out + err


def test_parser_reuse_keeps_no_flags_between_calls(capsys):
    path = FIXTURES / "f05_identity.json"
    code, out, _ = run(capsys, "certify", path, "--quiet", "--timings")
    assert code == 0 and report_of(out)["timings"] is not None
    code, out, _ = run(capsys, "certify", path, "--quiet")
    assert code == 0 and report_of(out)["timings"] is None
    fresh = _run_cli("certify", path, "--quiet")
    assert fresh.returncode == 0
    assert out == fresh.stdout


def test_failed_calls_leave_later_reports_unchanged(capsys):
    path = FIXTURES / "f05_identity.json"
    code, before, _ = run(capsys, "certify", path, "--quiet")
    assert code == 0
    code, out, err = run(capsys, "certify", FIXTURES / "truncated.json", "--quiet")
    assert code == 2 and out == "" and "not valid JSON" in err
    with pytest.raises(SystemExit) as exc:
        main(["certify", str(path), "--no-such-flag"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, after, _ = run(capsys, "certify", path, "--quiet")
    assert code == 0 and after == before


def test_main_builds_the_parsers_once(monkeypatch, capsys):
    import argparse
    from tribranch import cli

    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()
    for verb in ("validate", "homology", "certify"):
        code, _, _ = run(capsys, verb, FIXTURES / "f05_identity.json", "--quiet")
        assert code == 0
    # The top-level parser and one per verb.
    assert len(built) == 5


OUTER_VERBS = [["validate"], ["certify"], ["construct", "--mode", "outer"]]


def _verb_argv(verb, spec, tmp_path):
    argv = [verb[0], spec, "--quiet", *verb[1:]]
    return argv + ["--out", tmp_path / "complex.json"] if verb[0] == "construct" else argv


def test_start_spanning_no_surface_is_reported(tmp_path, capsys):
    # Three pants and no curve carry legs 1..5 of F(0,5): cycle rank -2.
    def no_curves(doc):
        doc["monodromy"]["pants_path"]["start"]["edges"] = {}
        doc["monodromy"]["pants_path"]["closure"] = {}

    spec = _mutated_f05(no_curves, tmp_path)
    for verb in OUTER_VERBS:
        code, out, _ = run(capsys, *_verb_argv(verb, spec, tmp_path))
        assert code == 1, verb
        doc = report_of(out)
        assert doc["exit_code"] == 1
        assert [e["code"] for e in doc["validation"]] == ["start-invalid"]
        assert doc["validation"][0]["where"] == "pants_path step 0"


def _drop_one_curve(start, rng):
    if start["edges"]:
        del start["edges"][rng.choice(sorted(start["edges"]))]


def _drop_all_curves(start, rng):
    start["edges"] = {}


def _add_stray_pants(start, rng):
    start["pants"].append("Pstray")


@pytest.mark.parametrize("mutate", [_drop_one_curve, _drop_all_curves, _add_stray_pants])
def test_mutated_path_start_gets_a_report(mutate, tmp_path, capsys):
    # Whatever is wrong with the start of the path, each verb either prints
    # a JSON report or fails on the schema; it never exits 1 silently.
    rng = random.Random(20260810)
    for i in range(9):
        # Planar pages too: there one curve fewer leaves no surface at all.
        doc = spec_to_json(random_outer_spec(rng, g_max=i % 3))
        mutate(doc["monodromy"]["pants_path"]["start"], rng)
        spec = tmp_path / f"mutated{i}.json"
        spec.write_text(json.dumps(doc))
        for verb in OUTER_VERBS:
            code, out, err = run(capsys, *_verb_argv(verb, spec, tmp_path))
            assert code in (0, 1, 2), (i, verb, err)
            if code != 2:
                assert report_of(out)["exit_code"] == code, (i, verb, err)


def test_pairing_on_an_s_move_is_a_failed_move(tmp_path, capsys):
    # An S-move replaces a self-loop in the same cuffs, so there is no pairing
    # to give; one given must fail the move, not be ignored.
    rng = random.Random(20260810)
    doc = next(d for d in (spec_to_json(random_outer_spec(rng, g_max=2)) for _ in range(50))
               if any(mv["kind"] == "S" for mv in d["monodromy"]["pants_path"]["moves"]))
    spec = tmp_path / "s_pairing.json"
    spec.write_text(json.dumps(doc))
    assert run(capsys, "validate", spec, "--quiet")[0] == 0
    moves = doc["monodromy"]["pants_path"]["moves"]
    k = next(i for i, mv in enumerate(moves) if mv["kind"] == "S")
    moves[k]["pairing"] = [[["nowhere", 9]], [["P0", 1], ["P0", 2], ["P0", 3]]]
    spec.write_text(json.dumps(doc))
    for verb in OUTER_VERBS:
        code, out, _ = run(capsys, *_verb_argv(verb, spec, tmp_path))
        assert code == 1, verb
        assert report_of(out)["validation"] == [{
            "code": "move-failed",
            "message": f"S-move on {moves[k]['removed']!r} takes no pairing",
            "where": f"pants_path step {k}",
        }]


def _fresh_python(code):
    """Run ``code`` in a new interpreter that imports this checkout's package.

    ``-S`` keeps site hooks from importing modules on their own.
    """
    src = str(Path(tribranch.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, env=env, timeout=60, check=True)


def test_cli_import_leaves_dataclasses_unloaded():
    # Building dataclass records and importing `dataclasses` (with inspect,
    # ast and dis) cost about 30 ms of every `tribranch` process.
    out = _fresh_python("import tribranch.cli, sys; print('dataclasses' in sys.modules)")
    assert out.stdout.strip() == "False"


def test_package_import_loads_no_submodule():
    # Exports resolve on first use, so a bare import compiles only __init__.
    out = _fresh_python(
        "import sys, tribranch; print(sorted(m for m in sys.modules if m.startswith('tribranch')))")
    assert out.stdout.strip() == "['tribranch']"


# The modules every verb loads: the CLI, the spec reader and the open book
# checks with the modules under them; then the modules each run adds.  A
# certify that stops at the parser or at validation adds none.  No run loads
# `search`, `builders` or `snf`.
CLI_MODULES = {"cli", "errors", "intalg", "openbook", "paths", "reports", "schema", "surfaces"}
UNLOADED_MODULES = {"builders", "search", "snf"}
VERB_RUNS = {
    "validate": ("validate", "f05_identity.json", 0, set()),
    "homology": ("homology", "f05_identity.json", 0, set()),
    "construct": ("construct", "f05_identity.json", 0, {"complexes"}),
    "certify": ("certify", "f05_identity.json", 0, {"complexes", "essential"}),
    "certify-truncated": ("certify", "truncated.json", 2, set()),
    "certify-invalid": ("certify", "f05_wrong_matrix.json", 1, set()),
}


@pytest.mark.parametrize("run_name", VERB_RUNS)
def test_each_verb_loads_only_the_modules_it_runs(run_name, tmp_path):
    # The verb runs as `python -m tribranch` does; its exit code is printed,
    # and the modules are listed as the process exits.
    verb, spec, exit_code, added = VERB_RUNS[run_name]
    argv = [verb, str(FIXTURES / spec), "--quiet", "--report", str(tmp_path / "report.json")]
    if verb == "construct":
        argv += ["--mode", "outer", "--out", str(tmp_path / "complex.json")]
    out = _fresh_python(
        "import atexit, runpy, sys\n"
        "atexit.register(lambda: print(sorted(m for m in sys.modules"
        " if m.startswith('tribranch.'))))\n"
        f"sys.argv = ['tribranch'] + {argv!r}\n"
        "try:\n"
        "    runpy.run_module('tribranch', run_name='__main__')\n"
        "except SystemExit as done:\n"
        "    print(done.code)\n",
    )
    code, loaded = out.stdout.splitlines()
    assert int(code) == exit_code
    expected = sorted(f"tribranch.{m}" for m in CLI_MODULES | added)
    assert loaded == str(expected)
    assert not [m for m in UNLOADED_MODULES if f"'tribranch.{m}'" in loaded]
    if exit_code != 2:
        assert json.loads((tmp_path / "report.json").read_text())["exit_code"] == exit_code


def test_exports_resolve_through_their_submodules(monkeypatch):
    # Every export is its submodule's attribute, read on each access: the
    # package keeps no copy, so a name rebound in its submodule (as the
    # benchmark tracer does) is rebound in the package too.
    namespace = {}
    exec("from tribranch import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(tribranch.__all__)
    for name in tribranch.__all__:
        module = importlib.import_module(f"tribranch.{tribranch._SOURCE[name]}")
        expected = module if module.__name__ == f"tribranch.{name}" else getattr(module, name)
        assert getattr(tribranch, name) is expected is namespace[name], name
    assert set(tribranch.__all__) <= set(dir(tribranch))
    assert "construct_outer" not in vars(tribranch)
    spy = object()
    monkeypatch.setattr(tribranch.complexes, "construct_outer", spy)
    assert tribranch.construct_outer is spy
    with pytest.raises(AttributeError, match="no_such_name"):
        tribranch.no_such_name


# Each name that moved to a module no verb loads and that the benchmark reads
# through its old module: new module -> old module -> names.
MOVED = {
    "search": {
        "surfaces": ("canonical_key", "find_isomorphism"),
        "paths": ("search_path",),
    },
    "builders": {"openbook": ("stabilize",)},
    "snf": {"intalg": ("determinantal_divisors", "smith_normal_form")},
}
# The other moved names: each resolves on its new module (and on the package
# when exported), and no longer on its old one.
DROPPED = {
    "search": {"surfaces": ("key_shape",)},
    "builders": {
        "surfaces": ("standard_decomposition",),
        "openbook": ("StabilizationResult", "intersection_form", "transvection"),
    },
    "snf": {"intalg": ("SnfResult",)},
}


def test_moved_names_resolve_through_their_old_modules(monkeypatch):
    # The old module reads each moved name from its new module on every
    # access and keeps no copy, so the package, the old module and the new
    # one agree, and a name rebound in its new module (as the benchmark
    # tracer does) is rebound through the old path too.
    for new, olds in MOVED.items():
        home = importlib.import_module(f"tribranch.{new}")
        for old, names in olds.items():
            module = importlib.import_module(f"tribranch.{old}")
            for name in names:
                value = getattr(home, name)
                assert getattr(module, name) is value, (old, name)
                if name in tribranch.__all__:
                    assert tribranch._SOURCE[name] == new
                    assert getattr(tribranch, name) is value, name
                assert name not in vars(module), (old, name)
                spy = object()
                monkeypatch.setattr(home, name, spy)
                assert getattr(module, name) is spy, (old, name)
                assert name not in vars(module), (old, name)
    for old in ("surfaces", "paths", "openbook", "intalg"):
        module = importlib.import_module(f"tribranch.{old}")
        with pytest.raises(AttributeError, match=f"tribranch.{old}.*no_such_name"):
            module.no_such_name


def test_dropped_aliases_resolve_only_on_their_new_modules():
    exported = []
    for new, olds in DROPPED.items():
        home = importlib.import_module(f"tribranch.{new}")
        for old, names in olds.items():
            module = importlib.import_module(f"tribranch.{old}")
            for name in names:
                value = getattr(home, name)
                with pytest.raises(AttributeError, match=f"tribranch.{old}.*{name}"):
                    getattr(module, name)
                if name in tribranch.__all__:
                    assert tribranch._SOURCE[name] == new
                    assert getattr(tribranch, name) is value, name
                    exported.append(name)
    assert sorted(exported) == ["intersection_form", "standard_decomposition", "transvection"]


def test_certify_reaches_construct_outer_through_its_module(monkeypatch, capsys):
    # The benchmark tracer counts calls by rebinding module attributes, so
    # the command must look its functions up when it runs.
    original = tribranch.complexes.construct_outer
    calls = []

    def spy(checked):
        calls.append(checked.spec.name)
        return original(checked)

    monkeypatch.setattr(tribranch.complexes, "construct_outer", spy)
    code, out, _ = run(capsys, "certify", FIXTURES / "f05_identity.json", "--quiet")
    assert code == 0
    assert calls == [report_of(out)["name"]]
