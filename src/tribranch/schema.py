"""The JSON spec file format and deterministic report serialization.

A spec file describes one open book::

    {
      "name": "optional free text",
      "page": {"genus": 0, "boundary": 5},
      "monodromy": {
        "h1_matrix": [[...], ...],          // square, size 2g + b - 1
        "boundary_windings": [[...], ...],  // optional, one row of length
                                            // 2g + b - 1 per boundary circle
        "pants_path": {                     // optional
          "start": {
            "pants": ["P0", ...],
            "edges": {"c1": [["P0", 1], ["P1", 1]], ...},
            "legs": {"1": ["P0", 2], ...}
          },
          "moves": [
            {"removed": "c1", "added": "c9", "kind": "A",
             "pairing": [[["P0", 2], ["P0", 3]], [["P1", 2], ["P1", 3]]]}
          ],
          "closure": {"c9": "c1", ...}
        }
      },
      "options": {"degenerate_path_convention": true},
      "format": "tribranch-spec/1"          // optional; no other value
    }

Structural problems (missing keys, wrong JSON types, ragged matrices) raise
:class:`SchemaError`; mathematical problems (wrong matrix size, invalid
decomposition) are domain failures reported by the validators instead.

All emitted JSON is canonical: sorted keys, two-space indent, trailing
newline.  Identical inputs therefore produce byte-identical outputs.
"""

from __future__ import annotations

import hashlib
import json
import sys

from .errors import SchemaError, TribranchError
from .intalg import IntMatrix
from .openbook import MonodromyH1, OpenBookSpec
from .paths import PantsMove, PantsPath
from .surfaces import PantsDecomposition, SurfaceSig

SPEC_FORMAT = "tribranch-spec/1"
REPORT_FORMAT = "tribranch-report/1"
COMPLEX_FORMAT = "tribranch-complex/1"


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _require(doc: dict, key: str, kind, where: str):
    if not isinstance(doc, dict):
        raise SchemaError(f"{where} must be an object")
    if key not in doc:
        raise SchemaError(f"{where} is missing the required key {key!r}")
    value = doc[key]
    if not isinstance(value, kind) or isinstance(value, bool) and kind is int:
        raise SchemaError(f"{where}.{key} has the wrong type")
    return value


def _int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{where} must be an integer")
    return value


def _matrix(rows, where: str) -> IntMatrix:
    if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
        raise SchemaError(f"{where} must be a list of rows")
    for r in rows:
        for x in r:
            _int(x, where)
    try:
        return IntMatrix.from_rows(rows)
    except TribranchError as err:
        raise SchemaError(f"{where}: {err}") from err


def _cuff(value, where: str):
    if (
        not isinstance(value, list)
        or len(value) != 2
        or not isinstance(value[0], str)
    ):
        raise SchemaError(f"{where} must be a [pants, slot] pair")
    return (value[0], _int(value[1], where))


def parse_decomposition(doc: dict, where: str = "pants_path.start") -> PantsDecomposition:
    pants = _require(doc, "pants", list, where)
    if any(not isinstance(p, str) for p in pants):
        raise SchemaError(f"{where}.pants must be strings")
    if len(set(pants)) != len(pants):
        raise SchemaError(f"{where}.pants lists a pants id more than once")
    edges_doc = _require(doc, "edges", dict, where)
    edges = {}
    for curve, ends in edges_doc.items():
        if not isinstance(ends, list) or len(ends) != 2:
            raise SchemaError(f"{where}.edges.{curve} must list two endpoints")
        edges[curve] = (
            _cuff(ends[0], f"{where}.edges.{curve}"),
            _cuff(ends[1], f"{where}.edges.{curve}"),
        )
    legs_doc = _require(doc, "legs", dict, where)
    legs = {}
    for label, cuff in legs_doc.items():
        # int() also reads "03", " 3", "+3" and "1_0"; only the decimal
        # form str(int(label)) is a label, so two keys never name one leg.
        try:
            key = int(label)
        except ValueError:
            key = None
        if key is None or str(key) != label:
            raise SchemaError(
                f"{where}.legs key {label!r} is not a canonical integer label")
        legs[key] = _cuff(cuff, f"{where}.legs.{label}")
    return PantsDecomposition(pants=frozenset(pants), edges=edges, legs=legs)


def parse_move(doc: dict, where: str) -> PantsMove:
    removed = _require(doc, "removed", str, where)
    added = _require(doc, "added", str, where)
    kind = _require(doc, "kind", str, where)
    if kind not in ("A", "S"):
        raise SchemaError(f"{where}.kind must be 'A' or 'S'")
    pairing = None
    if doc.get("pairing") is not None:
        raw = doc["pairing"]
        if not isinstance(raw, list) or len(raw) != 2 or any(
            not isinstance(side, list) for side in raw
        ):
            raise SchemaError(f"{where}.pairing must be a list of two groups of cuffs")
        pairing = tuple(
            tuple(_cuff(c, f"{where}.pairing") for c in side) for side in raw
        )
    return PantsMove(removed=removed, added=added, kind=kind, pairing=pairing)


def parse_path(doc: dict, where: str = "monodromy.pants_path") -> PantsPath:
    start = parse_decomposition(_require(doc, "start", dict, where), f"{where}.start")
    moves_doc = doc.get("moves", [])
    if not isinstance(moves_doc, list):
        raise SchemaError(f"{where}.moves must be a list")
    moves = [parse_move(m, f"{where}.moves[{i}]") for i, m in enumerate(moves_doc)]
    closure_doc = doc.get("closure", {})
    if not isinstance(closure_doc, dict) or any(
        not isinstance(k, str) or not isinstance(v, str) for k, v in closure_doc.items()
    ):
        raise SchemaError(f"{where}.closure must map curve ids to curve ids")
    return PantsPath(start=start, moves=moves, closure=dict(closure_doc))


def parse_spec(doc: dict) -> OpenBookSpec:
    """Build an :class:`OpenBookSpec` from a parsed JSON document.

    Only structural shape is enforced here; run the validators for the
    mathematical invariants.
    """
    if not isinstance(doc, dict):
        raise SchemaError("spec document must be a JSON object")
    if doc.get("format", SPEC_FORMAT) != SPEC_FORMAT:
        raise SchemaError(f"format must be {SPEC_FORMAT!r} when given")
    page_doc = _require(doc, "page", dict, "spec")
    genus = _int(_require(page_doc, "genus", int, "page"), "page.genus")
    boundary = _int(_require(page_doc, "boundary", int, "page"), "page.boundary")
    if genus < 0 or boundary < 0:
        raise SchemaError("page.genus and page.boundary must be non-negative")
    page = SurfaceSig(genus=genus, n_boundary=boundary)

    monodromy_doc = _require(doc, "monodromy", dict, "spec")
    matrix = _matrix(
        _require(monodromy_doc, "h1_matrix", list, "monodromy"), "monodromy.h1_matrix"
    )

    windings = None
    if monodromy_doc.get("boundary_windings") is not None:
        w_rows = _matrix(monodromy_doc["boundary_windings"], "monodromy.boundary_windings")
        # Stored one row per boundary circle; used as one column per circle.
        windings = w_rows.transpose()

    path = None
    if monodromy_doc.get("pants_path") is not None:
        path = parse_path(_require(monodromy_doc, "pants_path", dict, "monodromy"))

    options = doc.get("options", {})
    if not isinstance(options, dict):
        raise SchemaError("options must be an object")
    convention = options.get("degenerate_path_convention", True)
    if not isinstance(convention, bool):
        raise SchemaError("options.degenerate_path_convention must be a boolean")

    name = doc.get("name", "")
    if not isinstance(name, str):
        raise SchemaError("name must be a string")

    return OpenBookSpec(
        page=page,
        monodromy=MonodromyH1(matrix),
        pants_path=path,
        name=name,
        windings=windings,
        degenerate_path_convention=convention,
    )


def load_spec_file(path: str):
    """Read, hash and parse a spec file.

    Returns ``(spec, sha256_hex_of_the_bytes)``.  I/O and JSON problems
    surface as :class:`SchemaError`.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as err:
        raise SchemaError(f"cannot read {path}: {err}") from err
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise SchemaError(f"{path} is not valid JSON: {err}") from err
    except ValueError as err:
        # The one other ValueError of json.loads: Python's digit limit.
        raise SchemaError(
            f"{path} holds an integer of more than "
            f"{sys.get_int_max_str_digits()} digits"
        ) from err
    except RecursionError as err:
        raise SchemaError(f"{path} nests lists or objects too deeply") from err
    return parse_spec(doc), sha256_hex(data)


def spec_to_json(spec: OpenBookSpec) -> dict:
    monodromy = {"h1_matrix": spec.monodromy.matrix.to_json()}
    if spec.windings is not None:
        monodromy["boundary_windings"] = spec.windings.transpose().to_json()
    if spec.pants_path is not None:
        monodromy["pants_path"] = spec.pants_path.to_json()
    doc = {
        "format": SPEC_FORMAT,
        "page": {"genus": spec.page.genus, "boundary": spec.page.n_boundary},
        "monodromy": monodromy,
        "options": {"degenerate_path_convention": spec.degenerate_path_convention},
    }
    if spec.name:
        doc["name"] = spec.name
    return doc


def complex_document(tc) -> dict:
    doc = {"format": COMPLEX_FORMAT}
    doc.update(tc.to_json())
    return doc
