"""``schema.complex_json`` against the dict-built complex document of ``oracles``.

The writer must give exactly the bytes of
``json.dumps(oracles.complex_document(tc), sort_keys=True, indent=2) + "\\n"``
on every complex: the outer and naive complexes of the golden corpus, a
degenerate path, ids that need escaping, and hand-built complexes whose
values the constructions never produce.  The module needs no pytest, so it
also runs under other interpreters::

    PYTHONPATH=src python tests/test_complex_json.py
"""

from __future__ import annotations

import json
import random
import tempfile
from pathlib import Path

import oracles
from genutils import random_outer_spec
from test_golden_reports import write_corpus
from tribranch import (
    MERGED_PIECE,
    PRODUCT_BLOCK,
    SOLID_TORUS,
    TORUS_ANNULUS,
    Block,
    Branch,
    BranchingCircle,
    MonodromyH1,
    OpenBookSpec,
    PantsDecomposition,
    PantsMove,
    PantsPath,
    SurfaceSig,
    TribranchedComplex,
    TribranchError,
    construct_naive,
    construct_outer,
    standard_decomposition,
    validate_spec,
)
from tribranch.complexes import ONE_HOLED_TORUS
from tribranch.schema import complex_document, complex_json, load_spec_file


def check(tc) -> None:
    """The writer's bytes are the oracle's."""
    expected = json.dumps(oracles.complex_document(tc), sort_keys=True, indent=2) + "\n"
    assert complex_json(tc, tc.inventory()) == expected
    assert complex_document(tc) == json.loads(expected)


def built(spec):
    """The outer and the naive complex of ``spec``, where each can be built."""
    out = []
    checked = validate_spec(spec)
    if checked.report.ok:
        try:
            out.append(construct_outer(checked))
        except TribranchError:
            pass
    if validate_spec(spec._replace(pants_path=None)).report.ok:
        try:
            out.append(construct_naive(spec))
        except TribranchError:
            pass
    return out


def test_golden_corpus_outer_and_naive():
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch)
        names = write_corpus(directory)
        complexes = [tc for name in names if name != "truncated.json"
                     for tc in built(load_spec_file(str(directory / name))[0])]
    constructions = [tc.meta["construction"] for tc in complexes]
    assert constructions.count("outer") >= 90 and constructions.count("naive") >= 90
    # Some pages keep a one-holed torus uncut: the support of an S-move.
    assert any(b.sig == ONE_HOLED_TORUS for tc in complexes for b in tc.branches)
    for tc in complexes:
        check(tc)


def test_degenerate_path():
    page = SurfaceSig(1, 3)
    pd = standard_decomposition(page)
    spec = OpenBookSpec(page=page, monodromy=MonodromyH1.identity(page),
                        pants_path=PantsPath(start=pd, moves=[],
                                             closure={c: c for c in pd.edges}))
    (tc, naive) = built(spec)
    assert tc.meta["degenerate_path_convention_used"] is True
    check(tc)
    check(naive)


def prefixed(spec, prefix: str):
    """``spec`` with ``prefix`` before every pants and curve id of its path."""
    path = spec.pants_path

    def cuff(c):
        return (prefix + c[0], c[1])

    start = PantsDecomposition(
        pants=frozenset(prefix + p for p in path.start.pants),
        edges={prefix + c: (cuff(a), cuff(b)) for c, (a, b) in path.start.edges.items()},
        legs={label: cuff(c) for label, c in path.start.legs.items()},
    )
    moves = [PantsMove(removed=prefix + m.removed, added=prefix + m.added, kind=m.kind,
                       pairing=None if m.pairing is None
                       else tuple(tuple(map(cuff, side)) for side in m.pairing))
             for m in path.moves]
    closure = {prefix + a: prefix + b for a, b in path.closure.items()}
    return spec._replace(pants_path=PantsPath(start=start, moves=moves, closure=closure))


def test_ids_that_need_escaping():
    rng = random.Random(12)
    spec = random_outer_spec(rng)
    while len(spec.pants_path.moves) < 2:
        spec = random_outer_spec(rng)
    # A quote, a backslash, a control character, Latin-1, the BMP and a
    # character above U+FFFF, which json writes as a surrogate pair.
    tc = construct_outer(validate_spec(prefixed(spec, '"\\\té☃\U0001d11e')))
    text = complex_json(tc, tc.inventory())
    assert text.isascii() and "\\ud834\\udd1e" in text and '\\"\\\\\\t' in text
    check(tc)


class Tag(str):
    pass


def hand_built():
    annulus = SurfaceSig(0, 2)
    yield TribranchedComplex(branches=(), circles=(), blocks=(), sides={})
    yield TribranchedComplex(
        branches=(
            Branch(id="a", sig=annulus, taxonomy=TORUS_ANNULUS, slots=()),
            Branch(id="b", sig=ONE_HOLED_TORUS, taxonomy=MERGED_PIECE,
                   slots=("x", "y", "z"), level=True,
                   refs={"z": "s", "a": 7, "m": ["p", 2, ["q", []]], "e": {}, "n": None}),
            Branch(id="é", sig=annulus, taxonomy=TORUS_ANNULUS, slots=("w",), level=-3,
                   refs={"curve": "c1", "boundary_label": 2}),
        ),
        circles=(
            BranchingCircle(id="two", germs=(("a", "x"), ("b", "y"))),
            BranchingCircle(id="four", germs=(("a", "x"), ("b", "y"), ("b", "z"), ("é", "w"))),
            BranchingCircle(id="none", germs=()),
        ),
        blocks=(
            Block(id="st", kind=SOLID_TORUS, boundary_label=1, pi1_rank_bound=1),
            Block(id="pb", kind=PRODUCT_BLOCK, base=SurfaceSig(0, 3), pi1_rank_bound=2),
            Block(id="f", kind=SOLID_TORUS, boundary_label=False),
        ),
        sides={"b": ("st", "pb", "st"), "a": ("pb", "st"), "é": (), "c": ["f"]},
        meta={"construction": "hand", "page": SurfaceSig(2, 1), "levels": 0,
              "flag": False, "counts": [1, 2], "none": None},
    )
    # Values the constructions never write: each goes through the general path.
    yield TribranchedComplex(
        branches=(
            Branch(id=3, sig=SurfaceSig(True, 2), taxonomy=1, slots=["x", 4],
                   level=1.5, refs={2: "int key", 1: [0.25]}),
            Branch(id=Tag("t"), sig=annulus, taxonomy=0, slots="ab", level=2**70),
        ),
        circles=(
            BranchingCircle(id=None, germs=(("x", 4), ["y", "z"], ("a", "b", "c"), "uv")),
            BranchingCircle(id="c", germs=[["p", Tag("q")]]),
        ),
        blocks=(Block(id=7, kind=Tag("K"), base=SurfaceSig(0, False), boundary_label=-1,
                      pi1_rank_bound=2.0),),
        sides={1: ("x", 2), 0: ()},
        meta={5: "int key", 2: SurfaceSig(0, 1)},
    )


def test_hand_built_complexes():
    for tc in hand_built():
        check(tc)


if __name__ == "__main__":
    for name, test in sorted(globals().items()):
        if name.startswith("test_"):
            test()
            print("ok", name)
