"""The package's records: immutable, field-equal, and owning their defaults.

Each record is a ``collections.namedtuple`` subclass.  These tests pin the
behaviour callers rely on: a default list or dict is fresh per instance,
the constructor checks raise (also under ``python -O``), fields cannot be
reassigned, and the reprs read as they always have.
"""

from pathlib import Path

import pytest

from tribranch import (
    AbelianGroup,
    Branch,
    EssentialityReport,
    IntMatrix,
    PantsMove,
    PantsPath,
    SurfaceSig,
    TribranchError,
    TribranchedComplex,
    check_essential,
    check_local_models,
    construct_outer,
    euler_audit,
    rank_certificate,
    smith_normal_form,
    stabilize,
    validate_spec,
)
from tribranch.reports import ValidationReport
from tribranch.schema import load_spec_file
from tribranch.surfaces import cut_structure

FIXTURES = Path(__file__).parent / "fixtures"


def _records() -> list:
    """One instance of each of the package's 22 record classes."""
    spec, _ = load_spec_file(FIXTURES / "f05_identity.json")
    checked = validate_spec(spec)
    tc = construct_outer(checked)
    cert = rank_certificate(spec)
    essential = check_essential(tc, cert, check_local_models(tc))
    path = spec.pants_path
    start = path.start
    return [
        spec, spec.page, spec.monodromy, spec.monodromy.matrix, path, start,
        PantsMove("c1", "c9", "A"), checked, checked.report,
        _issue(), tc, tc.branches[0],
        tc.circles[0], tc.blocks[0], euler_audit(tc), cert, cert.h1,
        essential, essential.conditions[0], stabilize(spec, 1),
        smith_normal_form(IntMatrix.identity(2)),
        cut_structure(start, set(start.edges))[0],
    ]


def _issue():
    report = ValidationReport()
    report.add("code", "message")
    return report.entries[0]


def test_every_record_class_is_sampled():
    names = {type(r).__name__ for r in _records()}
    assert len(names) == 22, sorted(names)


_START = load_spec_file(FIXTURES / "f05_identity.json")[0].pants_path.start


# (record class, arguments without the defaulted fields, those fields)
DEFAULTED = [
    (ValidationReport, (), "entries"),
    (PantsPath, (_START,), "moves closure"),
    (Branch, ("b", SurfaceSig(0, 3), "PantsPiece", ()), "refs"),
    (TribranchedComplex, ((), (), (), {}), "meta"),
    (EssentialityReport, ([],), "notes"),
]


@pytest.mark.parametrize("cls, args, fields", DEFAULTED, ids=[c[0].__name__ for c in DEFAULTED])
def test_default_lists_and_dicts_are_never_shared(cls, args, fields):
    a, b = cls(*args), cls(*args)
    assert a == b
    for name in fields.split():
        x, y = getattr(a, name), getattr(b, name)
        assert type(x) in (list, dict) and not x, name
        assert x is not y, name


@pytest.mark.parametrize("build", [
    lambda: SurfaceSig(-1, 2),
    lambda: SurfaceSig(0, -1),
    lambda: IntMatrix(2, 2, ((1,), (0,))),
    lambda: IntMatrix(2, 1, ((1,),)),
    lambda: AbelianGroup(0, (4, 6)),
    lambda: AbelianGroup(0, (1, 2)),
], ids=["genus", "boundary", "row-length", "row-count", "divisibility", "order-1"])
def test_constructor_checks_raise(build):
    with pytest.raises(TribranchError):
        build()


def test_fields_cannot_be_assigned():
    for record in _records():
        field = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.extra = None
        assert not hasattr(record, "__dict__"), type(record).__name__


def test_equality_and_hashing_by_fields():
    assert SurfaceSig(1, 2) == SurfaceSig(1, 2) != SurfaceSig(2, 1)
    assert len({SurfaceSig(1, 2), SurfaceSig(1, 2), AbelianGroup(1, (2,))}) == 2
    assert sorted([SurfaceSig(1, 1), SurfaceSig(0, 4)])[0] == SurfaceSig(0, 4)
    tc = TribranchedComplex((), (), (), {})
    with pytest.raises(TypeError):
        hash(tc)
    with pytest.raises(TypeError):
        hash(ValidationReport())


def test_reprs():
    assert repr(SurfaceSig(0, 3)) == "SurfaceSig(genus=0, n_boundary=3)"
    assert repr(IntMatrix.from_rows([[1, 2], [3, 4]])) == (
        "IntMatrix(rows=2, cols=2, entries=((1, 2), (3, 4)))"
    )
    assert repr(PantsMove("c1", "c9", "A")) == (
        "PantsMove(removed='c1', added='c9', kind='A', pairing=None)"
    )
    assert repr(PantsMove("c1", "c9", "A", ((("P0", 1), ("P1", 2)), (("P0", 2), ("P1", 3))))) == (
        "PantsMove(removed='c1', added='c9', kind='A', "
        "pairing=((('P0', 1), ('P1', 2)), (('P0', 2), ('P1', 3))))"
    )
