"""The value records compare like frozen dataclass instances: equal only to
a record of the same type with equal fields, hashed to match, and closed
to assignment; the identity objects keep their constructors."""

import pytest

from grasspace import (
    AutomorphismReport,
    AxiomReport,
    ClauseVerdict,
    Collineation,
    Duality,
    FieldSpec,
    InstanceGenerator,
    InstanceKind,
    KappaReport,
    KappaStatus,
    LineMap,
    PropertyFlags,
    ProjSpace,
    ShadowReport,
    TheoremReport,
)
from grasspace.cli import GrassmapFile

M = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))

# one set of fields per record type, every field given
RECORDS = [
    (FieldSpec, (2, 2, 4, (1, 1, 1))),
    (AutomorphismReport, (6, ((1, 0, 2),), 3, (0,))),
    (AxiomReport, (None, (0, 1, 2, 3), None)),
    (PropertyFlags, (True, False, True, False)),
    (Collineation, (M, 1)),
    (Duality, (M, 1)),
    (KappaReport, (KappaStatus.MIXED, None, frozenset({4}), None)),
    (InstanceGenerator, (7, InstanceKind.DUALITY)),
    (ClauseVerdict, ("c", False, "w")),
    (TheoremReport, ("THM1", (ClauseVerdict("c", True),))),
    (ShadowReport, (5, 2, 3, ())),
    (GrassmapFile, (3, 2, 3, 2, True, tuple(range(35)))),
]


@pytest.mark.parametrize("cls,fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_equal_fields_give_equal_records_with_equal_hashes(cls, fields):
    a, b = cls(*fields), cls(*fields)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    changed = a._replace(**{a._fields[-1]: "other"})
    assert a != changed and not a == changed


@pytest.mark.parametrize("cls,fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_a_record_equals_no_plain_tuple(cls, fields):
    record = cls(*fields)
    assert record != tuple(fields) and tuple(fields) != record
    assert not record == tuple(fields) and not tuple(fields) == record
    assert tuple(record) == tuple(fields)


def test_records_of_two_types_with_equal_fields_differ():
    assert Collineation(M, 0) != Duality(M, 0)
    assert Duality(M, 0) != Collineation(M, 0)
    assert not Collineation(M, 0) == Duality(M, 0)
    assert PropertyFlags(True, True, True, True) != (True, True, True, True)
    assert len({Collineation(M, 0), Duality(M, 0)}) == 2


@pytest.mark.parametrize("cls,fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_records_refuse_assignment(cls, fields):
    record = cls(*fields)
    first = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, first, fields[0])
    with pytest.raises(AttributeError):
        record.extra = 1
    with pytest.raises(AttributeError):
        delattr(record, first)
    assert tuple(record) == tuple(fields)


def test_line_maps_refuse_assignment_and_deletion(pg32):
    lm = LineMap(pg32, pg32, tuple(range(35)))
    for name in ("source", "target", "image", "dual", "_kappa", "extra"):
        with pytest.raises(AttributeError):
            setattr(lm, name, None)
    for name in ("source", "image", "dual", "_kappa"):
        with pytest.raises(AttributeError):
            delattr(lm, name)
    assert lm.image == tuple(range(35)) and lm.dual is False and lm._kappa is None


def test_defaults_are_kept():
    assert ClauseVerdict("c", True).witness == ""
    assert Collineation(M).auto_index == 0
    assert Duality(M).auto_index == 0
    assert Collineation(M) == Collineation(matrix=M, auto_index=0)


def test_proj_space_extra_arguments_are_keyword_only(pg32):
    core = (pg32.point_labels, pg32.line_sets, pg32.kind, pg32.detail)
    extra = (pg32.n, pg32.field, pg32.coords, pg32.point_index)
    with pytest.raises(TypeError):
        ProjSpace(*core, *extra)
    sp = ProjSpace(*core, **dict(zip(("n", "field", "coords", "point_index"), extra)))
    assert repr(sp) == "PG(3,2)"
    assert sp.lines_through == pg32.lines_through and sp.star_bits == pg32.star_bits
