"""The record types keep their value semantics: field order, defaults and
keyword construction, equality and hash by value, immutability where
they are frozen, round trips through pickle, and their construction-time
canonicalization and type checks."""

import pickle

import pytest

from critgroups.abelian import FinAbGroup, GroupHom
from critgroups.actions import DihedralAction, FreeOrbit, OrbitLabeling, PinnedOrbit
from critgroups.decomposition import CheckResult, DecompositionReport
from critgroups.intmatrix import IntMatrix
from critgroups.multigraph import Multigraph
from critgroups.quotients import QuotientResult

P3 = Multigraph(3, ((0, 1), (1, 2)))
CHECK = CheckResult("kernel_structure", True, {"kernel": [2]}, {"kernel": [2]}, ["note"])

# name -> (class, every field by keyword in field order, one field changed)
RECORDS = {
    "Multigraph": (
        Multigraph,
        {"vertex_count": 3, "edges": ((0, 1), (1, 2)), "labels": ("a", "b", "c")},
        {"labels": ("a", "b", "d")},
    ),
    "DihedralAction": (
        DihedralAction,
        {"n": 4, "sigma1": (0, 3, 2, 1), "sigma2": (1, 0, 3, 2)},
        {"n": 2},
    ),
    "PinnedOrbit": (PinnedOrbit, {"row": (0, 1), "flipped": False}, {"flipped": True}),
    "FreeOrbit": (FreeOrbit, {"xrow": (0, 1), "yrow": (2, 3)}, {"yrow": (3, 2)}),
    "OrbitLabeling": (
        OrbitLabeling,
        {"n": 2, "pinned": (PinnedOrbit((0, 1), False),), "free": (), "generators_swapped": False},
        {"generators_swapped": True},
    ),
    "FinAbGroup": (FinAbGroup, {"factors": (2, 12)}, {"factors": (24,)}),
    "GroupHom": (
        GroupHom,
        {"source_moduli": (2,), "target_moduli": (4,), "matrix": IntMatrix.from_rows([[2]], 1)},
        {"target_moduli": (2,)},
    ),
    "QuotientResult": (
        QuotientResult,
        {
            "source": P3,
            "order": 2,
            "quotient": Multigraph(2, ((0, 1),)),
            "vertex_map": (0, 1, 0),
            "multiplicity": (1, 2, 1),
        },
        {"vertex_map": (1, 0, 1)},
    ),
    "CheckResult": (
        CheckResult,
        {"name": "x", "passed": True, "computed": {"k": [2]}, "predicted": None, "notes": ["n"]},
        {"passed": False},
    ),
    "DecompositionReport": (
        DecompositionReport,
        {
            "graph_name": "g",
            "n": 2,
            "s": 1,
            "t": 0,
            "flipped": 0,
            "generators_swapped": False,
            "group": [2],
            "quotient_groups": [[], [2]],
            "checks": [CHECK],
            "seed": 0,
            "trials": 5,
        },
        {"seed": 1},
    ),
}
FROZEN = sorted(set(RECORDS) - {"CheckResult", "DecompositionReport"})


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_equality_and_copies(name):
    cls, fields, change = RECORDS[name]
    record = cls(**fields)
    assert cls(*fields.values()) == record
    assert {f: getattr(record, f) for f in fields} == fields
    assert cls(**{**fields, **change}) != record
    assert pickle.loads(pickle.dumps(record)) == record


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_records_hash_by_value_and_refuse_assignment(name):
    cls, fields, _ = RECORDS[name]
    record = cls(**fields)
    assert hash(pickle.loads(pickle.dumps(record))) == hash(record)
    for f in [*fields, "extra"]:
        with pytest.raises(AttributeError):
            setattr(record, f, getattr(record, f, None))
        with pytest.raises(AttributeError):
            delattr(record, f)
    assert {f: getattr(record, f) for f in fields} == fields


def test_defaults():
    assert Multigraph(2, ((0, 1),)).labels is None
    check = CheckResult("x", True, {})
    assert check.predicted is None and list(check.notes) == []
    assert check.to_json()["notes"] == []


def test_construction_canonicalizes():
    g = Multigraph(3, [(2, 1), (1, 0), (0, 1)], ["a", "b", "c"])
    assert (g.edges, g.labels) == (((0, 1), (0, 1), (1, 2)), ("a", "b", "c"))
    assert g != Multigraph(3, g.edges) and g != Multigraph(3, g.edges, ("a", "c", "b"))
    group = FinAbGroup([4, 6])
    assert group.factors == (2, 12) and repr(group) == "FinAbGroup(factors=(2, 12))"


@pytest.mark.parametrize(
    "build,error",
    [
        (lambda: Multigraph(2.0, ()), TypeError),
        (lambda: Multigraph(2, ((0, True),)), TypeError),
        (lambda: Multigraph(-1, ()), ValueError),
        (lambda: Multigraph(2, ((0, 1),), ("a",)), ValueError),
        (lambda: FinAbGroup((2, 6.0)), TypeError),
        (lambda: GroupHom((2,), (2, 2), IntMatrix.from_rows([[1]], 1)), ValueError),
        (lambda: GroupHom((2,), (2.0,), IntMatrix.from_rows([[1]], 1)), TypeError),
        (lambda: Multigraph(2, ((0, 2),)), ValueError),
        (lambda: GroupHom((2,), (True,), IntMatrix.from_rows([[0]], 1)), TypeError),
        (lambda: FinAbGroup((4, 0)), ValueError),
    ],
)
def test_construction_rejects(build, error):
    with pytest.raises(error):
        build()


def test_build_stays_a_classmethod():
    """perfbench's tracer wraps DihedralAction.build on the class."""
    assert isinstance(vars(DihedralAction)["build"], classmethod)
