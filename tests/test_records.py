"""The result and parameter records are immutable named tuples."""

import pytest

from abmonoids import (
    Feasibility,
    ProblemInstance,
    SolutionSet,
    SubmonoidRep,
    from_generators,
)


@pytest.mark.parametrize(
    "record, field",
    [
        (ProblemInstance(a=(1,), b=(2,), x={5}, g=3), "g"),
        (SolutionSet(((1,),), 2, False), "truncated"),
        (Feasibility(True, 8), "feasible"),
        (SubmonoidRep(2, from_generators((3, 4))), "d"),
    ],
)
def test_fields_cannot_be_assigned(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1  # no instance dict either


def test_instances_from_a_set_and_a_frozenset_are_one_value():
    from_set = ProblemInstance(a=[1, 2], b=[4, 1], x={5, 9}, g=6)
    from_frozenset = ProblemInstance(a=(1, 2), b=(4, 1), x=frozenset({9, 5}), g=6)
    assert from_set == from_frozenset
    assert hash(from_set) == hash(from_frozenset)
    assert len({from_set, from_frozenset}) == 1


def test_replace_normalises_and_validates():
    inst = ProblemInstance(a=(1, 2), b=(4, 1), x={5}, g=6)
    seeded = inst._replace(x={1})
    assert type(seeded) is ProblemInstance
    assert seeded.x == frozenset({1}) and isinstance(seeded.x, frozenset)
    assert seeded == ProblemInstance(a=(1, 2), b=(4, 1), x={1}, g=6)
    with pytest.raises(ValueError, match="g must be non-negative"):
        inst._replace(g=-1)
    with pytest.raises(ValueError, match="^g must hold only integers$"):
        inst._replace(g=2.5)
    with pytest.raises(ValueError, match=r"x must be a subset of \{4, 5, \.\.\.\}"):
        inst._replace(r=3, x={2})


@pytest.mark.parametrize(
    "field, fields",
    [
        ("a", dict(a=(1.5,), b=(2,))),
        ("b", dict(a=(1,), b=("2",))),
        ("x", dict(x={2.5})),
        ("g", dict(g=2.5)),
        ("r", dict(r=1.0)),
    ],
)
def test_non_integer_values_are_refused(field, fields):
    with pytest.raises(ValueError, match=f"^{field} must hold only integers$"):
        ProblemInstance(**fields)


def test_feasibility_is_false_when_infeasible():
    assert not bool(Feasibility(False, 3))
    assert bool(Feasibility(True, 0))
    assert repr(Feasibility(True, 8)) == "Feasibility(feasible=True, gap_count=8)"


def test_submonoid_equality_uses_the_generators():
    # field by field, down to the semigroup's own two fields: a hand-made
    # <3,4> with <3,5>'s Apéry set is another value
    s = from_generators((3, 4))
    assert SubmonoidRep(1, s) == SubmonoidRep(1, from_generators((4, 3, 8)))
    assert hash(SubmonoidRep(1, s)) == hash(SubmonoidRep(1, from_generators((4, 3, 8))))
    odd = s._replace(apery=from_generators((3, 5)).apery)
    assert SubmonoidRep(1, s) != SubmonoidRep(1, odd)
    assert SubmonoidRep(1, s) != SubmonoidRep(2, s)
