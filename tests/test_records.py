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
    with pytest.raises(ValueError, match=r"x must be a subset of \{4, 5, \.\.\.\}"):
        inst._replace(r=3, x={2})


def test_feasibility_is_false_when_infeasible():
    assert not bool(Feasibility(False, 3))
    assert bool(Feasibility(True, 0))
    assert repr(Feasibility(True, 8)) == "Feasibility(feasible=True, gap_count=8)"


def test_submonoid_equality_uses_the_generators():
    # two values of <3,4> that differ in their derived fields are one semigroup
    s = from_generators((3, 4))
    odd = s._replace(genus=s.genus + 1)
    assert SubmonoidRep(1, s) == SubmonoidRep(1, odd)
    assert hash(SubmonoidRep(1, s)) == hash(SubmonoidRep(1, odd))
    assert SubmonoidRep(1, s) != SubmonoidRep(2, s)
