import ast
import importlib
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from abmonoids import (
    ProblemInstance,
    ResourceLimitError,
    check_conditions,
    one_solution,
    oracle_solve,
)
from abmonoids.oracle import _sum_condition_holds

from conftest import instance_corpus, reference_sum_condition, saturated_members

WORKED = ProblemInstance(a=(1, 2), b=(4, 1), x={5}, g=6, r=0)


class TestCheckConditions:
    def test_known_solution(self):
        assert check_conditions({1, 2, 3, 4, 6, 7}, WORKED)

    def test_affine_divisor_violation(self):
        # 12 is in the set but (12 - 4) / 1 = 8 is not
        assert not check_conditions({1, 2, 3, 4, 6, 12}, WORKED)

    def test_empty_set_for_zero_size(self):
        inst = ProblemInstance(a=(1, 2), b=(4, 1), x={5}, g=0, r=0)
        assert check_conditions(set(), inst)

    def test_wrong_cardinality(self):
        assert not check_conditions({1, 2, 3}, WORKED)

    def test_forbidden_value(self):
        assert not check_conditions({1, 2, 3, 4, 5, 6}, WORKED)

    def test_sum_condition_violation(self):
        inst = ProblemInstance(g=2)
        # 4 = 2 + 2 with 2 outside the set
        assert not check_conditions({3, 4}, inst)
        assert check_conditions({1, 2}, inst)

    def test_below_floor_rejected(self):
        inst = ProblemInstance(g=2, r=3)
        assert not check_conditions({2, 7}, inst)


class TestOracleSolve:
    def test_worked(self):
        assert oracle_solve(WORKED) == (
            (1, 2, 3, 4, 6, 7),
            (1, 2, 3, 4, 6, 8),
            (1, 2, 3, 4, 7, 8),
        )

    def test_scaled(self):
        inst = ProblemInstance(a=(2, 3), b=(4, 2), x={6, 8}, g=4, r=0)
        assert oracle_solve(inst) == (
            (1, 2, 3, 4),
            (1, 2, 3, 5),
            (1, 2, 3, 7),
            (1, 2, 4, 5),
            (1, 2, 4, 7),
            (1, 3, 5, 7),
        )

    def test_floored(self):
        inst = ProblemInstance(a=(2, 3), b=(4, 2), x={6, 8}, g=4, r=3)
        assert len(oracle_solve(inst)) == 9

    def test_zero_size(self):
        assert oracle_solve(ProblemInstance(a=(1,), b=(1,), x={2}, g=0)) == ((),)

    def test_brute_force_bound(self, monkeypatch):
        inst = ProblemInstance(a=(1,), b=(1,), x={8}, g=7, r=3)
        msg = r"r \+ g = 10 exceeds the brute-force bound 9"
        with pytest.raises(ResourceLimitError, match=msg):
            oracle_solve(inst)
        monkeypatch.setattr(importlib.import_module("abmonoids.oracle"), "DEFAULT_SCALE_BOUND", 10)
        oracle_solve(inst)


candidate_sets = st.sets(st.integers(1, 14), min_size=1, max_size=5)


@given(candidate_sets, st.integers(0, 3))
@settings(max_examples=200, deadline=None)
def test_sum_condition_is_complement_closure(cand, r):
    cand = {v + r for v in cand}  # keep candidates above the floor
    top = max(cand)
    holds = _sum_condition_holds(cand, r + 1, top)
    # independent statement: the nonzero complement values above the floor
    # never sum into the candidate set
    complement = [v for v in range(r + 1, top + 1) if v not in cand]
    closed = all(u + v not in cand for u in complement for v in complement)
    assert holds == closed


@st.composite
def sum_condition_sets(draw):
    """A floor r in 0..5 and a set of values in r+1..100, of up to 40
    values, so the bit masks span up to four 30-bit digits: either any such
    set, or one shaped like ``one_solution``'s answers, the first values
    above r outside a monoid, maybe with one more value put in, which often
    breaks the condition."""
    r = draw(st.integers(0, 5))
    if draw(st.booleans()):
        return frozenset(draw(st.sets(st.integers(r + 1, 100), min_size=1, max_size=40))), r
    gens = draw(st.sets(st.integers(r + 2, 100), min_size=1, max_size=4))
    members = saturated_members(gens, 100)
    outside = [v for v in range(r + 1, 101) if v not in members]
    cand = set(outside[: draw(st.integers(1, 40))])
    if draw(st.booleans()):
        cand.add(draw(st.integers(r + 1, 100)))
    return frozenset(cand), r


# each breaks the condition: 2 + 2 = 4, 20 + 21 = 41 past a dense prefix,
# and 8 + 9 = 17 where every x below 8 lies in the set
FAILING = [
    (frozenset({3, 4}), 0),
    (frozenset(range(1, 20)) | {41}, 0),
    (frozenset(range(4, 8)) | {17}, 3),
]


@given(sum_condition_sets())
@settings(max_examples=400, deadline=None)
def test_sum_condition_matches_the_all_pairs_loop(case):
    cand, r = case
    top = max(cand)
    assert _sum_condition_holds(set(cand), r + 1, top) == reference_sum_condition(set(cand), r + 1, top)


@pytest.mark.parametrize("s", [69, 71, 73])
def test_sum_condition_on_wide_answers(s):
    # one_solution's answers of g = 500 values (top 577-601, about twenty
    # 30-bit digits) hold, and so do they with top + 1 put in; with 2s put
    # in they break, as s lies outside and s + s = 2s inside
    sol = set(one_solution(ProblemInstance(a=(2,), b=(1,), x={s, s + 2}, g=500)))
    top = max(sol)
    for cand, holds in ((sol, True), (sol | {top + 1}, True), (sol | {2 * s}, False)):
        assert _sum_condition_holds(cand, 1, max(cand)) is holds
        assert reference_sum_condition(cand, 1, max(cand)) is holds


@pytest.mark.parametrize("case", FAILING)
def test_sum_condition_fails_on_both_loops(case):
    cand, r = case
    assert not reference_sum_condition(set(cand), r + 1, max(cand))
    assert not _sum_condition_holds(set(cand), r + 1, max(cand))


def test_universe_bound_loses_nothing():
    # widening the candidate range beyond 2*(r+g)-1 never finds more solutions
    for inst in instance_corpus(60):
        wider = combinations(range(inst.r + 1, 2 * (inst.r + inst.g) + 5), inst.g)
        assert oracle_solve(inst) == tuple(
            c for c in wider if check_conditions(c, inst)
        )


def test_oracle_imports_nothing_from_the_tree_engine():
    # the reference solver is a fair check only while it shares no code
    # with the walk: from the package it may use the instance record and
    # the error types alone
    source = Path(importlib.import_module("abmonoids.oracle").__file__).read_text()
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert {m for m in imported if m.startswith((".", "abmonoids"))} == {".closure", ".errors"}
