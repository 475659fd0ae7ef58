import importlib
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from abmonoids import ProblemInstance, ResourceLimitError, check_conditions, oracle_solve
from abmonoids.oracle import _sum_condition_holds

from conftest import instance_corpus

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
        assert oracle_solve(WORKED).solutions == (
            (1, 2, 3, 4, 6, 7),
            (1, 2, 3, 4, 6, 8),
            (1, 2, 3, 4, 7, 8),
        )

    def test_scaled(self):
        inst = ProblemInstance(a=(2, 3), b=(4, 2), x={6, 8}, g=4, r=0)
        assert oracle_solve(inst).solutions == (
            (1, 2, 3, 4),
            (1, 2, 3, 5),
            (1, 2, 3, 7),
            (1, 2, 4, 5),
            (1, 2, 4, 7),
            (1, 3, 5, 7),
        )

    def test_floored(self):
        inst = ProblemInstance(a=(2, 3), b=(4, 2), x={6, 8}, g=4, r=3)
        assert len(oracle_solve(inst).solutions) == 9

    def test_zero_size(self):
        assert oracle_solve(ProblemInstance(a=(1,), b=(1,), x={2}, g=0)).solutions == ((),)

    def test_candidates_examined(self):
        # universe {1..11} for r=0, g=6
        assert oracle_solve(WORKED).node_count == comb(11, 6)

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


def test_universe_bound_loses_nothing():
    # widening the candidate range beyond 2*(r+g)-1 never finds more solutions
    for inst in instance_corpus(60):
        assert (
            oracle_solve(inst).solutions
            == oracle_solve(inst, universe_extension=5).solutions
        )
