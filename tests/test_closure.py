import importlib
import math
import re
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from abmonoids import (
    Feasibility,
    InfeasibleError,
    Int64OverflowError,
    ProblemInstance,
    ResourceLimitError,
    SubmonoidRep,
    check_conditions,
    closure,
    feasible,
    from_generators,
    instance_closure,
    one_solution,
)

from conftest import is_affine_closed, rep_contains, saturated_members


@st.composite
def small_instances(draw, min_x=0):
    n = draw(st.integers(0, 3))
    a = tuple(draw(st.integers(1, 5)) for _ in range(n))
    b = tuple(draw(st.integers(1, 5)) for _ in range(n))
    r = draw(st.integers(0, 3))
    x = draw(st.sets(st.integers(r + 1, 12), min_size=min_x, max_size=3))
    g = draw(st.integers(0, 5))
    return ProblemInstance(a=a, b=b, x=frozenset(x), g=g, r=r)


class TestIsAbMonoid:
    # the independent checker the property tests below rest on
    def test_closed_example(self):
        assert is_affine_closed({4, 5, 11}, (1, 2), (4, 1))

    def test_open_example(self):
        # 2*5 + 1 = 11 is not generated by {5, 7, 9}
        assert not is_affine_closed({5, 7, 9}, (1, 2), (4, 1))

    def test_full_monoid_always_closed(self):
        assert is_affine_closed({1}, (7, 3), (9, 2))

    def test_no_conditions(self):
        assert is_affine_closed({6, 10}, (), ())


class TestClosure:
    def test_worked_example(self):
        rep = closure((1, 2), (4, 1), {5})
        assert rep.d == 1
        assert rep.base == from_generators({5, 9, 11, 13, 17})

    def test_gcd_reduction(self):
        rep = closure((2, 3), (4, 2), {6, 8})
        assert rep.d == 2
        assert rep.base == from_generators({3, 4})
        assert rep.expanded_generators() == (6, 8)

    def test_single_affine_map(self):
        # brute-force derived: saturating {2} under m -> m + 1 gives {0, 2, ->}
        rep = closure((1,), (1,), {2})
        assert rep.d == 1
        assert rep.base == from_generators({2, 3})

    def test_no_affine_maps_returns_generated_monoid(self):
        rep = closure((), (), {4, 6})
        assert rep.d == 2
        assert rep.base == from_generators({2, 3})
        assert rep.expanded_generators() == (4, 6)

    def test_empty_x_rejected(self):
        with pytest.raises(ValueError, match=r"x must be non-empty \(the empty seed closes"):
            closure((1,), (2,), set())

    def test_mismatched_tuples_rejected(self):
        with pytest.raises(ValueError, match="a and b must have the same length, got 2 and 1"):
            closure((1, 2), (4,), {5})

    @pytest.mark.parametrize(
        "a, b, x, message",
        [
            ((1,), (1,), {0, 5}, "x must be a subset of {1, 2, ...}"),
            ((0,), (1,), {5}, "entries of a and b must be positive integers"),
            ((1, 2), (1,), {5}, "a and b must have the same length, got 2 and 1"),
            ((1,), (1,), set(), "x must be non-empty (the empty seed closes to the zero monoid)"),
        ],
    )
    def test_input_errors(self, a, b, x, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            closure(a, b, x)

    def test_lists_accepted(self):
        assert closure([2, 3], [4, 2], [6, 8]) == closure((2, 3), (4, 2), (6, 8))

    def test_overflow_guard(self):
        with pytest.raises(Int64OverflowError):
            closure((2**40,), (3,), {2**40})

    def test_wide_seed_pair(self):
        # the multiplicity 1001 is far below the table cap, whatever the
        # Frobenius number; values from an independent Apery computation
        rep = closure((2,), (1,), {1001, 1003})
        assert rep.d == 1
        assert (rep.base.frobenius, rep.base.genus) == (336335, 168506)

    def test_huge_seed_value_above_small_multiplicity(self):
        assert closure((), (), {5, 6, 4000000}) == SubmonoidRep(1, from_generators({5, 6}))

    def test_generator_budget(self, monkeypatch):
        semigroup_module = importlib.import_module("abmonoids.semigroup")
        monkeypatch.setattr(semigroup_module, "DEFAULT_MAX_GENERATORS", 1)
        with pytest.raises(ResourceLimitError, match="closure generator set exceeded 1 elements"):
            closure((1,), (1,), {2})

    def test_generator_budget_counts_minimal_generators(self, monkeypatch):
        # the seeds 8 and 12 are members of <4,5,6,7>, so they do not count
        semigroup_module = importlib.import_module("abmonoids.semigroup")
        monkeypatch.setattr(semigroup_module, "DEFAULT_MAX_GENERATORS", 4)
        assert repr(closure((1,), (1,), {4, 8, 12}).base) == "<4,5,6,7>"
        monkeypatch.setattr(semigroup_module, "DEFAULT_MAX_GENERATORS", 3)
        with pytest.raises(ResourceLimitError, match="closure generator set exceeded 3 elements"):
            closure((1,), (1,), {4, 8, 12})

    def test_membership_queries(self):
        rep = closure((2, 3), (4, 2), {6, 8})
        members = [v for v in range(20) if rep_contains(rep, v)]
        assert members == [0, 6, 8, 12, 14, 16, 18]
        assert not rep_contains(rep, -2)


class TestTrivialMonoid:
    def test_instance_closure_of_empty_seed(self):
        # the empty seed closes to {0}: every integer >= r + 1 is available
        assert instance_closure(ProblemInstance(a=(1,), b=(4,), x=frozenset(), g=3)) is None
        assert feasible(ProblemInstance(a=(1,), b=(4,), g=4, r=2)) == Feasibility(True, math.inf)
        assert one_solution(ProblemInstance(a=(1,), b=(4,), g=4, r=2)) == (3, 4, 5, 6)


class TestFeasible:
    def test_worked_example(self):
        res = feasible(ProblemInstance(a=(1, 2), b=(4, 1), x={5}, g=6, r=0))
        assert res == Feasibility(True, 8)
        assert bool(res)

    def test_floor_sweep(self):
        for r in range(5):
            res = feasible(ProblemInstance(a=(1, 2), b=(4, 1), x={5}, g=6, r=r))
            assert res.feasible == (r in {0, 1, 2})

    def test_infinite_complement_always_feasible(self):
        res = feasible(ProblemInstance(a=(2, 3), b=(4, 2), x={6, 8}, g=9, r=0))
        assert res.feasible
        assert math.isinf(res.gap_count)

    def test_empty_seed_always_feasible(self):
        assert feasible(ProblemInstance(g=100, r=7)).feasible

    def test_large_genus_counted_without_listing_gaps(self):
        # <10007,10009> has genus 10006 * 10008 / 2 = 50,070,024; its gaps up to
        # 10006 are 1..10006
        assert feasible(ProblemInstance(x={10007, 10009}, g=1)) == Feasibility(True, 50_070_024)
        res = feasible(ProblemInstance(x={10007, 10009}, g=1, r=10006))
        assert res.gap_count == 50_070_024 - 10_006


class TestOneSolution:
    def test_worked_example(self):
        inst = ProblemInstance(a=(1, 2), b=(4, 1), x={5}, g=6, r=0)
        assert one_solution(inst) == (1, 2, 3, 4, 6, 7)

    def test_infinite_complement(self):
        inst = ProblemInstance(a=(2, 3), b=(4, 2), x={6, 8}, g=9, r=0)
        assert one_solution(inst) == (1, 2, 3, 4, 5, 7, 9, 10, 11)

    def test_with_floor(self):
        inst = ProblemInstance(a=(2, 3), b=(4, 2), x={6, 8}, g=9, r=3)
        assert one_solution(inst) == (4, 5, 7, 9, 10, 11, 13, 15, 17)

    def test_zero_size(self):
        assert one_solution(ProblemInstance(a=(1,), b=(2,), x={3}, g=0, r=0)) == ()

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleError):
            one_solution(ProblemInstance(a=(1, 2), b=(4, 1), x={5}, g=6, r=3))

    def test_empty_seed(self):
        assert one_solution(ProblemInstance(g=3, r=2)) == (3, 4, 5)

    def test_large_genus(self):
        assert one_solution(ProblemInstance(x={10007, 10009}, g=2, r=10005)) == (10006, 10008)
        with pytest.raises(InfeasibleError, match="only 50070024 exist"):
            one_solution(ProblemInstance(x={10007, 10009}, g=50_070_025))

    def test_large_size_self_check_is_cheap(self):
        # the self-check makes one pass over the values outside the answer,
        # with one shift-and-AND of integers of up to top - r bits for each
        # up to top / 2, so a dense answer costs about one pass over it and a
        # sparse one (every other value, top 31993) about 8000 such steps,
        # not a pass per pair; the steps still make the sparse one quadratic
        start = time.perf_counter()
        assert one_solution(ProblemInstance(g=20000)) == tuple(range(1, 20001))
        sol = one_solution(ProblemInstance(a=(2,), b=(1,), x={71, 73}, g=900))
        assert (len(sol), sol[-1]) == (900, 1631)
        sol = one_solution(ProblemInstance(a=(2, 3), b=(4, 2), x={6, 8}, g=16000))
        assert (len(sol), sol[-1]) == (16000, 31993)
        # the bit masks start at r + 1, so an answer far up costs what one
        # near 1 does, not memory linear in r
        assert one_solution(ProblemInstance(g=2, r=10**12)) == (10**12 + 1, 10**12 + 2)
        assert time.perf_counter() - start < 5

    @pytest.mark.skipif(not __debug__, reason="the self-check runs only when assertions are on")
    def test_self_check_guards_the_answer(self, monkeypatch):
        monkeypatch.setattr(
            importlib.import_module("abmonoids.oracle"), "check_conditions", lambda *_: False
        )
        with pytest.raises(AssertionError):
            one_solution(ProblemInstance(g=3))

    @pytest.mark.parametrize(
        "inst",
        [
            ProblemInstance(g=10**12),
            ProblemInstance(a=(2, 3), b=(4, 2), x={6, 8}, g=10**12),
            ProblemInstance(x={10007, 10009}, g=10**6 + 1),
        ],
        ids=["empty-seed", "scaled-seed", "large-genus"],
    )
    def test_feasible_size_above_the_budget_is_refused(self, inst):
        # refused before any value is listed, so the test allocates little
        with pytest.raises(ResourceLimitError, match="1000000-value budget"):
            one_solution(inst)


class TestProblemInstance:
    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="a and b must have the same length, got 2 and 1"):
            ProblemInstance(a=(1, 2), b=(4,), x={5}, g=6)

    def test_zero_entries(self):
        with pytest.raises(ValueError, match="entries of a and b must be positive integers"):
            ProblemInstance(a=(0,), b=(1,), x={5}, g=6)

    def test_x_below_floor(self):
        with pytest.raises(ValueError, match=r"x must be a subset of \{6, 7, \.\.\.\}"):
            ProblemInstance(a=(1,), b=(1,), x={5}, g=6, r=5)

    def test_zero_in_x(self):
        with pytest.raises(ValueError, match=r"x must be a subset of \{1, 2, \.\.\.\}"):
            ProblemInstance(a=(1,), b=(1,), x={0, 5}, g=6)

    def test_negative_g(self):
        with pytest.raises(ValueError, match="g must be non-negative"):
            ProblemInstance(a=(1,), b=(1,), x={5}, g=-1)
        with pytest.raises(ValueError, match="r must be non-negative"):
            ProblemInstance(a=(1,), b=(1,), x={5}, g=6, r=-1)

    def test_normalization(self):
        inst = ProblemInstance(a=[1, 2], b=[4, 1], x=[5], g=6)
        assert inst.a == (1, 2) and inst.b == (4, 1) and inst.x == frozenset({5})


@given(small_instances(min_x=1))
@settings(max_examples=120, deadline=None)
def test_closure_output_is_closed_and_minimal(inst):
    rep = closure(inst.a, inst.b, inst.x)
    d = math.gcd(*inst.x, *inst.b)
    assert rep.d == d
    bs = tuple(v // d for v in inst.b)
    xs = {v // d for v in inst.x}
    gens = rep.base.min_generators
    # the result itself satisfies the affine conditions and contains the seed
    assert is_affine_closed(gens, inst.a, bs)
    assert all(v in rep.base for v in xs)
    # dropping any non-seed generator breaks seed containment or closedness
    for m in gens:
        if m in xs or len(gens) == 1:
            continue
        rest = tuple(g for g in gens if g != m)
        members = saturated_members(rest, max(xs) + 1)
        still_contains_seed = xs <= members
        assert not (still_contains_seed and is_affine_closed(rest, inst.a, bs))


@given(small_instances(min_x=1))
@settings(max_examples=120, deadline=None)
def test_closure_scaling_and_gcd(inst):
    rep = closure(inst.a, inst.b, inst.x)
    d = math.gcd(*inst.x, *inst.b)
    reduced = closure(inst.a, tuple(v // d for v in inst.b), {v // d for v in inst.x})
    assert reduced.d == 1
    assert rep.base == reduced.base
    # gcd of the represented monoid's nonzero elements equals d
    limit = rep.d * (rep.base.frobenius + rep.base.min_generators[0] + 2)
    elements = [v for v in range(1, limit + 1) if rep_contains(rep, v)]
    assert math.gcd(*elements) == rep.d
    # finite complement exactly when no scaling remains
    gap_count = feasible(ProblemInstance(a=inst.a, b=inst.b, x=inst.x)).gap_count
    if rep.d == 1:
        assert gap_count == rep.base.genus
    else:
        assert math.isinf(gap_count)
        assert all(not rep_contains(rep, k * rep.d + 1) for k in range(1, 30))


@given(small_instances(min_x=1), st.integers(2, 4))
@settings(max_examples=80, deadline=None)
def test_closure_commutes_with_scaling_up(inst, k):
    rep = closure(inst.a, inst.b, inst.x)
    scaled = closure(inst.a, tuple(k * v for v in inst.b), {k * v for v in inst.x})
    assert scaled.d == k * rep.d
    assert scaled.base == rep.base


@given(small_instances(min_x=1))
@settings(max_examples=80, deadline=None)
def test_worklist_provenance_chain(inst):
    # every minimal generator is a divided seed value or the affine image of
    # a smaller minimal generator, the lemma the one ascending pass rests on;
    # by induction on the generators, ascending, each lies in every
    # (a, b)-monoid holding the seed, so with containment and closedness the
    # closure is the smallest one
    rep = closure(inst.a, inst.b, inst.x)
    bs = tuple(v // rep.d for v in inst.b)
    xs = {v // rep.d for v in inst.x}
    gens = rep.base.min_generators
    assert all(v in rep.base for v in xs)
    assert is_affine_closed(gens, inst.a, bs)
    for i, n in enumerate(gens):
        assert n not in saturated_members(gens[:i], n), (inst, n)  # minimal, ascending
        images = {ai * p + bi for ai, bi in zip(inst.a, bs) for p in gens[:i]}
        assert n in xs or n in images, (inst, n)


def values_outside_closure(inst: ProblemInstance) -> list[int]:
    """The integers >= r + 1 outside the closure of the seed, ascending, from
    the closure's generators by saturation, on a window that holds every one
    when d == 1 and at least g of them otherwise: by Schur's bound, n1 < ... <
    nk with gcd 1 generate every integer above (n1 - 1)(nk - 1) - 1.  The empty
    seed closes to {0}, outside which lie its g smallest candidates."""
    rep = instance_closure(inst)
    if rep is None:
        return list(range(inst.r + 1, inst.r + 1 + inst.g))
    gens = rep.base.min_generators
    top = gens[0] * gens[-1] + inst.r + inst.g
    members = saturated_members(gens, top)
    return [v for v in range(inst.r + 1, rep.d * top + 1) if v % rep.d or v // rep.d not in members]


@given(small_instances())
@example(ProblemInstance(a=(1,), b=(4,), g=5, r=2))  # empty seed
@example(ProblemInstance(a=(2, 3), b=(4, 2), x={6, 8}, g=9, r=3))  # d == 2
@settings(max_examples=150, deadline=None)
def test_one_solution_agrees_with_feasibility(inst):
    # the answer is exactly the g smallest values >= r + 1 outside the
    # closure, not merely some solution, and the gap count is their number
    outside = values_outside_closure(inst)
    rep, res = instance_closure(inst), feasible(inst)
    if rep is not None and rep.d == 1:
        assert res.gap_count == len(outside)
    if res.feasible:
        sol = one_solution(inst)
        assert sol == tuple(outside[:inst.g])
        # one_solution checks this itself only when assertions are on
        assert check_conditions(sol, inst)
    else:
        assert len(outside) < inst.g
        with pytest.raises(InfeasibleError):
            one_solution(inst)
