import importlib
import math
import random
from collections import Counter
from dataclasses import replace
from functools import reduce

import pytest
from hypothesis import assume, given, settings, strategies as st

from abmonoids import (
    ProblemInstance,
    ResourceLimitError,
    check_conditions,
    children,
    closure,
    enumerate_levels,
    export_tree,
    feasible,
    from_generators,
    oracle_solve,
    solve,
    variety_root,
)

from conftest import (
    A007323,
    assert_tree_invariants,
    bfs_levels,
    free_tree_reference,
    gaps_above,
    instance_corpus,
    intersect,
    random_instance,
)

WORKED = ProblemInstance(a=(1, 2), b=(4, 1), x={5}, g=6, r=0)
SCALED = ProblemInstance(a=(2, 3), b=(4, 2), x={6, 8}, g=4, r=0)
SCALED_FLOOR = ProblemInstance(a=(2, 3), b=(4, 2), x={6, 8}, g=4, r=3)

# breadth-first level contents of the finite tree for WORKED, as generator sets
WORKED_LEVELS = [
    {(1,)},
    {(2, 3)},
    {(3, 4, 5), (2, 5)},
    {(4, 5, 6, 7), (3, 5, 7)},
    {(5, 6, 7, 8, 9), (4, 5, 7), (4, 5, 6)},
    {(5, 7, 8, 9, 11), (5, 6, 8, 9), (5, 6, 7, 9), (4, 5, 11)},
    {(5, 8, 9, 11, 12), (5, 7, 9, 11, 13), (5, 6, 9, 13)},
    {(5, 9, 11, 12, 13)},
    {(5, 9, 11, 13, 17)},
]

SCALED_LEVELS = [
    {(1,)},
    {(2, 3)},
    {(3, 4, 5), (2, 5)},
    {(4, 5, 6, 7), (3, 5, 7), (3, 4), (2, 7)},
    {(5, 6, 7, 8, 9), (4, 6, 7, 9), (4, 5, 6), (3, 7, 8), (3, 5), (2, 9)},
]

SCALED_FLOOR_LEVELS = [
    {(4, 5, 6, 7)},
    {(5, 6, 7, 8, 9), (4, 6, 7, 9), (4, 5, 6)},
    {(6, 7, 8, 9, 10, 11), (5, 6, 8, 9), (5, 6, 7, 8), (4, 6, 9, 11), (4, 6, 7)},
    {
        (6, 8, 9, 10, 11, 13),
        (6, 7, 8, 10, 11),
        (6, 7, 8, 9, 11),
        (6, 7, 8, 9, 10),
        (5, 6, 8),
        (4, 6, 11, 13),
        (4, 6, 9),
    },
    {
        (6, 8, 10, 11, 13, 15),
        (6, 8, 9, 11, 13),
        (6, 8, 9, 10, 13),
        (6, 8, 9, 10, 11),
        (6, 7, 8, 11),
        (6, 7, 8, 10),
        (6, 7, 8, 9),
        (4, 6, 13, 15),
        (4, 6, 11),
    },
]


def level_keys(levels):
    return [{s.min_generators for s in level} for level in levels]


def _label(s):
    return "<" + ",".join(map(str, s.min_generators)) + ">"


class TestVarietyRoot:
    def test_plain_root_is_naturals(self):
        assert variety_root(0) == from_generators({1})

    def test_floored_root_is_shifted_ray(self):
        root = variety_root(3)
        assert root.min_generators == (4, 5, 6, 7)
        assert root.gaps == (1, 2, 3)
        assert root.genus == 3


class TestChildren:
    def test_two_children(self):
        s = from_generators({5, 7, 8, 9, 11})
        assert children(s, WORKED) == [
            from_generators({5, 8, 9, 11, 12}),
            from_generators({5, 7, 9, 11, 13}),
        ]

    def test_root_child(self):
        assert children(from_generators({1}), WORKED) == [from_generators({2, 3})]

    def test_leaf(self):
        assert children(from_generators({5, 9, 11, 13, 17}), WORKED) == []

    def test_forbidden_value_blocks_removal(self):
        # <2,5> could only shed 5, which is forbidden
        assert children(from_generators({2, 5}), WORKED) == []

    def test_ascending_by_removed_generator(self):
        kids = children(variety_root(3), SCALED_FLOOR)
        assert [k.frobenius for k in kids] == [4, 5, 7]


class TestEnumerate:
    def test_worked_tree_exactly(self):
        levels = enumerate_levels(WORKED, 20)
        assert level_keys(levels) == WORKED_LEVELS
        assert sum(len(level) for level in levels) == 18
        assert_tree_invariants(levels, WORKED)

    def test_depth_zero(self):
        levels = enumerate_levels(WORKED, 0)
        assert len(levels) == 1
        assert levels == [[from_generators({1})]]

    def test_scaled_tree_levels(self):
        levels = enumerate_levels(SCALED, 4)
        assert [len(level) for level in levels] == [1, 1, 2, 4, 6]
        assert level_keys(levels) == SCALED_LEVELS
        assert_tree_invariants(levels, SCALED)

    def test_floored_tree_levels(self):
        levels = enumerate_levels(SCALED_FLOOR, 4)
        assert [len(level) for level in levels] == [1, 3, 5, 7, 9]
        assert level_keys(levels) == SCALED_FLOOR_LEVELS
        assert_tree_invariants(levels, SCALED_FLOOR)

    def test_floored_subtree_of_worked_instance(self):
        inst = ProblemInstance(a=(1, 2), b=(4, 1), x={5}, g=0, r=3)
        levels = enumerate_levels(inst, 6)
        assert [len(level) for level in levels] == [1, 3, 4, 3, 1, 1]
        assert sum(len(level) for level in levels) == 13
        assert level_keys(levels) == [
            {(4, 5, 6, 7)},
            {(5, 6, 7, 8, 9), (4, 5, 7), (4, 5, 6)},
            {(5, 7, 8, 9, 11), (5, 6, 8, 9), (5, 6, 7, 9), (4, 5, 11)},
            {(5, 8, 9, 11, 12), (5, 7, 9, 11, 13), (5, 6, 9, 13)},
            {(5, 9, 11, 12, 13)},
            {(5, 9, 11, 13, 17)},
        ]
        assert_tree_invariants(levels, inst)

    def test_parent_of_corrected_vertex(self):
        # <5,6,9,13> hangs below <5,6,8,9>: its largest gap is 8
        edges = [ln for ln in export_tree(WORKED, 6).splitlines() if '" -> "<5,6,9,13>"' in ln]
        assert edges == ['  "<5,6,8,9>" -> "<5,6,9,13>";']

    def test_node_budget(self):
        # WORKED has 18 vertices: every smaller budget trips on the vertex
        # just past it, and a budget of 18 answers
        for k in range(18):
            with pytest.raises(ResourceLimitError, match=f"exceeded {k} nodes at depth") as exc:
                enumerate_levels(WORKED, 20, max_nodes=k)
            assert exc.value.node_count == k + 1
        assert sum(map(len, enumerate_levels(WORKED, 20, max_nodes=18))) == 18

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError, match="depth_limit must be non-negative"):
            enumerate_levels(WORKED, -1)


class TestSolve:
    def test_worked_solutions(self):
        result = solve(WORKED)
        assert result.solutions == (
            (1, 2, 3, 4, 6, 7),
            (1, 2, 3, 4, 6, 8),
            (1, 2, 3, 4, 7, 8),
        )
        assert result.node_count == 16
        assert not result.truncated

    def test_scaled_solutions(self):
        assert solve(SCALED).solutions == (
            (1, 2, 3, 4),
            (1, 2, 3, 5),
            (1, 2, 3, 7),
            (1, 2, 4, 5),
            (1, 2, 4, 7),
            (1, 3, 5, 7),
        )

    def test_floored_solutions(self):
        assert solve(SCALED_FLOOR).solutions == (
            (4, 5, 7, 9),
            (4, 5, 7, 10),
            (4, 5, 7, 11),
            (4, 5, 7, 13),
            (4, 5, 9, 10),
            (4, 5, 9, 11),
            (4, 5, 10, 11),
            (5, 7, 9, 11),
            (5, 7, 9, 13),
        )

    def test_infeasible_gives_empty(self):
        result = solve(ProblemInstance(a=(1, 2), b=(4, 1), x={5}, g=6, r=3))
        assert result.solutions == ()
        assert not result.truncated

    def test_zero_size_gives_empty_set_solution(self):
        assert solve(ProblemInstance(a=(1,), b=(2,), x={3}, g=0)).solutions == ((),)

    def test_truncation_discards_partials(self):
        result = solve(WORKED, max_nodes=3)
        assert result.truncated
        assert result.solutions == ()
        # the tree down to depth 6 has 16 vertices
        assert not solve(WORKED, max_nodes=16).truncated
        result = solve(WORKED, max_nodes=15)
        assert result.truncated and result.node_count == 16

    def test_free_tree_counts_are_a007323(self):
        # numerical semigroups of genus 0..15 (OEIS A007323); the tree down
        # to depth g holds every semigroup of genus <= g
        a007323 = A007323[:16]
        for g, count in enumerate(a007323):
            result = solve(ProblemInstance(g=g))
            assert len(result.solutions) == count
            assert list(result.solutions) == sorted(set(result.solutions))
            assert result.node_count == sum(a007323[: g + 1])


class TestExportTree:
    def test_depth_one_exact(self):
        assert export_tree(WORKED, 1) == (
            'digraph variety {\n'
            '  "<1>";\n'
            '  "<2,3>";\n'
            '  "<1>" -> "<2,3>";\n'
            '}\n'
        )

    def test_depth_zero(self):
        assert export_tree(WORKED, 0) == 'digraph variety {\n  "<1>";\n}\n'

    def test_floored_subtree_node_count(self):
        inst = ProblemInstance(a=(1, 2), b=(4, 1), x={5}, g=0, r=3)
        dot = export_tree(inst, 6)
        node_lines = [ln for ln in dot.splitlines() if '";' in ln and "->" not in ln]
        edge_lines = [ln for ln in dot.splitlines() if "->" in ln]
        assert len(node_lines) == 13
        assert len(edge_lines) == 12
        assert node_lines[0] == '  "<4,5,6,7>";'

    def test_nodes_in_breadth_first_order(self):
        dot = export_tree(WORKED, 20)
        node_lines = [ln for ln in dot.splitlines() if '";' in ln and "->" not in ln]
        assert len(node_lines) == 18
        flat = [s for level in bfs_levels(WORKED, 20) for _, s in level]
        assert node_lines == [f'  "{_label(s)}";' for s in flat]

    def test_budget_propagates(self):
        with pytest.raises(ResourceLimitError, match="exceeded 4 nodes at depth 4"):
            export_tree(WORKED, 20, max_nodes=4)


class TestExhaustion:
    def test_finite_tree_bottoms_out_at_the_closure(self):
        levels = enumerate_levels(WORKED, 50)
        rep = closure(WORKED.a, WORKED.b, WORKED.x)
        assert levels[-1] == [rep.base]
        everything = [s for level in levels for s in level]
        assert reduce(intersect, everything) == rep.base


@st.composite
def small_instances(draw):
    n = draw(st.integers(0, 3))
    a = tuple(draw(st.integers(1, 5)) for _ in range(n))
    b = tuple(draw(st.integers(1, 5)) for _ in range(n))
    r = draw(st.integers(0, 3))
    x = draw(st.sets(st.integers(r + 1, 12), max_size=3))
    g = draw(st.integers(0, 5))
    return ProblemInstance(a=a, b=b, x=frozenset(x), g=g, r=r)


@given(small_instances())
@settings(max_examples=60, deadline=None)
def test_solve_matches_oracle(inst):
    assert solve(inst).solutions == oracle_solve(inst).solutions


@given(small_instances())
@settings(max_examples=60, deadline=None)
def test_solutions_exist_iff_feasible(inst):
    result = solve(inst)
    assert bool(result.solutions) == feasible(inst).feasible
    assert all(len(sol) == inst.g for sol in result.solutions)
    assert list(result.solutions) == sorted(set(result.solutions))


@given(small_instances())
@settings(max_examples=40, deadline=None)
def test_enumerated_trees_satisfy_invariants(inst):
    levels = enumerate_levels(inst, inst.g)
    assert_tree_invariants(levels, inst)


@st.composite
def coprime_seeded_instances(draw):
    """Instances with non-empty X and gcd(X + b) == 1, so the closure is a
    numerical semigroup and the tree is finite."""
    inst = draw(small_instances())
    x = set(inst.x) or {draw(st.integers(inst.r + 1, 12))}
    if math.gcd(*x, *inst.b) > 1:
        x.add(min(x) + 1)  # not in x already, and coprime to min(x)
    return ProblemInstance(a=inst.a, b=inst.b, x=frozenset(x), g=inst.g, r=inst.r)


@given(coprime_seeded_instances())
@settings(max_examples=40, deadline=None)
def test_finite_varieties_exhaust_to_the_closure(inst):
    assert math.gcd(*inst.x, *inst.b) == 1
    rep = closure(inst.a, inst.b, inst.x)
    assume(rep.base.genus <= 8)
    depth = rep.base.genus - inst.r
    levels = enumerate_levels(inst, depth + 1)
    assert len(levels) == depth + 1  # nothing deeper than the closure itself
    assert levels[-1] == levels[depth]
    assert levels[depth] == [rep.base]
    everything = [s for level in levels for s in level]
    assert reduce(intersect, everything) == rep.base


def test_corpus_trees_satisfy_invariants():
    for inst in instance_corpus(40):
        assert_tree_invariants(enumerate_levels(inst, inst.g), inst)


def _dot_lines(inst, depth):
    """Node and edge lines of the DOT text, built from the reference levels."""
    pairs = [pair for level in bfs_levels(inst, depth) for pair in level]
    nodes = [f'  "{_label(s)}";' for _, s in pairs]
    edges = [f'  "{_label(p)}" -> "{_label(s)}";' for p, s in pairs if p is not None]
    return nodes, edges


def test_walk_matches_breadth_first_reference():
    for inst in [WORKED, SCALED, SCALED_FLOOR, *instance_corpus(200)]:
        for depth in (inst.g, inst.g + 2):
            reference = bfs_levels(inst, depth)
            assert enumerate_levels(inst, depth) == [[s for _, s in lv] for lv in reference], inst
            nodes, edges = _dot_lines(inst, depth)
            lines = export_tree(inst, depth).splitlines()
            assert lines == ["digraph variety {", *nodes, *edges, "}"], inst


def test_solutions_read_off_the_path_are_the_gaps_above_r():
    free = [ProblemInstance(g=g) for g in range(13)]
    for inst in [WORKED, SCALED, SCALED_FLOOR, *instance_corpus(200), *free]:
        levels = bfs_levels(inst, inst.g)
        leaves = levels[inst.g] if len(levels) > inst.g else []
        assert solve(inst).solutions == tuple(gaps_above(s, inst.r) for _, s in leaves), inst


def test_solve_matches_the_free_tree_reference():
    # beyond the brute-force bound r + g <= 9: the reference takes every
    # semigroup of genus r + g from the unconstrained tree, without pruning
    rng = random.Random(5)
    checked = 0
    for _ in range(150):
        inst = random_instance(rng, max_r=6, max_g=14, max_x_value=30, max_x_size=4)
        if inst.r + inst.g <= 18:
            assert solve(inst).solutions == free_tree_reference(inst), inst
            checked += 1
    assert checked > 100


def test_children_match_the_defining_conditions():
    # S \ {m} is a vertex exactly when the gaps of S above r plus m solve
    # the problem one size up, checked by brute force instead of the
    # Apéry-set preimage test
    for inst in instance_corpus(200):
        for k, level in enumerate(bfs_levels(inst, inst.g + 2)):
            one_up = replace(inst, g=k + 1)
            for _, s in level:
                want = [
                    m
                    for m in s.min_generators
                    if m > s.frobenius and check_conditions(gaps_above(s, inst.r) + (m,), one_up)
                ]
                assert [c.frobenius for c in children(s, inst)] == want, (inst, s)


def test_tree_expansion_goes_through_the_module_names(monkeypatch):
    # bench/tracing.py times the tree layers by rebinding these names in
    # abmonoids.tree; an engine that bypasses them would report no spans
    tree_module = importlib.import_module("abmonoids.tree")
    calls = Counter()
    for name in ("children", "remove_generator"):
        fn = getattr(tree_module, name)

        def counted(*args, _fn=fn, _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(tree_module, name, counted)
    result = solve(ProblemInstance(g=8))
    # 156 vertices down to genus 8, 67 of them at depth 8 and not expanded
    assert result.node_count == 156
    assert calls == {"children": 156 - 67, "remove_generator": 155}
