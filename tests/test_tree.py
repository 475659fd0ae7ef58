import importlib
import math
import random
import tracemalloc
from collections import Counter
from functools import reduce

import pytest
from hypothesis import assume, given, settings, strategies as st

from abmonoids import (
    ProblemInstance,
    ResourceLimitError,
    SolutionSet,
    check_conditions,
    closure,
    enumerate_levels,
    export_tree,
    feasible,
    from_generators,
    oracle_solve,
    solve,
)
from abmonoids.semigroup import MAX_TABLE_SIZE, ray, remove_generator
from abmonoids.tree import Preimages, admissible, children, generators_after

from conftest import (
    A007323,
    assert_tree_invariants,
    bfs_levels,
    free_tree_reference,
    gaps_above,
    instance_corpus,
    intersect,
    random_instance,
    reference_admissible,
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


def preorder_depths(inst, depth_limit):
    """The depth of each vertex of the tree down to depth_limit, in preorder,
    from the one-vertex rule ``children``."""
    def walk(s, depth):
        yield depth
        if depth < depth_limit:
            for child in children(s, inst):
                yield from walk(child, depth + 1)

    return list(walk(ray(inst.r + 1), 0))


def refusal(run, inst, k):
    """The message, node count and depth of the budget-k refusal of ``run``."""
    with pytest.raises(ResourceLimitError) as exc:
        run(inst, max_nodes=k)
    return str(exc.value), exc.value.node_count, exc.value.depth


def assert_refused(inst, k, depth):
    """``solve`` refuses budget k on vertex k + 1, at ``depth``."""
    msg = f"tree enumeration exceeded {k} nodes at depth {depth}"
    assert refusal(solve, inst, k) == (msg, k + 1, depth), (inst, k)


def level_keys(levels):
    return [{s.min_generators for s in level} for level in levels]


def _label(s):
    return "<" + ",".join(map(str, s.min_generators)) + ">"


class TestVarietyRoot:
    # the root {0, r+1, ->} of the tree is ray(r + 1)
    def test_plain_root_is_naturals(self):
        assert ray(1) == from_generators({1})

    def test_floored_root_is_shifted_ray(self):
        root = ray(4)
        assert root.min_generators == (4, 5, 6, 7)
        assert root.gaps == (1, 2, 3)
        assert root.genus == 3

    def test_fields_match_from_generators(self):
        # == compares only the minimal generators, so compare every field
        for r in range(60):
            root = ray(r + 1)
            assert tuple(root) == tuple(from_generators(range(r + 1, 2 * r + 2))), r
            assert (root.frobenius, root.genus) == (r if r else -1, r), r

    def test_multiplicity_above_the_table_cap_refused(self):
        with pytest.raises(ResourceLimitError, match=f"exceed {MAX_TABLE_SIZE} entries for multiplicity {MAX_TABLE_SIZE + 1}$"):
            solve(ProblemInstance(g=1, r=MAX_TABLE_SIZE))


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
        kids = children(ray(4), SCALED_FLOOR)
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
        # just past it, at that vertex's depth, and a budget of 18 answers
        depths = preorder_depths(WORKED, 20)
        assert len(depths) == 18
        for k in range(18):
            with pytest.raises(ResourceLimitError, match=f"exceeded {k} nodes at depth") as exc:
                enumerate_levels(WORKED, 20, max_nodes=k)
            assert exc.value.node_count == k + 1
            assert exc.value.depth == depths[k]
        assert sum(map(len, enumerate_levels(WORKED, 20, max_nodes=18))) == 18

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError, match="depth_limit must be non-negative"):
            enumerate_levels(WORKED, -1)
        # a depth that is not an int is refused too, not rounded up
        for run, depth in ((enumerate_levels, 1.5), (export_tree, 0.5)):
            with pytest.raises(ValueError, match="^depth_limit must be an integer$"):
                run(WORKED, depth)


@pytest.mark.parametrize("g", [0, 6])
@pytest.mark.parametrize(
    "run",
    [
        lambda inst, budget: solve(inst, max_nodes=budget),
        lambda inst, budget: enumerate_levels(inst, inst.g, max_nodes=budget),
        lambda inst, budget: export_tree(inst, inst.g, max_nodes=budget),
    ],
    ids=["solve", "enumerate_levels", "export_tree"],
)
def test_negative_node_budget_rejected(run, g):
    with pytest.raises(ValueError, match="^max_nodes must be non-negative$"):
        run(WORKED._replace(g=g), -1)
    # a budget that is not an int is refused too, not compared as a fraction
    with pytest.raises(ValueError, match="^max_nodes must be an integer$"):
        run(WORKED._replace(g=g), 2.5)


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
        # the tree down to depth 6 has 16 vertices, the 7 at depths 5 and 6
        # counted but not built; every smaller budget trips on the vertex
        # just past it, a depth-6 leaf for k = 6, 7 and 9
        depths = preorder_depths(WORKED, 6)
        assert depths == [0, 1, 2, 3, 4, 5, 6, 6, 5, 6, 5, 4, 5, 4, 3, 2]
        for k in range(16):
            assert_refused(WORKED, k, depths[k])
        assert solve(WORKED, max_nodes=16) == solve(WORKED)

    def test_budget_at_depth_zero_and_one(self):
        # g = 0: the root is the only vertex and the only solution
        inst = WORKED._replace(g=0)
        assert solve(inst, max_nodes=1) == SolutionSet(((),), 1, False)
        assert_refused(inst, 0, 0)
        # g = 1: the leaves hang off the root, WORKED has one
        inst = WORKED._replace(g=1)
        assert solve(inst, max_nodes=2) == SolutionSet(((1,),), 2, False)
        assert_refused(inst, 1, 1)
        assert_refused(inst, 0, 0)
        free = ProblemInstance(g=1, r=2)  # root <3,4,5>, leaves <4,5,6,7>, <3,5,7>, <3,4>
        assert solve(free) == SolutionSet(((3,), (4,), (5,)), 4, False)
        for k in range(4):
            assert_refused(free, k, min(k, 1))
        # g = 2: depths 1 and 2 are both read off the root
        worked = SolutionSet(((1, 2), (1, 3)), 4, False)  # <1>, <2,3>, <3,4,5>, <2,5>
        free = SolutionSet(((3, 4), (3, 5), (3, 6), (3, 7), (4, 5), (4, 7)), 10, False)
        for inst, want in [(WORKED._replace(g=2), worked), (ProblemInstance(g=2, r=2), free)]:
            assert solve(inst) == want
            depths = preorder_depths(inst, 2)
            assert len(depths) == want.node_count
            for k in range(want.node_count):
                assert_refused(inst, k, depths[k])

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
    assert solve(inst).solutions == oracle_solve(inst)


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
            # every field, so a table the walk failed to restore shows
            levels = [[tuple(s) for s in lv] for lv in enumerate_levels(inst, depth)]
            assert levels == [[tuple(s) for _, s in lv] for lv in bfs_levels(inst, depth)], inst
            nodes, edges = _dot_lines(inst, depth)
            lines = export_tree(inst, depth).splitlines()
            assert lines == ["digraph variety {", *nodes, *edges, "}"], inst


def test_solutions_read_off_the_path_are_the_gaps_above_r():
    # the tree does not depend on g, so one reference walk to depth g + 2
    # checks solve at every size up to g + 2, node counts included
    free = [ProblemInstance(g=g) for g in range(11)]
    for inst in [WORKED, SCALED, SCALED_FLOOR, *instance_corpus(200), *free]:
        levels = bfs_levels(inst, inst.g + 2)
        for g in range(inst.g + 3):
            leaves = levels[g] if len(levels) > g else ()
            nodes = sum(map(len, levels[:g + 1]))
            want = SolutionSet(tuple(gaps_above(s, inst.r) for _, s in leaves), nodes, False)
            assert solve(inst._replace(g=g)) == want, (inst, g)


def test_solve_matches_the_deepest_level_of_the_walk():
    # solve counts the depth-g vertices without building them; the walk
    # behind enumerate_levels builds them, and they must agree on the
    # solutions, the node count and, for every budget below the tree
    # size, the refusal: its message, node count and depth
    def levels(inst, max_nodes):
        return enumerate_levels(inst, inst.g, max_nodes=max_nodes)

    rng = random.Random(3)
    for _ in range(150):
        inst = random_instance(rng)
        tree = enumerate_levels(inst, inst.g)
        leaves = tree[inst.g] if len(tree) > inst.g else []
        total = sum(map(len, tree))
        want = SolutionSet(tuple(gaps_above(s, inst.r) for s in leaves), total, False)
        assert solve(inst) == want, inst
        for k in range(max(total, 41)):
            if k < total:
                got = refusal(solve, inst, k)
                assert got == refusal(levels, inst, k) and got[1] == k + 1, (inst, k)
            else:
                assert solve(inst, max_nodes=k) == want, (inst, k)


def test_deep_refusal_holds_one_frame_per_depth():
    # the first path runs down the spine {0, k, ->} to depth 1000 within
    # the budget; the walk holds one frame per depth, not the pending
    # siblings of every vertex on the path
    tracemalloc.start()
    try:
        got = refusal(solve, ProblemInstance(g=2000), 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == ("tree enumeration exceeded 1000 nodes at depth 1000", 1001, 1000)
    assert peak < 100 * 2**20


def test_deep_walk_refuses_without_recursion():
    # vertex 1501 is the spine at depth 1500; its parent {0, 1500, ->} has
    # 1499 more children, vertices 1502..3000, so vertex 3001 is the next
    # child of {0, 1499, ->}, at depth 1499
    with pytest.raises(ResourceLimitError, match="exceeded 3000 nodes at depth 1499$") as exc:
        enumerate_levels(ProblemInstance(), 1500, max_nodes=3000)
    assert (exc.value.node_count, exc.value.depth) == (3001, 1499)


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
    # Apéry-set preimage test, and when the divide-and-modulo rule without
    # the preimage table keeps m
    for inst in instance_corpus(200):
        for k, level in enumerate(bfs_levels(inst, inst.g + 2)):
            one_up = inst._replace(g=k + 1)
            for _, s in level:
                want = [
                    m
                    for m in s.min_generators
                    if m > s.frobenius and check_conditions(gaps_above(s, inst.r) + (m,), one_up)
                ]
                assert [c.frobenius for c in children(s, inst)] == want, (inst, s)
                assert reference_admissible(s, inst) == want, (inst, s)


def above_frobenius(s):
    """The minimal generators of ``s`` above its Frobenius number."""
    return [m for m in s.min_generators if m > s.frobenius]


def test_preimage_table_entries():
    # (0,) exactly for the seed values; otherwise the values p >= 1 with
    # a_i * p + b_i = m, found forward rather than by division
    for inst in instance_corpus(200):
        table = Preimages(inst)
        for m in range(1, 3 * (inst.r + inst.g) + 2):
            if m in inst.x:
                want = (0,)
            else:
                want = tuple(
                    p for p in range(1, m) if any(a * p + b == m for a, b in zip(inst.a, inst.b))
                )
            assert table[m] == want, (inst, m)
        assert sorted(table) == list(range(1, 3 * (inst.r + inst.g) + 2))


def test_look_ahead_matches_the_built_child():
    # admissible() tests a child from its parent's table, with the removed
    # generator as the Frobenius number; it must agree with the built
    # child's own test, each drawing on its own preimage table
    for inst in instance_corpus(200):
        table = Preimages(inst)  # one per instance, filled as the walk would
        for level in bfs_levels(inst, inst.g + 2):
            for _, s in level:
                for t in children(s, inst):
                    m = t.frobenius
                    want = admissible(above_frobenius(t), t.apery, m, Preimages(inst))
                    after = generators_after(s.min_generators, s.apery, m)
                    assert admissible(after, s.apery, m, table) == want, (inst, s, m)


class TestPruningEdgeCases:
    def test_root_of_the_naturals(self):
        # r = 0: the root is N, n1 = 1, and every positive integer is a
        # member, so any generator with a positive preimage is pruned
        inst = ProblemInstance(a=(1,), b=(1,), g=1)
        table = Preimages(inst)
        assert admissible((1,), [0], -1, table) == [1]
        assert admissible((2, 5, 6), [0], -1, table) == []
        assert solve(inst) == SolutionSet(((1,),), 2, False)
        seeded = inst._replace(x={1})
        assert admissible((1,), [0], -1, Preimages(seeded)) == []
        assert solve(seeded) == SolutionSet((), 1, False)

    def test_seed_value_is_the_new_generator(self):
        # removing 4 from <3,4,5> adds the generator 4 + 3 = 7, a seed value
        # whose one preimage (7 - 3) / 2 = 2 is a gap
        inst = ProblemInstance(a=(2,), b=(3,), x={7}, g=3)
        s = from_generators((3, 4, 5))
        after = generators_after(s.min_generators, s.apery, 4)
        assert after == (5, 7)
        table = Preimages(inst)
        assert (table[7], table[5]) == ((0,), (1,))
        assert admissible(after, s.apery, 4, table) == [5]
        assert [c.frobenius for c in children(remove_generator(s, 4), inst)] == [5]
        unseeded = Preimages(inst._replace(x=()))
        assert admissible(after, s.apery, 4, unseeded) == [5, 7]

    def test_offset_at_or_above_the_generator_gives_no_preimage(self):
        inst = ProblemInstance(a=(2,), b=(9,))
        table = Preimages(inst)
        assert [table[m] for m in (4, 9, 10, 11)] == [(), (), (), (1,)]
        s = ray(4)
        assert admissible(s.min_generators, list(s.apery), s.frobenius, table) == [4, 5, 6, 7]

    def test_constraint_free_table_stores_nothing(self):
        # no maps and no seeds: every generator above f is kept unread
        table = Preimages(ProblemInstance(g=3))
        s = ray(4)
        assert admissible(s.min_generators, list(s.apery), s.frobenius, table) == [4, 5, 6, 7]
        assert table == {}
        assert not Preimages(ProblemInstance(x={9})).free
        assert not Preimages(ProblemInstance(a=(2,), b=(9,))).free

    def test_preimage_equal_to_the_removed_generator(self):
        # removing 3 from <2,3> leaves <2,5>; 5's preimage 5 - 2 = 3 is a
        # member of the parent's table but the child's Frobenius number
        inst = ProblemInstance(a=(1,), b=(2,))
        s = from_generators((2, 3))
        table = Preimages(inst)
        after = generators_after(s.min_generators, s.apery, 3)
        assert (after, table[5]) == ((5,), (3,))
        assert s.contains(3)
        assert admissible(after, s.apery, 3, table) == [5]
        t = remove_generator(s, 3)
        assert admissible(above_frobenius(t), t.apery, 3, table) == [5]


def test_no_table_is_shared_across_instances_or_calls():
    # instances that differ only in X, then only in (a, b), solved back to
    # back: each answer is the reference's, whatever was solved before it
    base = ProblemInstance(a=(1, 3), b=(7, 2), x={9}, g=5, r=2)
    pairs = [
        (base, base._replace(x={4})),
        (base, base._replace(a=(2, 3), b=(4, 2))),
    ]
    for first, second in pairs:
        wants = []
        for inst in (first, second):
            levels = bfs_levels(inst, inst.g)
            leaves = levels[inst.g] if len(levels) > inst.g else ()
            nodes = sum(map(len, levels))
            wants.append(SolutionSet(tuple(gaps_above(s, inst.r) for _, s in leaves), nodes, False))
        assert wants[0] != wants[1]
        for _ in range(2):
            assert solve(first) == wants[0], first
            assert solve(second) == wants[1], second


def test_tree_expansion_goes_through_the_module_names(monkeypatch):
    # the walk keeps one Apéry table in place: it never calls children or
    # remove_generator, and builds a fresh table through the module name
    # ray only for the root and for each removal of the multiplicity, the
    # spine {0, k, ->} with one vertex per depth
    tree_module = importlib.import_module("abmonoids.tree")
    calls = Counter()
    for name in ("children", "remove_generator", "ray"):
        fn = getattr(tree_module, name)

        def counted(*args, _fn=fn, _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(tree_module, name, counted)
    inst = ProblemInstance(g=8)
    # 156 vertices down to genus 8; solve walks to depth 6 and reads the
    # vertices at depths 7 and 8 off depth 6, so it meets the spine at
    # depths 0..6, the other two at depths 0..8
    assert solve(inst).node_count == 156
    assert calls == {"ray": 7}
    calls.clear()
    assert sum(map(len, enumerate_levels(inst, 8))) == 156
    assert calls == {"ray": 9}
    calls.clear()
    assert export_tree(inst, 8).count(";") == 156 + 155
    assert calls == {"ray": 9}
