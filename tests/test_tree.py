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
from abmonoids.semigroup import MAX_TABLE_SIZE, ray
from abmonoids.tree import Preimages, _enter, _ray_kept, _walk, children, remove_generator

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
    reference_children,
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

    @pytest.mark.parametrize("g", [1, 2])
    def test_table_cap_trips_before_the_node_budget(self, g):
        # the walk builds a vertex before it counts it, and solve does the
        # same with the depth-1 ray {0, r+g, ->} it reads off the root at
        # g = 2 without entering it
        inst = ProblemInstance(g=g, r=MAX_TABLE_SIZE + 1 - g)
        with pytest.raises(ResourceLimitError, match=f"exceed {MAX_TABLE_SIZE} entries for multiplicity {MAX_TABLE_SIZE + 1}$"):
            solve(inst, max_nodes=g - 1)


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

    @pytest.mark.parametrize(
        "inst, nodes",
        [
            (ProblemInstance(a=(1,), b=(5,), x={20}, g=10), 196),
            (ProblemInstance(a=(1, 3), b=(7, 2), x={24}, g=9, r=1), 301),
            (ProblemInstance(g=9, r=2), 809),
            (ProblemInstance(a=(2,), b=(1,), x={13}, g=1, r=6), 7),
        ],
    )
    def test_every_budget_trips_on_the_next_vertex_in_preorder(self, inst, nodes):
        # deeper and wider trees than the sweeps above: every budget below
        # the node count trips at the depth ``children`` puts that vertex at
        depths = preorder_depths(inst, inst.g)
        assert len(depths) == nodes
        for k in range(nodes):
            assert_refused(inst, k, depths[k])
        result = solve(inst, max_nodes=nodes)
        assert result == solve(inst)
        assert (result.node_count, len(result.solutions)) == (nodes, depths.count(inst.g))

    def test_free_tree_counts_are_a007323(self):
        # numerical semigroups of genus 0..22 (OEIS A007323); the tree down
        # to depth g holds every semigroup of genus <= g
        for g, count in enumerate(A007323):
            result = solve(ProblemInstance(g=g))
            assert len(result.solutions) == count
            assert list(result.solutions) == sorted(set(result.solutions))
            assert result.node_count == sum(A007323[: g + 1])


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


def _unit_map_instances(count: int, seed: int = 7) -> list[ProblemInstance]:
    """Random instances with two maps of multiplier 1, seeds and r > 0: the
    maps whose images m + b can be freed when m is removed."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        inst = random_instance(rng, max_r=4, max_g=8, max_x_value=30, max_coeff=7)
        if inst.r and inst.x:
            units = (rng.randint(1, 7), rng.randint(1, 7))
            out.append(inst._replace(a=(1, 1) + inst.a, b=units + inst.b))
    return out


def test_walk_visits_each_vertex_with_its_table_path_and_admissible_generators():
    # the walk builds no semigroup value: each vertex it visits must be the
    # one from_generators builds from its generators, table included, its
    # path the gaps above r, and the admissible generators it hands down
    # (inherited from the parent below the root and the rays) those of the
    # divide-and-modulo reference
    for inst in [WORKED, SCALED, SCALED_FLOOR, *instance_corpus(200), *_unit_map_instances(60)]:
        visited = []

        def visit(gens, kept, ap, path):
            s = from_generators(gens)
            assert s == (gens, tuple(ap)), (inst, gens)
            assert tuple(path) == gaps_above(s, inst.r), (inst, gens)
            assert list(kept) == reference_admissible(s, inst), (inst, gens)
            visited.append(gens)

        count = _walk(inst, Preimages(inst), inst.g + 2, max_nodes=10**6, visit=visit)
        assert count == len(visited) == sum(map(len, bfs_levels(inst, inst.g + 2))), inst


def test_unit_map_spine_looks_up_few_preimages(monkeypatch):
    # a=(1,), b=(1,) with no seeds: the tree is the path of rays {0, k, ->},
    # each with k generators above its Frobenius number, of which only k can
    # be kept (k + t has the member preimage k + t - 1); the closed form
    # reads that off k, so the run fills its preimage table with at most a
    # couple of entries per ray, where testing every generator would fill
    # about g^2 / 2
    tables = []

    class Recording(Preimages):
        def __init__(self, inst):
            super().__init__(inst)
            tables.append(self)

    monkeypatch.setattr(importlib.import_module("abmonoids.tree"), "Preimages", Recording)
    g = 2000
    want = SolutionSet((tuple(range(1, g + 1)),), g + 1, False)
    assert solve(ProblemInstance(a=(1,), b=(1,), g=g)) == want
    assert len(tables) == 1 and len(tables[0]) <= 2 * (g + 1)


def test_ray_closed_form_matches_the_reference():
    # every ray {0, k, ->} holding X, k from r + 1 to min X (or r + 40):
    # its admissible generators by closed form are the reference's
    for inst in [*instance_corpus(200), *_unit_map_instances(60)]:
        pre = Preimages(inst)
        for k in range(inst.r + 1, min(inst.x, default=inst.r + 40) + 1):
            assert _ray_kept(k, pre) == reference_admissible(ray(k), inst), (inst, k)


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

    # pinned: g = 1 (the root's leaves), g = 2 (S \ {n1} of the root is the
    # ray {0, r+2, ->}, read off it), and the seed 7 as a depth-g candidate:
    # <3,4,5> \ {4} = <3,5,7> is at depth 3
    pinned = [ProblemInstance(g=g, r=k) for g in (1, 2) for k in range(5)]
    pinned += [WORKED._replace(g=1), WORKED._replace(g=2), ProblemInstance(a=(2,), b=(3,), x={7}, g=4)]
    rng = random.Random(3)
    for inst in pinned + [random_instance(rng) for _ in range(150)]:
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


@pytest.mark.parametrize(
    "inst, nodes, want",
    [
        (ProblemInstance(g=100000), 800, (801, 800)),
        (ProblemInstance(a=(2,), b=(1,), g=100000), 800, (801, 800)),
        (ProblemInstance(a=(1,), b=(1,), g=800), 10**6, 801),
    ],
)
def test_spine_of_rays_holds_memory_linear_in_its_depth(inst, nodes, want):
    # the first path runs down the spine {0, k, ->} to depth 800, refused on
    # its budget or reaching the one solution; each ray on the path drops its
    # k generators, its table and its admissible list while its ray child is
    # walked, so the peak stays under 1 KB per level.  Holding them, the
    # tracemalloc peak was 24-27 MB (CPython 3.11)
    tracemalloc.start()
    try:
        try:
            got = solve(inst, max_nodes=nodes).node_count
        except ResourceLimitError as exc:
            got = (exc.node_count, exc.depth)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak <= 800 * 1024, peak


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


def test_a_vertex_is_live_iff_its_leftmost_descent_reaches_depth_g():
    # a vertex is live when some depth-g vertex lies below it; on the whole
    # reference tree, it is live exactly when always taking the first child
    # reaches depth g, and no live child follows a dead sibling
    extra = [
        ProblemInstance(g=12),
        ProblemInstance(a=(1, 3), b=(7, 2), x={24}, g=12),
        ProblemInstance(a=(1,), b=(5,), x={30}, g=14),
    ]
    dead = 0
    for inst in [*instance_corpus(200), *extra]:
        levels = bfs_levels(inst, inst.g)
        kids = {}
        for level in levels[1:]:
            for parent, s in level:
                kids.setdefault(parent, []).append(s)
        live, reach = {}, {}
        for depth in reversed(range(len(levels))):
            for _, s in levels[depth]:
                below = kids.get(s, [])
                live[s] = depth == inst.g or any(live[c] for c in below)
                reach[s] = reach[below[0]] if below else depth
        for level in levels:
            for _, s in level:
                assert live[s] == (reach[s] == inst.g), (inst, s)
                flags = [live[c] for c in kids.get(s, [])]
                assert flags == sorted(flags, reverse=True), (inst, s)
                dead += not live[s]
    assert dead > 1000


# the reference trees, each to depth g + 2, of the two facts and the child rule below
FACT_TREES = [
    *instance_corpus(200),
    ProblemInstance(g=12),
    ProblemInstance(a=(1, 3), b=(7, 2), x={48}, g=14),
    ProblemInstance(a=(1,), b=(5,), x={30}, g=14),
]


def test_every_child_but_the_last_keeps_an_admissible_generator():
    """Three facts that bound any cut of the walk.

    (a) Let S have admissible generators m_1 < ... < m_k.  Every child
    S \\ {m_i} with i < k has m_{i+1} as an admissible generator: m_{i+1} is
    above its Frobenius number m_i; it is a member, and still a minimal
    generator, since S \\ {m_i} ⊂ S; it is no seed value; and none of its
    preimages is a positive member of S \\ {m_i}, since none is one of S.
    (b) So a vertex at depth d with k admissible generators has a leftmost
    descent to depth >= d + k, by induction on k: its first child has at
    least k - 1.  Capped at the walk's depth, as the tree is cut there.
    (c) On each later sibling the leftmost descent ends at a smaller depth.
    Let K(S) be the smallest (a, b)-monoid holding X and the members of S
    up to its Frobenius number f; every descendant of S contains K(S), and
    the leftmost descent from S, at depth d, ends at depth
    D(S) = d + #((f, oo) \\ K(S)).  Take siblings c1 = S \\ {m_i} and
    c2 = S \\ {m_{i+1}}.  By (a), m_{i+1} can be removed from c1, so it is
    not in K(c1); it lies in c1's window (m_i, oo) but not in c2's window
    (m_{i+1}, oo), which lies inside c1's; and K(c2) contains K(c1), since
    c2 holds every member of c1 up to m_i.  So D(c2) <= D(c1) - 1.  A
    descent that ends above the cut is not cut, so when c1's ends above
    it, c2's ends above c1's.

    Hence below a depth-(g - 2) vertex only the last child can have no leaf.
    """
    checked = 0
    for inst in FACT_TREES:
        depth_limit = inst.g + 2
        levels = bfs_levels(inst, depth_limit)
        kids = {}
        for level in levels[1:]:
            for parent, s in level:
                kids.setdefault(parent, []).append(s)
        reach = {}
        for depth in reversed(range(len(levels))):
            for _, s in levels[depth]:
                below = kids.get(s, [])
                reach[s] = reach[below[0]] if below else depth
                # the vertices at depth_limit have no children listed, and pass
                for c, nxt in zip(below, below[1:]):
                    assert nxt.frobenius in reference_admissible(c, inst), (inst, s, c)
                    assert reach[c] == depth_limit or reach[nxt] < reach[c], (inst, s, c)
                assert reach[s] >= min(depth + len(below), depth_limit), (inst, s)
                checked += 1
    assert checked == 13971


def test_enter_matches_a_fresh_construction_of_each_child():
    # the child rule against from_generators, on every vertex S of the
    # reference trees and every generator m above its Frobenius number: S's
    # generators without m, plus m + n1, generate S \\ {m}, since any other new
    # generator m + t, t > n1 a member, splits as n1 + (m + t - n1); only
    # {0, n1, ->} loses n1, leaving the ray {0, n1 + 1, ->}.  An admissible m
    # is entered as the walk enters it, with S's admissible generators, and
    # the child's must be the divide-and-modulo reference's; any other m as
    # remove_generator enters it, alone and with no constraints
    unconstrained = Preimages(ProblemInstance())
    for inst in [*FACT_TREES, *_unit_map_instances(60)]:
        pre = Preimages(inst)
        for level in bfs_levels(inst, inst.g + 2):
            for _, s in level:
                gens, n1 = s.min_generators, s.min_generators[0]
                kept = reference_admissible(s, inst)
                for m in above_frobenius(s):
                    ap = list(s.apery)
                    if m in kept:
                        j, above, table, admissible = _enter(gens, ap, kept, kept.index(m), pre)
                    else:
                        j, above, table, _ = _enter(gens, ap, [m], 0, unconstrained)
                    if m == n1:
                        want = ray(m + 1)
                    else:
                        want = from_generators([n for n in gens if n != m] + [m + n1])
                        assert table is ap, (inst, s, m)  # moved in place
                    assert (gens[:j] + above, tuple(table)) == want, (inst, s, m)
                    assert above == tuple(above_frobenius(want)), (inst, s, m)
                    if m in kept:
                        assert list(admissible) == reference_admissible(want, inst), (inst, s, m)
                    if m != n1:
                        ap[m % n1] = m  # the walk's undo restores S's table
                    assert tuple(ap) == s.apery, (inst, s, m)
                assert unconstrained == {}, (inst, s)  # never filled


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


def test_children_match_the_reference_on_each_built_child():
    # on every child built by remove_generator, admissible or not, children
    # must keep the generators of the divide-and-modulo rule, and on each
    # admissible one, a vertex, list the vertices the saturation reference
    # builds
    for inst in instance_corpus(200):
        for level in bfs_levels(inst, inst.g + 2):
            for _, s in level:
                kept = reference_admissible(s, inst)
                for m in above_frobenius(s):
                    t = remove_generator(s, m)
                    got = children(t, inst)
                    assert [c.frobenius for c in got] == reference_admissible(t, inst), (inst, s, m)
                    if m in kept:
                        assert got == reference_children(t, inst), (inst, s, m)


class TestPruningEdgeCases:
    def test_root_of_the_naturals(self):
        # r = 0: the root is N, n1 = 1, and every positive integer is a
        # member, so any generator with a positive preimage is pruned
        inst = ProblemInstance(a=(1,), b=(1,), g=1)
        table = Preimages(inst)
        assert _ray_kept(1, table) == [1]
        # so each ray {0, k, ->} keeps k alone: k + t has the preimage k + t - 1
        assert [_ray_kept(k, table) for k in (2, 5, 6)] == [[2], [5], [6]]
        assert solve(inst) == SolutionSet(((1,),), 2, False)
        seeded = inst._replace(x={1})
        assert _ray_kept(1, Preimages(seeded)) == []
        assert solve(seeded) == SolutionSet((), 1, False)

    def test_seed_value_is_the_new_generator(self):
        # removing 4 from <3,4,5> adds the generator 4 + 3 = 7, a seed value
        # whose one preimage (7 - 3) / 2 = 2 is a gap
        inst = ProblemInstance(a=(2,), b=(3,), x={7}, g=3)
        t = remove_generator(from_generators((3, 4, 5)), 4)
        assert above_frobenius(t) == [5, 7]
        table = Preimages(inst)
        assert (table[7], table[5]) == ((0,), (1,))
        assert [c.frobenius for c in children(t, inst)] == [5]
        assert [c.frobenius for c in children(t, inst._replace(x=()))] == [5, 7]

    def test_offset_at_or_above_the_generator_gives_no_preimage(self):
        inst = ProblemInstance(a=(2,), b=(9,))
        table = Preimages(inst)
        assert [table[m] for m in (4, 9, 10, 11)] == [(), (), (), (1,)]
        assert _ray_kept(4, table) == [4, 5, 6, 7]
        assert [c.frobenius for c in children(ray(4), inst)] == [4, 5, 6, 7]

    def test_constraint_free_table_stores_nothing(self, monkeypatch):
        # no maps and no seeds: the walk and solve keep every generator
        # above f without a lookup, so their tables stay empty
        tables = []

        class Recording(Preimages):
            def __init__(self, inst):
                super().__init__(inst)
                tables.append(self)

        monkeypatch.setattr(importlib.import_module("abmonoids.tree"), "Preimages", Recording)
        assert solve(ProblemInstance(g=8)).node_count == 156
        assert len(enumerate_levels(ProblemInstance(r=2), 5)) == 6
        assert len(tables) == 2 and all(t.free and t == {} for t in tables)
        # the closed form keeps a ray's generators without a lookup too
        table = Preimages(ProblemInstance(g=3))
        assert _ray_kept(4, table) == [4, 5, 6, 7] and table == {}
        assert not Preimages(ProblemInstance(x={9})).free
        assert not Preimages(ProblemInstance(a=(2,), b=(9,))).free
        # remove_generator enters each child with one module-level
        # constraint-free table, which no call fills
        assert remove_generator(from_generators((3, 4, 5)), 4) == from_generators((3, 5, 7))
        assert remove_generator(ray(4), 4) == ray(5)
        assert importlib.import_module("abmonoids.tree")._FREE == {}

    def test_preimage_equal_to_the_removed_generator(self):
        # removing 3 from <2,3> leaves <2,5>; 5's preimage 5 - 2 = 3 is a
        # member of the parent but the child's Frobenius number, a gap of
        # the child's own table
        inst = ProblemInstance(a=(1,), b=(2,))
        s = from_generators((2, 3))
        t = remove_generator(s, 3)
        table = Preimages(inst)
        assert (above_frobenius(t), table[5]) == ([5], (3,))
        assert 3 in s and 3 not in t
        assert [c.frobenius for c in children(t, inst)] == [5]


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


def _count_tree_calls(monkeypatch, names):
    """Count the calls made through the named functions of ``abmonoids.tree``."""
    tree_module = importlib.import_module("abmonoids.tree")
    calls = Counter()
    for name in names:
        fn = getattr(tree_module, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(tree_module, name, counted)
    return calls


def test_tree_expansion_goes_through_the_module_names(monkeypatch):
    # the walk keeps one Apéry table in place: it never calls children or
    # remove_generator, and builds a fresh table through the module name
    # ray only for the root, for each removal of the multiplicity, the
    # spine {0, k, ->} with one vertex per depth, and for each ray rebuilt
    # on the way back from its ray child, which it dropped meanwhile, when
    # it has a next child
    calls = _count_tree_calls(monkeypatch, ("children", "remove_generator", "ray"))
    inst = ProblemInstance(g=8)
    # 156 vertices down to genus 8; the ray {0, k, ->} at depth k - 1 has the
    # k children k..2k - 1, so the root {0, 1, ->} has one and is not
    # rebuilt.  solve walks to depth 6 and reads the depth-7 and depth-8
    # vertices off it, so it meets the spine at depths 0..7 and rebuilds the
    # 5 rays at depths 1..5: 8 + 5 calls; the other two walk to depth 8,
    # meet the spine at depths 0..8 and rebuild the 7 rays at depths 1..7:
    # 9 + 7 calls
    assert solve(inst).node_count == 156
    assert calls == {"ray": 13}
    calls.clear()
    assert sum(map(len, enumerate_levels(inst, 8))) == 156
    assert calls == {"ray": 16}
    calls.clear()
    assert export_tree(inst, 8).count(";") == 156 + 155
    assert calls == {"ray": 16}


@pytest.mark.parametrize("g", [10, 1000])
def test_unit_map_spine_builds_each_ray_once(monkeypatch, g):
    # a=(1,), b=(1,): the tree is the path of rays {0, k, ->}, each with the
    # one child {0, k + 1, ->}, so no ray is rebuilt on the way back: the
    # root, then the ray child of each vertex down to depth g - 2, walked or
    # read, is g calls
    calls = _count_tree_calls(monkeypatch, ("ray",))
    assert solve(ProblemInstance(a=(1,), b=(1,), g=g)).node_count == g + 1
    assert calls == {"ray": g}


def test_solve_answers_genus_zero_without_building_the_root(monkeypatch):
    # the root {0, r+1, ->} of this instance is over the table cap, yet its
    # one solution, the empty set, needs no table: a walk would build the
    # root and refuse an instance that fits
    calls = _count_tree_calls(monkeypatch, ("ray", "_enter", "_walk"))
    result = solve(ProblemInstance(g=0, r=MAX_TABLE_SIZE + 1))
    assert result == SolutionSet(((),), 1, False)
    assert calls == {}


def test_solve_reads_genus_one_off_the_root_alone(monkeypatch):
    # the leaves of the root {0, r+1, ->} are its r + 1 generators, read off
    # one ray in time linear in r.  Walking to depth 1 instead enters every
    # leaf, an O(r) table edit each, so it is quadratic: enumerate_levels of
    # the free tree to depth 1 took 0.26, 1.03 and 4.6 s at r = 2,000, 4,000
    # and 8,000, where solve at g = 1 took 0.9-1.9 ms (CPython 3.11, 2 vCPUs)
    calls = _count_tree_calls(monkeypatch, ("ray", "_enter", "_walk"))
    result = solve(ProblemInstance(g=1, r=50))
    assert result.solutions == tuple((v,) for v in range(51, 102))
    assert (len(result.solutions), result.node_count) == (51, 52)
    assert calls == {"ray": 1}
