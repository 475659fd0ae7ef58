"""Acceptance suite: one test per criterion, exact integer expectations.

Each test prints a single ``criterion N (...): PASS`` or ``FAIL`` line
(run with ``pytest -s`` to see them on success).  Timing criteria take
the best of several repeats to dodge interpreter warm-up noise.
"""

import functools
import time
from math import gcd, inf

from abmonoids import (
    ProblemInstance,
    children,
    closure,
    enumerate_levels,
    feasible,
    from_generators,
    instance_closure,
    one_solution,
    oracle_solve,
    solve,
)

from conftest import assert_tree_invariants, instance_corpus

WORKED = ProblemInstance(a=(1, 2), b=(4, 1), x={5}, g=6, r=0)
SCALED = ProblemInstance(a=(2, 3), b=(4, 2), x={6, 8}, g=4, r=0)
SCALED_FLOOR = ProblemInstance(a=(2, 3), b=(4, 2), x={6, 8}, g=4, r=3)


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} ({title}): FAIL")
                raise
            print(f"criterion {number} ({title}): PASS")

        return wrapper

    return decorate


def best_time(fn, repeats=5):
    best = inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@criterion(1, "closure golden value")
def test_criterion_1():
    rep = closure((1, 2), (4, 1), {5})
    assert rep.d == 1
    assert rep.base.min_generators == (5, 9, 11, 13, 17)
    assert rep.base.gaps == (1, 2, 3, 4, 6, 7, 8, 12)
    assert best_time(lambda: closure((1, 2), (4, 1), {5})) < 1e-3


@criterion(2, "closure with gcd reduction")
def test_criterion_2():
    rep = closure((2, 3), (4, 2), {6, 8})
    assert rep.d == 2
    assert rep.base.min_generators == (3, 4)


@criterion(3, "children golden value")
def test_criterion_3():
    got = children(from_generators({5, 7, 8, 9, 11}), WORKED)
    assert got == [from_generators({5, 8, 9, 11, 12}), from_generators({5, 7, 9, 11, 13})]


WORKED_VERTICES = {
    (1,),
    (2, 3),
    (3, 4, 5), (2, 5),
    (4, 5, 6, 7), (3, 5, 7),
    (5, 6, 7, 8, 9), (4, 5, 7), (4, 5, 6),
    (5, 7, 8, 9, 11), (5, 6, 8, 9), (5, 6, 7, 9), (4, 5, 11),
    (5, 8, 9, 11, 12), (5, 7, 9, 11, 13), (5, 6, 9, 13),
    (5, 9, 11, 12, 13),
    (5, 9, 11, 13, 17),
}


@criterion(4, "finite tree golden value")
def test_criterion_4():
    start = time.perf_counter()
    levels = enumerate_levels(WORKED, 20)
    result = solve(WORKED)
    elapsed = time.perf_counter() - start
    vertices = {s.min_generators for level in levels for s in level}
    assert len(vertices) == sum(len(level) for level in levels) == 18
    assert vertices == WORKED_VERTICES
    assert {s.min_generators for s in levels[6]} == {
        (5, 8, 9, 11, 12),
        (5, 7, 9, 11, 13),
        (5, 6, 9, 13),
    }
    assert result.solutions == (
        (1, 2, 3, 4, 6, 7),
        (1, 2, 3, 4, 6, 8),
        (1, 2, 3, 4, 7, 8),
    )
    assert elapsed < 1.0


@criterion(5, "infinite-variety solve golden values")
def test_criterion_5():
    start = time.perf_counter()
    assert solve(SCALED).solutions == (
        (1, 2, 3, 4),
        (1, 2, 3, 5),
        (1, 2, 3, 7),
        (1, 2, 4, 5),
        (1, 2, 4, 7),
        (1, 3, 5, 7),
    )
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
    assert [len(level) for level in enumerate_levels(SCALED_FLOOR, 4)] == [1, 3, 5, 7, 9]
    assert time.perf_counter() - start < 1.0


@criterion(6, "feasibility sweep and direct solution")
def test_criterion_6():
    for r in range(5):
        inst = ProblemInstance(a=(1, 2), b=(4, 1), x={5}, g=6, r=r)
        assert feasible(inst).feasible == (r in {0, 1, 2})
    inst = ProblemInstance(a=(2, 3), b=(4, 2), x={6, 8}, g=9, r=3)
    assert one_solution(inst) == (4, 5, 7, 9, 10, 11, 13, 15, 17)


@criterion(7, "tree solver equals brute force on 200 random instances")
def test_criterion_7():
    start = time.perf_counter()
    for inst in instance_corpus(200):
        assert solve(inst).solutions == oracle_solve(inst).solutions, inst
    assert time.perf_counter() - start < 60.0


@criterion(8, "tree invariants hold on every enumerated node")
def test_criterion_8():
    assert_tree_invariants(enumerate_levels(WORKED, 20), WORKED)
    assert_tree_invariants(enumerate_levels(SCALED, SCALED.g), SCALED)
    assert_tree_invariants(enumerate_levels(SCALED_FLOOR, SCALED_FLOOR.g), SCALED_FLOOR)
    for inst in instance_corpus(200):
        assert_tree_invariants(enumerate_levels(inst, inst.g), inst)


@criterion(9, "degenerate seed and no-condition cases")
def test_criterion_9():
    # empty forbidden set: the closure collapses to the zero monoid and the
    # solver enumerates every admissible complement of the right size
    for a, b, r in [((1, 2), (4, 1), 0), ((2,), (3,), 2), ((), (), 0), ((), (), 1)]:
        empty_seed = ProblemInstance(a=a, b=b, x=frozenset(), g=4, r=r)
        assert instance_closure(empty_seed) is None
        for g in range(5):
            inst = ProblemInstance(a=a, b=b, x=frozenset(), g=g, r=r)
            assert solve(inst).solutions == oracle_solve(inst).solutions
    # no affine conditions: the closure is just the monoid generated by x
    for x in [{5}, {6, 8}, {4, 5, 6}, {9, 12}]:
        rep = closure((), (), x)
        d = gcd(*x)
        assert rep.d == d
        assert rep.base == from_generators(v // d for v in x)
        for g in range(5):
            inst = ProblemInstance(a=(), b=(), x=frozenset(x), g=g, r=0)
            assert solve(inst).solutions == oracle_solve(inst).solutions
