#!/usr/bin/env python3
"""Walk through the two bundled demo instances end to end.

Prints the closure monoid, the breadth-first tree levels, the solution
sets, a feasibility sweep over the floor parameter, and finally the DOT
text of the finite tree.  Useful as a quick eyeball check that the
pieces fit together; everything here is also pinned by the test suite.
"""

from abmonoids import (
    ProblemInstance,
    enumerate_levels,
    export_tree,
    feasible,
    instance_closure,
    one_solution,
    solve,
)


def show(inst: ProblemInstance, title: str) -> None:
    print(f"== {title}: a={inst.a} b={inst.b} X={sorted(inst.x)} g={inst.g} r={inst.r}")
    monoid = instance_closure(inst)
    res = feasible(inst)
    print(f"closure: d={monoid.d} generators={monoid.expanded_generators()}")
    print(f"available values >= {inst.r + 1}: {res.gap_count}")
    if res.feasible:
        print(f"greedy solution: {one_solution(inst)}")
    levels = enumerate_levels(inst, inst.g)
    for depth, level in enumerate(levels):
        labels = " ".join(map(repr, level))
        print(f"  level {depth} ({len(level)} nodes): {labels}")
    result = solve(inst)
    print(f"solutions ({len(result.solutions)}):")
    for sol in result.solutions:
        print(f"  {sol}")
    print()


def main() -> None:
    worked = ProblemInstance(a=(1, 2), b=(4, 1), x={5}, g=6, r=0)
    show(worked, "finite tree instance")

    show(ProblemInstance(a=(2, 3), b=(4, 2), x={6, 8}, g=4, r=0), "infinite variety, plain")
    show(ProblemInstance(a=(2, 3), b=(4, 2), x={6, 8}, g=4, r=3), "infinite variety, floor 3")

    print("== feasibility sweep over the floor r")
    for r in range(5):
        res = feasible(ProblemInstance(a=(1, 2), b=(4, 1), x={5}, g=6, r=r))
        print(f"  r={r}: {'yes' if res.feasible else 'no'} (available={res.gap_count})")
    print()

    print("== full finite tree as DOT")
    print(export_tree(worked, 10), end="")


if __name__ == "__main__":
    main()
