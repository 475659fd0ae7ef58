"""Shared brute-force oracles and invariant checkers for the test suite.

The helpers here deliberately avoid the package's membership tables and
incremental updates: monoids are saturated by repeated addition, minimal
generators recomputed from scratch, so that golden values and property
tests rest on an independent code path.  The one use of the engine,
``free_tree_reference``, takes the unconstrained tree only after its
level sizes match the known counts, and filters it by brute force.
"""

from __future__ import annotations

import functools
import math
import random
import sys
from pathlib import Path

from abmonoids import (
    ProblemInstance,
    check_conditions,
    enumerate_levels,
    from_generators,
)
from abmonoids.semigroup import NumericalSemigroup

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
from cross_check import random_instance  # noqa: E402  (one copy, shared with the sweep script)


def saturated_members(gens, limit: int) -> set[int]:
    """Members of the monoid generated by ``gens`` up to ``limit``, by saturation."""
    members = {0} | {g for g in gens if g <= limit}
    frontier = list(members)
    while frontier:
        s = frontier.pop()
        for g in gens:
            v = s + g
            if v <= limit and v not in members:
                members.add(v)
                frontier.append(v)
    return members


def is_affine_closed(gens, a, b) -> bool:
    """Does the monoid generated by ``gens`` hold a_i*m + b_i for every
    generator m and coordinate i?  Checking the generators suffices (see
    ``abmonoids.closure``); ``gens`` may have gcd > 1."""
    images = [ai * m + bi for m in gens for ai, bi in zip(a, b)]
    members = saturated_members(gens, max(images, default=0))
    return all(v in members for v in images)


def smallest_by_residue(members, m: int) -> tuple:
    """For each residue i modulo m, the smallest of ``members`` congruent to i
    (None when there is none): the Apéry set of a saturated member list."""
    out = [None] * m
    for v in sorted(members, reverse=True):
        out[v % m] = v
    return tuple(out)


def intersect(s: NumericalSemigroup, t: NumericalSemigroup) -> NumericalSemigroup:
    """The intersection of two numerical semigroups, from pointwise membership.

    Its Frobenius number F is the larger of the two, and every minimal
    generator is at most F + multiplicity <= 2F + 1, so the common members
    up to 2F + 2 generate it.
    """
    hi = 2 * max(s.frobenius, t.frobenius, 0) + 2
    return from_generators(v for v in range(1, hi + 1) if v in s and v in t)


def rep_contains(rep, v: int) -> bool:
    """Membership in the monoid d * S that a ``SubmonoidRep`` stands for; a
    negative v fails in S, since v // d < 0."""
    return v % rep.d == 0 and v // rep.d in rep.base


def gaps_above(s: NumericalSemigroup, r: int) -> tuple[int, ...]:
    """The gaps of ``s`` that are >= r + 1, ascending: a solution's values."""
    return tuple(v for v in s.gaps if v > r)


def _min_generators_of(contains, frobenius: int) -> tuple[int, ...]:
    """Minimal generators of the numerical semigroup with membership test
    ``contains`` and Frobenius number ``frobenius``.

    Uses the defining identity: the nonzero members minus all pairwise
    sums of nonzero members, scanned on a window wide enough to contain
    every minimal generator.
    """
    hi = max(2 * frobenius + 2, 2)
    nonzero = [v for v in range(1, hi + 1) if contains(v)]
    sums = {u + v for u in nonzero for v in nonzero if u + v <= hi}
    return tuple(v for v in nonzero if v not in sums)


def recomputed_min_generators(s: NumericalSemigroup) -> tuple[int, ...]:
    """Minimal generators recomputed from the membership table alone."""
    return _min_generators_of(s.__contains__, s.frobenius)


def semigroup_from_members(contains, frobenius: int) -> NumericalSemigroup:
    """The numerical semigroup with membership test ``contains`` and Frobenius
    number ``frobenius``, every field computed from membership alone: each
    Apéry element is at most frobenius + multiplicity.  The Frobenius number
    and genus the value reads off its Apéry set must match those counted
    from membership."""
    gens = _min_generators_of(contains, frobenius)
    m = gens[0]
    members = [v for v in range(frobenius + m + 1) if contains(v)]
    gaps = frobenius + 1 - sum(1 for v in members if v <= frobenius)
    s = NumericalSemigroup(gens, smallest_by_residue(members, m))
    assert (s.frobenius, s.genus) == (frobenius, gaps), (s, frobenius, gaps)
    return s


def assert_semigroup_consistent(s: NumericalSemigroup) -> None:
    """Field-level consistency: gaps/genus/frobenius/table/msg/apery and the
    gap counts above each floor all agree."""
    assert s.genus == len(s.gaps)
    table = [v in s for v in range(s.frobenius + 2)]  # membership of 0..F+1
    assert table[0]
    assert s.gaps == tuple(i for i, member in enumerate(table) if not member)
    if s.gaps:
        assert s.gaps[-1] == s.frobenius
    else:
        assert s.frobenius == -1
    for r in range(s.frobenius + 2):
        assert s.gap_count_above(r) == sum(1 for g in s.gaps if g > r)
    assert math.gcd(*s.min_generators) == 1
    assert recomputed_min_generators(s) == s.min_generators
    # the Apery set against saturation; its largest element is frobenius + m
    m = s.min_generators[0]
    assert s.apery == smallest_by_residue(saturated_members(s.min_generators, s.frobenius + m), m)
    # closure under addition, exhaustively on the table range
    members = [v for v, member in enumerate(table) if member]
    for u in members:
        for v in members:
            assert u + v in s, (s, u, v)


def assert_tree_invariants(levels, inst: ProblemInstance) -> None:
    """Checks every vertex of ``levels`` (lists of semigroups, one per depth).

    The parent link is checked from membership alone: for S at depth k >= 1,
    S with its Frobenius number F put back is a vertex at depth k - 1, and F
    is one of that vertex's minimal generators above its Frobenius number.
    """
    keys = [{s.min_generators for s in level} for level in levels]
    assert sum(map(len, keys)) == sum(map(len, levels))  # no vertex twice
    for depth, level in enumerate(levels):
        for s in level:
            assert s.genus == depth + inst.r, (s, depth, inst)
            # contained in {0, r+1, ->} and containing the forbidden-set seed
            assert all(v not in s for v in range(1, inst.r + 1))
            assert all(v in s for v in inst.x)
            assert is_affine_closed(s.min_generators, inst.a, inst.b)
            assert_semigroup_consistent(s)
            if depth > 0:
                f = s.frobenius
                # S ∪ {F} has Frobenius number below F, so its minimal
                # generators are at most 2F - 1
                parent = from_generators(
                    v for v in range(1, 2 * f + 2) if v == f or v in s
                )
                assert parent.min_generators in keys[depth - 1], (s, parent)
                assert f in parent.min_generators and f > parent.frobenius


def reference_children(s: NumericalSemigroup, inst: ProblemInstance) -> list:
    """The vertices S \\ {m}, for the minimal generators m of S above its
    Frobenius number, ascending, that still contain X and are closed under
    the affine maps.  Each is recomputed from S's members by saturation,
    not through an Apéry table update or the package's pruning rule."""
    top = 2 * s.min_generators[-1] + 2
    members = saturated_members(s.min_generators, top)
    out = []
    for m in s.min_generators:
        if m <= s.frobenius:
            continue
        # S \ {m} holds every integer above m, and ``members`` ends at top
        child = semigroup_from_members(lambda v, m=m: v != m and (v > top or v in members), m)
        if m not in inst.x and is_affine_closed(child.min_generators, inst.a, inst.b):
            out.append(child)
    return out


def reference_admissible(s: NumericalSemigroup, inst: ProblemInstance) -> list[int]:
    """The minimal generators m of S above its Frobenius number whose removal
    keeps the instance's rules, ascending, by divide and modulo on each map:
    m is not a seed value and no (m - b_i) / a_i is a positive member of S."""
    out = []
    for m in s.min_generators:
        if m <= s.frobenius or m in inst.x:
            continue
        maps = zip(inst.a, inst.b)
        preimages = [(m - bi) // ai for ai, bi in maps if m > bi and not (m - bi) % ai]
        if not any(p in s for p in preimages):
            out.append(m)
    return out


def reference_sum_condition(cset: set[int], lo: int, top: int) -> bool:
    """The paper's condition 2 on C = ``cset`` with floor ``lo`` and
    top = max(C), by testing every pair lo <= x <= y with x + y <= top:
    no such pair with both values outside C may sum into C."""
    for x in range(lo, top - lo + 1):
        for y in range(x, top - x + 1):
            if (x + y) in cset and x not in cset and y not in cset:
                return False
    return True


def reference_preimage_condition(cset: set[int], inst: ProblemInstance) -> bool:
    """The paper's condition 3 on C = ``cset``, by divide and modulo on each
    value and map: every integer (c - b_i) / a_i >= r + 1 lies in C."""
    for c in cset:
        for ai, bi in zip(inst.a, inst.b):
            q, rem = divmod(c - bi, ai)
            if not rem and q >= inst.r + 1 and q not in cset:
                return False
    return True


@functools.cache
def bfs_levels(inst: ProblemInstance, depth: int) -> tuple:
    """Reference breadth-first levels 0..depth of the tree as (parent, vertex)
    pairs, the root's parent None: each level lists the children of the
    previous one, parents in order and children ascending.  Stops after the
    last non-empty level.  The root {0, r+1, ->} is built from membership
    and each level by ``reference_children``."""
    root = semigroup_from_members(lambda v: v == 0 or v > inst.r, inst.r if inst.r else -1)
    levels = [((None, root),)]
    for _ in range(depth):
        level = tuple((s, child) for _, s in levels[-1] for child in reference_children(s, inst))
        if not level:
            break
        levels.append(level)
    return tuple(levels)


# numerical semigroups of genus 0, 1, ... (OEIS A007323)
A007323 = (
    1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343, 592, 1001, 1693, 2857, 4806, 8045, 13467,
    22464, 37396, 62194, 103246,
)


@functools.cache
def _free_tree_gaps() -> list:
    """Gap tuples of the unconstrained tree's vertices, one list per genus.

    The counts equal A007323 and no gap tuple repeats, so each list holds
    every numerical semigroup of its genus, however the tree was walked."""
    levels = [[s.gaps for s in level] for level in enumerate_levels(ProblemInstance(), 18)]
    assert [len(level) for level in levels] == list(A007323[:19])
    for genus, level in enumerate(levels):
        assert len(set(level)) == len(level)
        assert all(len(gaps) == genus for gaps in level)
    return levels


def free_tree_reference(inst: ProblemInstance) -> tuple:
    """Every solution of ``inst`` (r + g <= 18), sorted, with no pruning.

    A set C solves the instance exactly when {0, r+1, ->} minus C is a
    numerical semigroup with gaps 1..r and C that meets the conditions, so
    the candidates are the genus-(r+g) semigroups whose first r gaps are
    1..r, filtered by the brute-force ``check_conditions``."""
    floor = tuple(range(1, inst.r + 1))
    level = _free_tree_gaps()[inst.r + inst.g]
    candidates = (gaps[inst.r:] for gaps in level if gaps[:inst.r] == floor)
    return tuple(sorted(c for c in candidates if check_conditions(c, inst)))


def instance_corpus(count: int, seed: int = 20260809) -> list[ProblemInstance]:
    rng = random.Random(seed)
    return [random_instance(rng) for _ in range(count)]
