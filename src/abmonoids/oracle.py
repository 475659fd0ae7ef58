"""Brute-force reference solver used as ground truth in tests.

Candidates are checked directly against the defining conditions of the
problem, with no semigroup machinery, so this module is an independent
cross-check for the tree-based solver: it shares no code or type with the
tree engine and returns plain tuples.  It is intentionally naive.
"""

from __future__ import annotations

from itertools import combinations

from .closure import ProblemInstance
from .errors import ResourceLimitError

DEFAULT_SCALE_BOUND = 9


def check_conditions(candidate, inst: ProblemInstance) -> bool:
    """Is ``candidate`` a solution of the instance?

    Checks, for C = candidate and floor r:
      * C has exactly g elements, all >= r + 1;
      * no two values x, y >= r + 1 outside C sum to a value in C
        (equivalently, whenever x + y lands in C, C meets {x, y});
      * for every c in C and coordinate i, if (c - b_i) / a_i is an
        integer >= r + 1 then it lies in C too;
      * C avoids the forbidden set x.
    """
    elems = sorted(set(candidate))
    lo = inst.r + 1
    if len(elems) != inst.g:
        return False
    if elems and elems[0] < lo:
        return False
    cset = set(elems)
    if cset & inst.x:
        return False
    if elems and not _sum_condition_holds(cset, lo, elems[-1]):
        return False
    for c in elems:
        for ai, bi in zip(inst.a, inst.b):
            q = c - bi
            if q >= lo * ai and q % ai == 0 and (q // ai) not in cset:
                return False
    return True


def _sum_condition_holds(cset: set[int], lo: int, top: int) -> bool:
    """Do no x <= y, both >= lo and outside ``cset``, sum into ``cset``?

    ``top`` is max(cset), so a violating pair has x + y <= top, and with
    x <= y that gives x <= top // 2 and x <= y <= top - x.  Pairs whose x
    lies in ``cset`` never violate, so each such x is skipped before its
    inner loop.  The pairs left are tested in ascending (x, y) order.
    Cost: one membership test per x in [lo, top // 2], plus at most
    top - 2x + 1 tests for each of the k values x there outside
    ``cset``, so O(top + k * top) in all.
    """
    for x in range(lo, top // 2 + 1):
        if x in cset:
            continue
        for y in range(x, top - x + 1):
            if y not in cset and (x + y) in cset:
                return False
    return True


def oracle_solve(inst: ProblemInstance) -> tuple[tuple[int, ...], ...]:
    """Every solution, each ascending, in lexicographic order, by exhaustive
    enumeration of a finite candidate space.

    A solution C has complement S = {0, r+1, ->} \\ C that is a numerical
    semigroup with exactly r + g gaps, and its largest gap F obeys
    F <= 2*(r+g) - 1: for every member s with 0 < s < F the value F - s
    must be a gap (otherwise s + (F - s) = F would be a member), so the
    members below F inject into the gaps below F and, counting F itself,
    F = #members + #gaps below F + 1 <= 2 * #gaps - 1.  Every element of
    C is a gap of S, hence max(C) <= 2*(r+g) - 1 and it suffices to
    enumerate g-element subsets of {r+1, ..., 2*(r+g) - 1}.

    An instance with r + g above ``DEFAULT_SCALE_BOUND`` raises
    ResourceLimitError.
    """
    if inst.r + inst.g > DEFAULT_SCALE_BOUND:
        raise ResourceLimitError(
            f"r + g = {inst.r + inst.g} exceeds the brute-force bound {DEFAULT_SCALE_BOUND}"
        )
    universe = range(inst.r + 1, 2 * (inst.r + inst.g))
    # combinations() yields ascending tuples in lexicographic order already
    return tuple(c for c in combinations(universe, inst.g) if check_conditions(c, inst))
