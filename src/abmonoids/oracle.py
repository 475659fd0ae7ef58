"""Brute-force reference solver used as ground truth in tests.

Candidates are checked directly against the defining conditions of the
problem, with no semigroup machinery, so this module is an independent
cross-check for the tree-based solver.  It is intentionally naive.
"""

from __future__ import annotations

from itertools import combinations

from .closure import ProblemInstance
from .errors import ResourceLimitError
from .tree import SolutionSet

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
    for x in range(lo, top - lo + 1):
        for y in range(x, top - x + 1):
            if (x + y) in cset and x not in cset and y not in cset:
                return False
    return True


def oracle_solve(inst: ProblemInstance, *, universe_extension: int = 0) -> SolutionSet:
    """Every solution, by exhaustive enumeration of a finite candidate space.

    A solution C has complement S = {0, r+1, ->} \\ C that is a numerical
    semigroup with exactly r + g gaps, and its largest gap F obeys
    F <= 2*(r+g) - 1: for every member s with 0 < s < F the value F - s
    must be a gap (otherwise s + (F - s) = F would be a member), so the
    members below F inject into the gaps below F and, counting F itself,
    F = #members + #gaps below F + 1 <= 2 * #gaps - 1.  Every element of
    C is a gap of S, hence max(C) <= 2*(r+g) - 1 and it suffices to
    enumerate g-element subsets of {r+1, ..., 2*(r+g) - 1}.

    ``universe_extension`` widens that range; tests use it to confirm
    empirically that the bound loses nothing.  An instance with r + g above
    ``DEFAULT_SCALE_BOUND`` raises ResourceLimitError.
    """
    if inst.r + inst.g > DEFAULT_SCALE_BOUND:
        raise ResourceLimitError(
            f"r + g = {inst.r + inst.g} exceeds the brute-force bound {DEFAULT_SCALE_BOUND}"
        )
    hi = 2 * (inst.r + inst.g) - 1 + universe_extension
    universe = range(inst.r + 1, hi + 1)
    examined = 0
    sols = []
    for combo in combinations(universe, inst.g):
        examined += 1
        if check_conditions(combo, inst):
            sols.append(combo)
    # combinations() yields ascending tuples in lexicographic order already
    return SolutionSet(tuple(sols), examined, False)
