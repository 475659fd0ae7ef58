"""The brute-force engine and the condition checker behind it.

``check_conditions`` tests a candidate against the four conditions
directly, in one pass over the values outside it, and ``oracle_solve``
runs it on every candidate of a finite space.  The module shares no code
or type with the tree engine and returns plain tuples, so it is an
independent cross-check of the tree solver and of ``one_solution``.
"""

from __future__ import annotations

from itertools import combinations

from .closure import ProblemInstance
from .errors import ResourceLimitError

DEFAULT_SCALE_BOUND = 9


def check_conditions(candidate, inst: ProblemInstance) -> bool:
    """Is ``candidate`` a solution of the instance?

    With C = candidate, lo = r + 1 and top = max(C): C has g values, all
    >= lo and none in X, and no x >= lo outside C reaches C, neither as
    x + y with y >= lo outside C (condition 2) nor as a_i * x + b_i
    (condition 3, every integer preimage >= lo of a value of C lies in
    C).  A reach exceeds x and lands at or below top, so only x in
    [lo, top) need a test; a violating sum with x <= y has x <= top // 2,
    and a hit with y < x is the same pair swapped.  Bit j of ``inside``
    is [lo + j in C] and of ``outside`` [lo + j in [lo, top] \\ C], so
    ``(inside >> x) & outside`` is non-zero exactly when some y >= lo
    outside C has x + y in C.  Cost: the masks in time linear in top - lo,
    then per x outside C one lookup per map and, up to top // 2, one
    shift-and-AND of integers of up to top - lo bits, so a sparse answer,
    with about top / 4 such x, costs time quadratic in top.
    """
    cset = set(candidate)
    lo = inst.r + 1
    if len(cset) != inst.g or cset & inst.x:
        return False
    if not cset:
        return True
    top = max(cset)
    if min(cset) < lo:
        return False
    bits = bytearray(b"0") * (top - lo + 1)
    for v in cset:
        bits[top - v] = 49  # ord("1"); int(bits, 2) reads bit v - lo at index top - v
    inside = int(bits, 2)
    outside = ((2 << (top - lo)) - 1) & ~inside
    half = top // 2
    maps = tuple(zip(inst.a, inst.b))
    for x in range(lo, top):
        if x in cset:
            continue
        if x <= half and (inside >> x) & outside:
            return False
        for a, b in maps:
            if a * x + b in cset:
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
