"""Brute-force reference solver used as ground truth in tests.

Candidates are checked directly against the defining conditions of the
problem, with no semigroup machinery, so this module is an independent
cross-check for the tree-based solver: it shares no code or type with the
tree engine and returns plain tuples.
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
    cset = set(candidate)
    elems = sorted(cset)
    lo = inst.r + 1
    if len(elems) != inst.g:
        return False
    if elems and elems[0] < lo:
        return False
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
    """Do no x, y >= lo outside ``cset`` sum into ``cset``?

    Every value of ``cset`` lies in [lo, top], and ``top`` is max(cset).
    Two integers hold the sets, offset by lo: bit j of ``inside`` is set
    when lo + j lies in C, and bit j of ``outside`` when lo + j lies in
    [lo, top] but not in C.  For x outside C, bit j of ``inside >> x`` is
    [lo + j + x in C], so ``(inside >> x) & outside`` is non-zero exactly
    when some y >= lo outside C has x + y in C; it is the test
    ``(outside << x) & inside`` on a shorter integer.  A violating pair
    has x + y <= top, so min(x, y) <= top // 2, and only x up to
    top // 2 need a test.  A hit with y < x is the same pair swapped, so
    every hit is a violation.  Cost: the two integers are built in time
    linear in top - lo, then one shift-and-AND of integers of up to
    top - lo bits per value outside C in [lo, top // 2].  With k such
    values that is O(k * (top - lo) / 30) digit operations, so a sparse
    answer, with k near top / 4, still costs time quadratic in top.
    """
    bits = bytearray(b"0") * (top - lo + 1)
    for v in cset:
        bits[top - v] = 49  # ord("1"); int(bits, 2) reads bit v - lo at index top - v
    inside = int(bits, 2)
    outside = ((2 << (top - lo)) - 1) & ~inside
    for x in range(lo, top // 2 + 1):
        if x not in cset and (inside >> x) & outside:
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
