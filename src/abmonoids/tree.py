"""Depth-first walk of the admissible semigroup tree.

The semigroups containing the seed set, closed under the affine
conditions and contained in {0, r+1, ->} form a tree: the root is
{0, r+1, ->} itself (all of the non-negative integers when r = 0) and
the children of a vertex S are the sets S \\ {m} where m is a minimal
generator above the Frobenius number such that the removal stays
admissible.  Removal of m is admissible iff m is not a seed value and no
coordinate has (m - b_i) / a_i equal to a positive member of S, since
that member's affine image would then be lost.

Each removal adds exactly one gap, so the vertices at depth k are
exactly the admissible semigroups with r + k gaps, and the solutions of
the size-g problem are the complements of the depth-g vertices inside
{0, r+1, ->}.  The generators removed on the path to a vertex are its
gaps above r in increasing order, so a preorder walk that visits children
ascending lists each depth in lexicographic order of those gaps: the
breadth-first order.  The walk holds the pending siblings of one path,
never a whole level, and solutions are read from the path: each removed
generator is the Frobenius number of the vertex it leads to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .closure import ProblemInstance
from .errors import ResourceLimitError
from .semigroup import NumericalSemigroup, from_generators, remove_generator

DEFAULT_NODE_BUDGET = 10**6


@dataclass(frozen=True)
class SolutionSet:
    """All solutions, lexicographically sorted, plus enumeration stats."""

    solutions: tuple[tuple[int, ...], ...]
    node_count: int
    truncated: bool


def variety_root(r: int) -> NumericalSemigroup:
    """The maximum admissible semigroup {0, r+1, ->} (all integers when r=0)."""
    return from_generators(range(r + 1, 2 * r + 2))


def children(s: NumericalSemigroup, inst: ProblemInstance) -> list[NumericalSemigroup]:
    """Admissible single-generator removals, ascending by removed generator."""
    ap = s.apery
    n1 = len(ap)
    f = s.frobenius
    maps = tuple(zip(inst.a, inst.b))
    out = []
    for m in s.min_generators:
        if m <= f or m in inst.x:
            continue
        for ai, bi in maps:
            q = m - bi
            if q > 0 and not q % ai:
                p = q // ai
                if p >= ap[p % n1]:  # the preimage p is a positive member of s
                    break
        else:
            out.append(remove_generator(s, m))
    return out


def _walk(
    inst: ProblemInstance, depth_limit: int, *, max_nodes: int
) -> Iterator[tuple[NumericalSemigroup | None, NumericalSemigroup]]:
    """(parent, vertex) pairs of the tree down to depth_limit, in preorder.

    The root comes with parent None.  Raises ResourceLimitError on vertex
    max_nodes + 1, since a truncated enumeration cannot certify a complete
    answer.
    """
    if depth_limit < 0:
        raise ValueError("depth_limit must be non-negative")
    max_genus = inst.r + depth_limit
    # the root is admissible: each image a_i*m + b_i > m >= r + 1 is a member
    stack = [(None, variety_root(inst.r))]
    count = 0
    while stack:
        parent, s = stack.pop()
        count += 1
        if count > max_nodes:
            depth = s.genus - inst.r
            msg = f"tree enumeration exceeded {max_nodes} nodes at depth {depth}"
            raise ResourceLimitError(msg, node_count=count, depth=depth)
        yield parent, s
        if s.genus < max_genus:
            stack.extend((s, child) for child in reversed(children(s, inst)))


def enumerate_levels(
    inst: ProblemInstance, depth_limit: int, *, max_nodes: int = DEFAULT_NODE_BUDGET
) -> list[list[NumericalSemigroup]]:
    """The vertices at depths 0..depth_limit, one breadth-first list per depth.

    Ends early at the last non-empty depth when the tree is exhausted.
    """
    levels: list[list[NumericalSemigroup]] = []
    for _, s in _walk(inst, depth_limit, max_nodes=max_nodes):
        depth = s.genus - inst.r
        if depth == len(levels):  # preorder reaches depth k after depth k - 1
            levels.append([])
        levels[depth].append(s)
    return levels


def solve(inst: ProblemInstance, *, max_nodes: int = DEFAULT_NODE_BUDGET) -> SolutionSet:
    """All solutions of the instance, read off the paths to the depth-g vertices:
    the Frobenius numbers at depths 1..g of a path are its leaf's gaps above r.

    On hitting the node budget no partial answer is kept: the result has
    an empty solution list and the truncated flag set.
    """
    sols = []
    path: list[int] = []
    node_count = 0
    try:
        for _, s in _walk(inst, inst.g, max_nodes=max_nodes):
            node_count += 1
            depth = s.genus - inst.r
            if depth:
                path[depth - 1:] = [s.frobenius]
            if depth == inst.g:
                sols.append(tuple(path))
    except ResourceLimitError as err:
        return SolutionSet((), err.node_count, True)
    return SolutionSet(tuple(sols), node_count, False)


def export_tree(
    inst: ProblemInstance, depth_limit: int, *, max_nodes: int = DEFAULT_NODE_BUDGET
) -> str:
    """DOT rendering of the tree down to depth_limit.

    Nodes are labelled by their minimal generators and emitted in
    breadth-first order; edges follow in breadth-first order of the
    child.  The text is byte-stable for identical inputs.
    """
    # a stable sort, since preorder within one depth is breadth-first order
    pairs = sorted(_walk(inst, depth_limit, max_nodes=max_nodes), key=lambda p: p[1].genus)
    lines = ["digraph variety {"]
    lines += [f'  "{s!r}";' for _, s in pairs]
    lines += [f'  "{parent!r}" -> "{s!r}";' for parent, s in pairs if parent is not None]
    lines.append("}")
    return "\n".join(lines) + "\n"
