"""Depth-first walk of the admissible semigroup tree.

The semigroups containing the seed set, closed under the affine
conditions and contained in {0, r+1, ->} form a tree: the root is
{0, r+1, ->} itself (all of the non-negative integers when r = 0) and
the children of a vertex S are the sets S \\ {m} where m is a minimal
generator above the Frobenius number such that the removal stays
admissible.  Removal of m is admissible iff m is not a seed value and no
coordinate has (m - b_i) / a_i equal to a positive member of S, since
that member's affine image would then be lost.  A per-run ``Preimages``
table holds each tested value's integer preimages, worked out on first
use, and maps a seed value to 0, which is always a member, so
``admissible`` tests each generator above the Frobenius number with one
lookup and a membership test per preimage.

Each removal adds exactly one gap, so the vertices at depth k are
exactly the admissible semigroups with r + k gaps, and the solutions of
the size-g problem are the complements of the depth-g vertices inside
{0, r+1, ->}.  The generators removed on the path to a vertex are its
gaps above r in increasing order, so a preorder walk that visits children
ascending lists each depth in lexicographic order of those gaps: the
breadth-first order.  Parents and solutions are read off the path:
each removed generator is the Frobenius number of the vertex it leads to.

One depth-first kernel, ``_walk``, serves ``solve``, ``enumerate_levels``
and ``export_tree``.  It keeps a single Apéry table and edits it in
place: ``_enter``, the one statement of the child rule, turns S's table
into that of S \\ {m} by moving one entry (only the ray {0, n1, ->} gets
a fresh table for its child), and the walk puts the entry back on the
way up.  It holds the path of removed generators and at most one frame
per depth (a vertex's generators, its table and an iterator over its
admissible generators; none for a vertex without one), and yields bare
``(generators, above, table, path)``, ``above`` being the generators
above the Frobenius number; callers build a ``NumericalSemigroup`` only
for the vertices they keep (the Apéry update of Bras-Amorós's
generator-removal tree, walked with the explicit stack of Fromentin and
Hivert).  Most vertices sit in the last two levels, so ``solve`` walks
only to depth g - 2 and reads those levels off each vertex S there: for
each admissible generator m of S, ``_enter`` gives the generators above m
of S \\ {m} and its table, which tell which v complete the solution
``path + (m, v)``.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

from .closure import ProblemInstance
from .errors import ResourceLimitError
from .semigroup import NumericalSemigroup, ray
from .semigroup import from_generators  # noqa: F401  (the benchmark's tracer wraps this name here)

DEFAULT_NODE_BUDGET = 10**6


class SolutionSet(NamedTuple):
    """All solutions, lexicographically sorted, plus enumeration stats.
    ``truncated`` is always False, since a run past its node budget raises;
    the field stays only because the benchmark harness reads it."""

    solutions: tuple[tuple[int, ...], ...]
    node_count: int
    truncated: bool


class Preimages(dict):
    """The pruning data of one instance, filled on first use: the entry for
    m is ``(0,)`` when m is a seed value, and otherwise the ascending
    positive integers ``(m - b_i) // a_i`` with ``a_i`` dividing ``m - b_i``.

    Removing m is admissible exactly when no entry is a positive member of
    the semigroup left, and 0 is a member of every semigroup, so one
    membership test covers both rules.  Each distinct value is worked out
    once per table; a table serves one walk.  ``free`` records an instance
    with no maps and no seeds, whose every entry would be empty; ``_walk``
    and ``solve`` read it to keep every generator without a lookup.
    """

    __slots__ = ("maps", "x", "free")

    def __init__(self, inst: ProblemInstance):
        super().__init__()
        self.maps = tuple(zip(inst.a, inst.b))
        self.x = inst.x
        self.free = not (self.maps or self.x)

    def __missing__(self, m: int) -> tuple[int, ...]:
        if m in self.x:
            out: tuple[int, ...] = (0,)
        else:
            out = tuple(sorted({(m - b) // a for a, b in self.maps if m > b and not (m - b) % a}))
        self[m] = out
        return out


def admissible(above: Sequence[int], ap: Sequence[int], pre: Preimages) -> list[int]:
    """The generators in ``above`` whose removal is admissible, ascending.

    ``above`` holds the minimal generators above the Frobenius number of
    the semigroup whose Apéry table is ``ap``: its members are the x with
    ``x >= ap[x % len(ap)]``.  Removing m leaves every member but m, and m
    is no preimage of itself, so a generator is kept when no entry of
    ``pre`` for it is a member of this semigroup.  ``_walk`` and ``solve``
    skip the call for a free instance, whose generators are all kept.
    """
    n1 = len(ap)
    out = []
    for m in above:
        for p in pre[m]:
            if p >= ap[p % n1]:  # a seed value, or a positive member preimage
                break
        else:
            out.append(m)
    return out


def children(s: NumericalSemigroup, inst: ProblemInstance) -> list[NumericalSemigroup]:
    """Admissible single-generator removals, ascending by removed generator."""
    f = s.frobenius
    above = [m for m in s.min_generators if m > f]
    return [remove_generator(s, m) for m in admissible(above, s.apery, Preimages(inst))]


def _over_budget(max_nodes: int, depth: int) -> ResourceLimitError:
    """The refusal of a walk whose vertex max_nodes + 1, at ``depth``, is past the budget."""
    msg = f"tree enumeration exceeded {max_nodes} nodes at depth {depth}"
    return ResourceLimitError(msg, node_count=max_nodes + 1, depth=depth)


def _check_count(name: str, value) -> None:
    """Refuse a depth or a node budget that is not a non-negative ``int``."""
    if not isinstance(value, int):
        raise ValueError(f"{name} must be an integer")
    if value < 0:
        raise ValueError(f"{name} must be non-negative")


def _enter(gens: tuple[int, ...], ap: list[int], m: int) -> tuple[int, tuple[int, ...], list[int]]:
    """The child S \\ {m} of the vertex S with generators ``gens`` and table
    ``ap``, for a generator m above S's Frobenius number, as ``(j, above,
    table)``: its generators are ``gens[:j] + above``, and ``above`` holds
    those above its Frobenius number m.

    Only the ray {0, n1, ->} can lose its multiplicity n1 = gens[0], leaving
    the fresh ray {0, m+1, ->}, with j = 0.  Otherwise ``ap`` becomes the
    table, its entry ``ap[m % n1]`` moved from m to m + n1, the smallest
    member left in m's residue, which the caller puts back; j is m's index,
    and ``above`` is S's generators after m, plus m + n1 unless m + n1 - n
    is a member for a generator n between n1 and m.  Every other new minimal
    generator would be m + t for a member t > n1, a sum n1 + (m + t - n1) of
    two members left; m + n1 - n is below m, so S's table answers for it,
    and m + n1 comes last, since every generator n has n - n1 <= frobenius < m.
    """
    n1 = gens[0]
    if m == n1:
        child = ray(m + 1)
        return 0, child.min_generators, list(child.apery)
    j = gens.index(m)
    c = m + n1
    ap[m % n1] = c
    for n in gens[1:j]:
        if c - n >= ap[(c - n) % n1]:
            return j, gens[j + 1:], ap
    return j, gens[j + 1:] + (c,), ap


def remove_generator(s: NumericalSemigroup, m: int) -> NumericalSemigroup:
    """The semigroup ``s`` minus its minimal generator ``m``, for m above its
    Frobenius number: ``_enter`` on a copy of its table."""
    gens = s.min_generators
    if m not in gens:
        raise ValueError(f"{m} is not a minimal generator of {s}")
    if m <= s.frobenius:
        raise ValueError(f"{m} is not above the Frobenius number {s.frobenius}")
    j, above, ap = _enter(gens, list(s.apery), m)
    return NumericalSemigroup(gens[:j] + above, tuple(ap))


def _walk(
    inst: ProblemInstance, pre: Preimages, depth_limit: int, *, max_nodes: int
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], list[int], list[int]]]:
    """The vertices of the tree down to depth_limit in preorder, as
    ``(generators, above, apery, path)``, where ``above`` is the tail of
    the generators above the Frobenius number and ``path`` lists the
    generators removed on the way from the root: the vertex's gaps above
    r, ascending, so its depth is ``len(path)``.

    ``apery`` and ``path`` are the walk's live lists: they are valid until
    the next vertex is asked for, so a caller that keeps one must copy it.
    ``pre`` is the instance's preimage table, shared with the caller.
    Raises ResourceLimitError on vertex max_nodes + 1, since a partial
    enumeration cannot certify a complete answer.
    """
    _check_count("depth_limit", depth_limit)
    _check_count("max_nodes", max_nodes)
    # the root is admissible: each image a_i*m + b_i > m >= r + 1 is a member
    root = ray(inst.r + 1)
    gens, ap = root.min_generators, list(root.apery)
    above = gens
    path: list[int] = []
    # (generators, table, iterator over the admissible generators) per vertex
    # on the path with one; path[-1] names the child below the top frame
    frames: list[tuple] = []
    free = pre.free
    count = 0
    while True:
        count += 1
        if count > max_nodes:
            raise _over_budget(max_nodes, len(path))
        yield gens, above, ap, path
        if len(path) < depth_limit:
            ms = above if free else admissible(above, ap, pre)
            if ms:
                frames.append((gens, ap, iter(ms)))
                path.append(0)  # restoring "child 0" rewrites ap[0] = 0, a no-op
        while frames:  # undo the last removal below the top frame, then take the next
            gens, ap, ms = frames[-1]
            n1 = gens[0]
            m = path[-1]
            if m != n1:
                ap[m % n1] = m
            m = next(ms, 0)
            if not m:
                frames.pop()
                path.pop()
                continue
            path[-1] = m
            j, above, ap = _enter(gens, ap, m)
            gens = gens[:j] + above
            break
        else:
            return


def enumerate_levels(
    inst: ProblemInstance, depth_limit: int, *, max_nodes: int = DEFAULT_NODE_BUDGET
) -> list[list[NumericalSemigroup]]:
    """The vertices at depths 0..depth_limit, one breadth-first list per depth.

    Ends early at the last non-empty depth when the tree is exhausted.
    """
    levels: list[list[NumericalSemigroup]] = []
    for gens, _, ap, path in _walk(inst, Preimages(inst), depth_limit, max_nodes=max_nodes):
        if len(path) == len(levels):  # preorder reaches depth k after depth k - 1
            levels.append([])
        levels[len(path)].append(NumericalSemigroup(gens, tuple(ap)))
    return levels


def solve(inst: ProblemInstance, *, max_nodes: int = DEFAULT_NODE_BUDGET) -> SolutionSet:
    """All solutions of the instance, read off the paths to the depth-g vertices:
    the generators removed on a path are its leaf's gaps above r.

    The walk stops at depth g - 2, and S \\ {m} for each admissible
    generator m of a vertex S there is read off S, not walked into:
    ``_enter`` gives its generators above m and its table, and S's entry
    is put back after their ``admissible`` test.  Each generator v that
    test keeps is a leaf, listed as ``path + (m, v)``.
    At g = 1 the root's leaves are read off it.  S \\ {m} counts together
    with its leaves, after its elder siblings' leaves, so one check finds
    vertex max_nodes + 1 in preorder, at depth g - 1 when S \\ {m} itself
    is past the budget and at depth g otherwise, and raises the same
    ResourceLimitError as ``_walk``.
    """
    _check_count("max_nodes", max_nodes)
    g = inst.g
    if not g:  # the root is the one depth-0 vertex, with no gaps above r
        if not max_nodes:
            raise _over_budget(max_nodes, 0)
        return SolutionSet(((),), 1, False)
    pre = Preimages(inst)
    free = pre.free
    if g == 1:  # the root is the depth-(g - 1) vertex
        vs, ap = ray(inst.r + 1)
        if not free:
            vs = admissible(vs, ap, pre)
        if 1 + len(vs) > max_nodes:  # the root, or one of its leaves
            raise _over_budget(max_nodes, 1 if max_nodes else 0)
        return SolutionSet(tuple((v,) for v in vs), 1 + len(vs), False)
    sols = []
    node_count = 0
    last = g - 2
    for gens, above, ap, path in _walk(inst, pre, last, max_nodes=max_nodes):
        node_count += 1
        if node_count > max_nodes:
            raise _over_budget(max_nodes, len(path))
        if len(path) < last:
            continue
        n1 = gens[0]
        base = tuple(path)
        for m in above if free else admissible(above, ap, pre):
            # entered before it counts, as in the walk, so the table cap trips first
            _, vs, table = _enter(gens, ap, m)
            if not free:
                vs = admissible(vs, table, pre)
            if m != n1:
                ap[m % n1] = m
            node_count += 1 + len(vs)
            if node_count > max_nodes:  # S \ {m}, or one of its leaves
                raise _over_budget(max_nodes, g - 1 if node_count - len(vs) > max_nodes else g)
            for v in vs:  # a plain loop: vs is short, and a comprehension is a call
                sols.append(base + (m, v))
    return SolutionSet(tuple(sols), node_count, False)


def export_tree(
    inst: ProblemInstance, depth_limit: int, *, max_nodes: int = DEFAULT_NODE_BUDGET
) -> str:
    """DOT rendering of the tree down to depth_limit.

    Nodes are labelled by their minimal generators and emitted in
    breadth-first order; edges follow in breadth-first order of the
    child.  The text is byte-stable for identical inputs.
    """
    labels, tails = [], []
    for gens, _, _, path in _walk(inst, Preimages(inst), depth_limit, max_nodes=max_nodes):
        depth = len(path)
        labels[depth:] = ['"<' + ",".join(map(str, gens)) + '>"']
        tails.append((depth, labels[-2:]))  # [parent, vertex], or [root] alone
    # a stable sort, since preorder within one depth is breadth-first order
    tails.sort(key=lambda t: t[0])
    lines = ["digraph variety {"]
    lines += [f"  {pair[-1]};" for _, pair in tails]
    lines += [f"  {parent} -> {label};" for _, (parent, label) in tails[1:]]
    lines.append("}")
    return "\n".join(lines) + "\n"
