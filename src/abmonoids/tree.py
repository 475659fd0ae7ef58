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
place: removing a generator m other than the multiplicity n1 moves one
entry, ``ap[m % n1]``, from m to m + n1, and the walk puts m back on the
way up.  Only the ray {0, n1, ->} can lose n1, and its child
{0, n1+1, ->} starts a fresh table.  The walk holds one frame per depth
(a vertex's generators, the admissible ones and a cursor), builds a
child's generators only on entering it, and yields bare
``(generators, above, table, frobenius, depth)``, ``above`` being the
generators above the Frobenius number; callers build a
``NumericalSemigroup`` only for the vertices they keep (the Apéry
update of Bras-Amorós's generator-removal tree, walked with the
explicit stack of Fromentin and Hivert).  ``solve`` reads the vertices
at depths g - 1 and g off their depth-(g - 2) ancestor S without
entering them: S \\ {m} has S's members except m, so ``admissible``
can test its generators, listed by ``generators_after``, against S's
own table, and each pair of removals completes a path into a solution.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

from .closure import ProblemInstance
from .errors import ResourceLimitError
from .semigroup import NumericalSemigroup, ray, remove_generator
from .semigroup import from_generators  # noqa: F401  (the benchmark's tracer wraps this name here)

DEFAULT_NODE_BUDGET = 10**6


class SolutionSet(NamedTuple):
    """All solutions, lexicographically sorted, plus enumeration stats."""

    solutions: tuple[tuple[int, ...], ...]
    node_count: int
    truncated: bool


class Preimages(dict):
    """The pruning data of one instance, filled on first use: the entry for
    m is ``(0,)`` when m is a seed value, and otherwise the ascending
    positive integers ``(m - b_i) // a_i`` with ``a_i`` dividing ``m - b_i``.

    Removing m is admissible exactly when no entry is a positive member of
    the semigroup left, and 0 is a member of every semigroup and never its
    Frobenius number, so one membership test covers both rules.  Each
    distinct value is worked out once per table; a table serves one walk.
    ``free`` records an instance with no maps and no seeds, whose every
    entry would be empty.
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


def admissible(above: Sequence[int], ap: Sequence[int], f: int, pre: Preimages) -> list[int]:
    """The generators in ``above`` whose removal is admissible, ascending.

    ``above`` holds minimal generators above ``f``, the Frobenius number of
    the semigroup tested: its members are ``x >= ap[x % len(ap)]`` except
    ``f``.  Called with a vertex's own fields, f is a gap already and this
    tests the vertex.  Called with a parent's table (the walk's live list),
    a generator m it removes as f and ``generators_after(parent, m)``, it
    tests the child without building it.  A generator is kept when no entry
    of ``pre`` for it is a member; a free table keeps them all unread.
    """
    if pre.free:
        return list(above)
    n1 = len(ap)
    out = []
    for m in above:
        for p in pre[m]:
            if p >= ap[p % n1] and p != f:  # a seed value, or a positive member preimage
                break
        else:
            out.append(m)
    return out


def generators_after(gens: tuple[int, ...], ap, m: int) -> tuple[int, ...]:
    """The minimal generators above ``m`` of S minus ``m``, ascending, where S
    is the semigroup with minimal generators ``gens`` and Apéry table ``ap``
    and m is one of its generators above its Frobenius number.

    They are read off S without building the smaller semigroup: its
    members are those of S except m, so they are the generators of S above
    m, plus ``m + multiplicity`` unless some smaller generator ``n_j`` has
    ``m + multiplicity - n_j`` in S.  Removing the multiplicity only
    happens when S is ``{0, m, m+1, ...}``, which leaves the ray generated
    by m+1..2m+1.
    """
    n1 = gens[0]
    if m == n1:
        return tuple(range(m + 1, 2 * m + 2))
    i = gens.index(m)
    for g in gens[1:i]:
        c = m + n1 - g
        if c >= ap[c % n1]:
            return gens[i + 1:]
    # appending keeps the order: each generator g has g - n1 <= frobenius < m
    return gens[i + 1:] + (m + n1,)


def children(s: NumericalSemigroup, inst: ProblemInstance) -> list[NumericalSemigroup]:
    """Admissible single-generator removals, ascending by removed generator."""
    f = s.frobenius
    above = [m for m in s.min_generators if m > f]
    ms = admissible(above, s.apery, f, Preimages(inst))
    return [remove_generator(s, m) for m in ms]


def _check_count(name: str, value) -> None:
    """Refuse a depth or a node budget that is not a non-negative ``int``."""
    if not isinstance(value, int):
        raise ValueError(f"{name} must be an integer")
    if value < 0:
        raise ValueError(f"{name} must be non-negative")


def _walk(
    inst: ProblemInstance, pre: Preimages, depth_limit: int, *, max_nodes: int
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], list[int], int, int]]:
    """The vertices of the tree down to depth_limit in preorder, as
    ``(generators, above, apery, frobenius, depth)``, where ``above`` is
    the tail of the generators above the Frobenius number.

    ``apery`` is the walk's live table: it is valid until the next vertex
    is asked for, so a caller that keeps it must copy it.  ``pre`` is the
    instance's preimage table, shared with the caller.  A vertex's
    parent is the last one yielded a depth above it.  Raises
    ResourceLimitError on vertex max_nodes + 1, since a truncated
    enumeration cannot certify a complete answer.
    """
    _check_count("depth_limit", depth_limit)
    _check_count("max_nodes", max_nodes)
    # the root is admissible: each image a_i*m + b_i > m >= r + 1 is a member
    root = ray(inst.r + 1)
    gens, ap, f = root.min_generators, list(root.apery), root.frobenius
    above = gens
    # one frame per vertex above the current one: its generators, its table,
    # its admissible generators and the index of the next one to remove
    frames: list[list] = []
    count = depth = 0
    while True:
        count += 1
        if count > max_nodes:
            msg = f"tree enumeration exceeded {max_nodes} nodes at depth {depth}"
            raise ResourceLimitError(msg, node_count=count, depth=depth)
        yield gens, above, ap, f, depth
        if depth < depth_limit:
            frames.append([gens, ap, admissible(above, ap, f, pre), 0])
        while frames:  # undo the last removal below the top frame, then take the next
            frame = frames[-1]
            gens, ap, ms, i = frame
            n1 = gens[0]
            if i:
                m = ms[i - 1]
                if m != n1:
                    ap[m % n1] = m
            if i == len(ms):
                frames.pop()
                continue
            frame[3] = i + 1
            f = ms[i]
            if f == n1:  # only {0, n1, ->} can lose its multiplicity
                spine = ray(f + 1)
                gens, ap = spine.min_generators, list(spine.apery)
                above = gens
            else:
                above = generators_after(gens, ap, f)
                gens = gens[:gens.index(f)] + above
                ap[f % n1] = f + n1
            depth = len(frames)
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
    for gens, _, ap, _, depth in _walk(inst, Preimages(inst), depth_limit, max_nodes=max_nodes):
        if depth == len(levels):  # preorder reaches depth k after depth k - 1
            levels.append([])
        levels[depth].append(NumericalSemigroup(gens, tuple(ap)))
    return levels


def solve(inst: ProblemInstance, *, max_nodes: int = DEFAULT_NODE_BUDGET) -> SolutionSet:
    """All solutions of the instance, read off the paths to the depth-g vertices:
    the Frobenius numbers at depths 1..g of a path are its leaf's gaps above r.

    The vertices at depths g - 1 and g are read off their depth-(g - 2)
    ancestor S and never built: each admissible generator m of S is a
    depth-(g - 1) vertex S \\ {m}, and each admissible generator v of
    that one, listed from S's table, completes the solution
    ``path + (m, v)``.  For g = 1 the leaves hang off the root.  Unbuilt
    vertices still count against the budget in preorder, checked after
    each depth-(g - 1) vertex and before its solutions are built.  On
    hitting the node budget no partial answer is kept: the result has an
    empty solution list, the truncated flag set and ``max_nodes + 1``
    nodes, the vertex the budget tripped on.
    """
    _check_count("max_nodes", max_nodes)  # _walk's own check would see max_nodes + 1
    refused = SolutionSet((), max_nodes + 1, True)
    if not inst.g:  # the root is the one depth-0 vertex, with no gaps above r
        return SolutionSet(((),), 1, False) if max_nodes >= 1 else refused
    sols = []
    path: list[int] = []
    node_count = 0
    last = max(inst.g - 2, 0)
    # _walk counts only the vertices it yields, never more than
    # node_count, so its budget of max_nodes + 1 cannot trip first
    pre = Preimages(inst)
    for gens, above, ap, f, depth in _walk(inst, pre, last, max_nodes=max_nodes + 1):
        if depth:
            path[depth - 1:] = [f]
        node_count += 1
        if node_count > max_nodes:
            return refused
        if depth < last:
            continue
        ms = admissible(above, ap, f, pre)
        if inst.g == 1:
            node_count += len(ms)
            if node_count > max_nodes:
                return refused
            sols += [(m,) for m in ms]
            continue
        prefix = tuple(path)
        for m in ms:
            vs = admissible(generators_after(gens, ap, m), ap, m, pre)
            node_count += 1 + len(vs)
            if node_count > max_nodes:
                return refused
            head = prefix + (m,)
            sols += [head + (v,) for v in vs]
    return SolutionSet(tuple(sols), node_count, False)


def export_tree(
    inst: ProblemInstance, depth_limit: int, *, max_nodes: int = DEFAULT_NODE_BUDGET
) -> str:
    """DOT rendering of the tree down to depth_limit.

    Nodes are labelled by their minimal generators and emitted in
    breadth-first order; edges follow in breadth-first order of the
    child.  The text is byte-stable for identical inputs.
    """
    path, tails = [], []
    for gens, _, _, _, depth in _walk(inst, Preimages(inst), depth_limit, max_nodes=max_nodes):
        path[depth:] = ['"<' + ",".join(map(str, gens)) + '>"']
        tails.append((depth, path[-2:]))  # [parent, vertex], or [root] alone
    # a stable sort, since preorder within one depth is breadth-first order
    tails.sort(key=lambda t: t[0])
    lines = ["digraph variety {"]
    lines += [f"  {pair[-1]};" for _, pair in tails]
    lines += [f"  {parent} -> {label};" for _, (parent, label) in tails[1:]]
    lines.append("}")
    return "\n".join(lines) + "\n"
