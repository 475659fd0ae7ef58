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
{0, n1+1, ->} starts a fresh table.  The walk holds the path of removed
generators and at most one frame per depth (a vertex's generators, the
admissible ones and a cursor; none for a vertex without an admissible
one), builds a child's generators only on entering it, and
yields bare ``(generators, above, table, path)``, ``above`` being the
generators above the Frobenius number; callers build a
``NumericalSemigroup`` only for the vertices they keep (the Apéry
update of Bras-Amorós's generator-removal tree, walked with the
explicit stack of Fromentin and Hivert).  A depth-g vertex is S \\ {m}
for a generator m of its parent S whose removal is admissible, so
``solve`` walks to depth g - 1 and lists ``path + (m,)`` for each m,
entering no leaf.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

from .closure import ProblemInstance
from .errors import ResourceLimitError
from .semigroup import NumericalSemigroup, ray, remove_generator
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
    with no maps and no seeds, whose every entry would be empty.
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
    ``pre`` for it is a member of this semigroup; a free table keeps them
    all unread.
    """
    if pre.free:
        return list(above)
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
    # one frame per vertex on the path with an admissible generator: its
    # generators, its table, those generators and the index of the next one
    frames: list[list] = []
    count = 0
    while True:
        count += 1
        if count > max_nodes:
            raise _over_budget(max_nodes, len(path))
        yield gens, above, ap, path
        if len(path) < depth_limit:
            ms = admissible(above, ap, pre)
            if ms:
                frames.append([gens, ap, ms, 0])
                path.append(0)
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
                path.pop()
                continue
            frame[3] = i + 1
            m = path[-1] = ms[i]
            if m == n1:  # only {0, n1, ->} can lose its multiplicity, leaving {0, m+1, ->}
                child = ray(m + 1)
                above = gens = child.min_generators
                ap = list(child.apery)
                break
            # S \ {m} keeps S's generators above m and gains m + n1 unless some
            # smaller generator n_j has m + n1 - n_j in S; appending keeps the
            # order, since each generator n_j has n_j - n1 <= frobenius < m
            j = gens.index(m)
            above = gens[j + 1:]
            c = m + n1
            for g in gens[1:j]:
                if c - g >= ap[(c - g) % n1]:
                    break
            else:
                above += (c,)
            gens = gens[:j] + above
            ap[m % n1] = c
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

    The walk stops at depth g - 1, and each admissible generator v of a
    vertex there is a leaf, listed as ``path + (v,)`` and never built.
    The leaves still count against the budget in preorder, right after
    their parent and before they are listed; vertex max_nodes + 1 raises
    the same ResourceLimitError as in ``_walk``.
    """
    _check_count("max_nodes", max_nodes)
    if not inst.g:  # the root is the one depth-0 vertex, with no gaps above r
        if not max_nodes:
            raise _over_budget(max_nodes, 0)
        return SolutionSet(((),), 1, False)
    sols = []
    node_count = 0
    last = inst.g - 1
    pre = Preimages(inst)
    for _, above, ap, path in _walk(inst, pre, last, max_nodes=max_nodes):
        node_count += 1
        if node_count > max_nodes:
            raise _over_budget(max_nodes, len(path))
        if len(path) < last:
            continue
        vs = admissible(above, ap, pre)
        node_count += len(vs)
        if node_count > max_nodes:
            raise _over_budget(max_nodes, inst.g)
        prefix = tuple(path)
        sols += [prefix + (v,) for v in vs]
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
