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
breadth-first order, and the sorted order of the solutions.  Parents and
solutions are read off the path: each removed generator is the Frobenius
number of the vertex it leads to.

``_walk``, the one kernel behind ``solve``, ``enumerate_levels`` and
``export_tree``, keeps an explicit stack (after Fromentin and Hivert);
``_enter``, the one child rule, makes the Apéry update of Bras-Amorós's
generator-removal tree; ``_ray_kept`` gives a ray's admissible generators
and ``Preimages`` is the per-run admissibility table.
"""

from __future__ import annotations

from bisect import insort
from typing import Callable, NamedTuple, Sequence

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
    with no maps and no seeds, whose every entry would be empty; ``_enter``
    reads it to keep every generator without a lookup.  ``units`` holds
    the distinct offsets b_i of the maps with a_i = 1, ascending: ``_enter``
    tests their images, and the smallest bounds a ray's admissible
    generators (``_ray_kept``).
    """

    __slots__ = ("maps", "x", "free", "units")

    def __init__(self, inst: ProblemInstance):
        super().__init__()
        self.maps = tuple(zip(inst.a, inst.b))
        self.x = inst.x
        self.free = not (self.maps or self.x)
        self.units = tuple(sorted({b for a, b in self.maps if a == 1}))

    def __missing__(self, m: int) -> tuple[int, ...]:
        if m in self.x:
            out: tuple[int, ...] = (0,)
        else:
            out = tuple(sorted({(m - b) // a for a, b in self.maps if m > b and not (m - b) % a}))
        self[m] = out
        return out


def _ray_kept(k: int, pre: Preimages) -> list[int]:
    """The admissible generators of the ray {0, k, ->}, ascending, in closed
    form: those in [k, k + min(k, u)) that are not seed values, with u the
    smallest offset of a map with multiplier 1 (u = k without one).

    The ray's minimal generators are k..2k - 1, and its positive members
    the values >= k.  A generator m has the preimage (m - b) / a under a
    map (a, b): with a >= 2 it is at most (2k - 2) / 2 < k, a gap, and with
    a = 1 it is m - b, a member exactly when m >= k + b.  So a non-seed m is
    kept exactly when m < k + u.
    """
    return [m for m in range(k, k + min((k, *pre.units))) if m not in pre.x]


def children(s: NumericalSemigroup, inst: ProblemInstance) -> list[NumericalSemigroup]:
    """Admissible single-generator removals, ascending by removed generator."""
    f, pre = s.frobenius, Preimages(inst)
    kept = [m for m in s.min_generators if m > f and not any(p in s for p in pre[m])]
    return [remove_generator(s, m) for m in kept]


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


def _enter(
    gens: tuple[int, ...], ap: list[int], kept: Sequence[int], i: int, pre: Preimages
) -> tuple[int, tuple[int, ...], list[int], Sequence[int]]:
    """The child S \\ {m}, m = kept[i], of the vertex S with generators
    ``gens``, table ``ap`` and admissible generators ``kept`` ascending, as
    ``(j, above, table, admissible)``: its generators are ``gens[:j] +
    above``, ``above`` holds those above its Frobenius number m, and
    ``admissible`` lists its admissible generators, ascending.

    Only the ray {0, n1, ->} can lose its multiplicity n1 = gens[0], leaving
    the fresh ray {0, m+1, ->}, with j = 0, whose admissible generators
    ``_ray_kept`` writes down.  Otherwise ``ap`` becomes the table, its
    entry ``ap[m % n1]`` moved from m to m + n1, the smallest member left in
    m's residue, which the caller puts back; j is m's index, and ``above``
    is S's generators after m, plus m + n1 unless m + n1 - n is a member for
    a generator n between n1 and m.  Every other new minimal generator would
    be m + t for a member t > n1, a sum n1 + (m + t - n1) of two members
    left; m + n1 - n is below m, so S's table answers for it, and m + n1
    comes last, since every generator n has n - n1 <= frobenius < m.

    With no maps and no seeds, every generator in ``above`` is admissible,
    the ray's included, and none is looked up.  Otherwise every generator
    in ``kept[i + 1:]`` stays admissible, since S \\ {m} is inside S, and a
    generator S blocked is freed only when m was its member preimage:
    a*m + b for a map (a, b).  With a >= 2 that is at least 2m + 1 > m + n1,
    above every generator of S \\ {m}; with a = 1 and b < n1 it is m + b,
    blocked by m in S and so not in ``kept``; b = n1 gives m + n1 itself.
    So only those m + b in ``above`` and the new generator m + n1 are
    tested.
    """
    n1, m = gens[0], kept[i]
    if m == n1:
        above, table = ray(m + 1)
        return 0, above, list(table), above if pre.free else _ray_kept(m + 1, pre)
    j = gens.index(m)
    c = m + n1
    ap[m % n1] = c
    above = gens[j + 1:]
    for n in gens[1:j]:
        if c - n >= ap[(c - n) % n1]:
            break
    else:
        above += (c,)
    if pre.free:
        return j, above, ap, above
    kept = kept[i + 1:]
    for b in pre.units:
        if b >= n1:
            break
        v = m + b
        if v in above:
            for p in pre[v]:
                if p >= ap[p % n1]:
                    break
            else:
                insort(kept, v)
    if above and above[-1] == c:
        for p in pre[c]:
            if p >= ap[p % n1]:
                break
        else:
            kept.append(c)
    return j, above, ap, kept


_FREE = Preimages(ProblemInstance())  # no constraints: ``_enter`` never fills it


def remove_generator(s: NumericalSemigroup, m: int) -> NumericalSemigroup:
    """The semigroup ``s`` minus its minimal generator ``m``, for m above its
    Frobenius number: ``_enter`` on a copy of its table."""
    gens = s.min_generators
    if m not in gens:
        raise ValueError(f"{m} is not a minimal generator of {s}")
    if m <= s.frobenius:
        raise ValueError(f"{m} is not above the Frobenius number {s.frobenius}")
    j, above, ap, _ = _enter(gens, list(s.apery), [m], 0, _FREE)
    return NumericalSemigroup(gens[:j] + above, tuple(ap))


def _walk(
    inst: ProblemInstance,
    pre: Preimages,
    depth_limit: int,
    *,
    max_nodes: int,
    visit: Callable[[tuple[int, ...], Sequence[int], list[int], list[int]], None] | None = None,
    sols: list[tuple[int, ...]] | None = None,
) -> int:
    """Walk the tree down to depth_limit in preorder and return the number
    of vertices counted.

    A frame ``[generators, table, admissible generators, place of the child
    walked]`` is kept for each vertex on the path with an admissible
    generator.  A ray {0, n1, ->} walking its ray child, which has a fresh
    table, keeps only ``[(n1,), None, None, 0]``, so a spine of rays holds
    O(1) per depth.  On the way back it lists its admissible generators
    again, and rebuilds its generators and table only when it has a next
    child.

    ``visit(generators, kept, apery, path)`` is called on each vertex:
    ``kept`` lists its admissible generators and ``path`` the generators
    removed on the way from the root, so its depth is ``len(path)``.
    ``apery`` and ``path`` are the walk's live lists, valid only during the
    call.  ``pre`` is the instance's preimage table, shared with the caller.

    Most vertices sit in the last two levels, so with ``sols`` those are
    read off each vertex S at depth_limit instead: for each admissible
    generator m of S, ``_enter`` gives the leaves v of S \\ {m}, listed as
    ``path + (m, v)``, and S's entry is put back.  S \\ {m} counts together
    with its leaves, after its elder siblings' leaves, so one check finds
    vertex max_nodes + 1 in preorder, at depth_limit + 1 when S \\ {m}
    itself is past the budget and at depth_limit + 2 otherwise.  Raises
    ResourceLimitError on vertex max_nodes + 1.
    """
    _check_count("depth_limit", depth_limit)
    _check_count("max_nodes", max_nodes)
    # the root is admissible: each image a_i*m + b_i > m >= r + 1 is a member
    gens, ap = ray(inst.r + 1)
    ap = list(ap)
    kept = _ray_kept(inst.r + 1, pre)
    path: list[int] = []
    frames: list[list] = []  # path[-1] names the top frame's child walked
    count = 0
    while True:
        count += 1
        if count > max_nodes:
            raise _over_budget(max_nodes, len(path))
        if visit is not None:
            visit(gens, kept, ap, path)
        if len(path) < depth_limit:
            if kept:
                frames.append([gens, ap, kept, -1])
                path.append(0)  # restoring "child 0" rewrites ap[0] = 0, a no-op
        elif sols is not None:
            n1 = gens[0]
            base = tuple(path)
            for i, m in enumerate(kept):
                # entered before it counts, as in the walk, so the table cap trips first
                vs = _enter(gens, ap, kept, i, pre)[3]
                if m != n1:
                    ap[m % n1] = m
                count += 1 + len(vs)
                if count > max_nodes:  # S \ {m}, or one of its leaves
                    below = 1 if count - len(vs) > max_nodes else 2
                    raise _over_budget(max_nodes, depth_limit + below)
                # not ``sols += [...]``: slower in 3 of 4 pairs on CPython 3.11.7, 4 of 4 on 3.13.13
                for v in vs:
                    sols.append(base + (m, v))
        while frames:  # undo the last removal below the top frame, then take the next
            frame = frames[-1]
            gens, ap, kept, i = frame
            n1 = gens[0]
            m = path[-1]
            if m != n1:
                ap[m % n1] = m
            elif ap is None:  # a ray back from its ray child: it dropped its table and list
                kept = _ray_kept(n1, pre)
                if i + 1 < len(kept):  # rebuilt only for a next child
                    gens, ap = ray(n1)
                    ap = list(ap)
                    frame[:3] = gens, ap, kept
            i += 1
            if i == len(kept):
                frames.pop()
                path.pop()
                continue
            frame[3] = i
            path[-1] = kept[i]
            j, above, ap, kept = _enter(gens, ap, kept, i, pre)
            if not j:  # a ray's ray child, with a fresh table: the ray holds only n1
                frame[:3] = gens[:1], None, None
            gens = gens[:j] + above
            break
        else:
            return count


def enumerate_levels(
    inst: ProblemInstance, depth_limit: int, *, max_nodes: int = DEFAULT_NODE_BUDGET
) -> list[list[NumericalSemigroup]]:
    """The vertices at depths 0..depth_limit, one breadth-first list per depth.

    Ends early at the last non-empty depth when the tree is exhausted.
    """
    levels: list[list[NumericalSemigroup]] = []

    def visit(gens, _, ap, path):
        if len(path) == len(levels):  # preorder reaches depth k after depth k - 1
            levels.append([])
        levels[len(path)].append(NumericalSemigroup(gens, tuple(ap)))

    _walk(inst, Preimages(inst), depth_limit, max_nodes=max_nodes, visit=visit)
    return levels


def solve(inst: ProblemInstance, *, max_nodes: int = DEFAULT_NODE_BUDGET) -> SolutionSet:
    """All solutions of the instance, read off the paths to the depth-g
    vertices by ``_walk``'s two-level read at depth g - 2.  At g = 1 the
    root's leaves are read off it, counted and refused by the same rule.
    """
    _check_count("max_nodes", max_nodes)
    g = inst.g
    if not g:  # the root is the one depth-0 vertex, with no gaps above r
        if not max_nodes:
            raise _over_budget(max_nodes, 0)
        return SolutionSet(((),), 1, False)
    pre = Preimages(inst)
    if g == 1:  # the root is the depth-(g - 1) vertex
        ray(inst.r + 1)  # built only to refuse a root over the table cap, as the walk does
        vs = _ray_kept(inst.r + 1, pre)
        if 1 + len(vs) > max_nodes:  # the root, or one of its leaves
            raise _over_budget(max_nodes, 1 if max_nodes else 0)
        return SolutionSet(tuple((v,) for v in vs), 1 + len(vs), False)
    sols: list[tuple[int, ...]] = []
    node_count = _walk(inst, pre, g - 2, max_nodes=max_nodes, sols=sols)
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

    def visit(gens, _, __, path):
        depth = len(path)
        labels[depth:] = ['"<' + ",".join(map(str, gens)) + '>"']
        tails.append((depth, labels[-2:]))  # [parent, vertex], or [root] alone

    _walk(inst, Preimages(inst), depth_limit, max_nodes=max_nodes, visit=visit)
    # a stable sort, since preorder within one depth is breadth-first order
    tails.sort(key=lambda t: t[0])
    lines = ["digraph variety {"]
    lines += [f"  {pair[-1]};" for _, pair in tails]
    lines += [f"  {parent} -> {label};" for _, (parent, label) in tails[1:]]
    lines.append("}")
    return "\n".join(lines) + "\n"
