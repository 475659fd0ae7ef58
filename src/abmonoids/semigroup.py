"""Numerical semigroups as canonical immutable values.

A numerical semigroup is a subset of the non-negative integers that
contains 0, is closed under addition, and misses only finitely many
integers (its *gaps*).  A value is a named tuple of two fields:

* ``min_generators``, the unique minimal generating set, ascending; its
  first entry is the multiplicity m, the smallest nonzero member;
* ``apery``, the Apéry set with respect to m: ``apery[i]`` is the
  smallest member congruent to ``i`` modulo m, so ``x`` is a member
  exactly when ``x >= apery[x % m]``.

The Frobenius number (the largest gap, ``max(apery) - m``, or -1 when
there is none), the genus (the number of gaps) and the gap list are read
off the Apéry set on request: the genus in one sum by Selmer's formula
(Selmer 1977), and the count of gaps above a floor r with one more step
for each residue up to r.  Values compare and hash as tuples, field by
field; the Apéry set of every value the package builds follows from the
minimal generators, so two such values are equal exactly when their
minimal generating sets are.  ``x in s`` is semigroup membership, not a
search of the fields, and the fields cannot be reassigned.

Every value this module builds but a ray {0, m, ->}, which ``ray``
writes down, comes from one ascending worklist, ``_worklist_closure``:
the smallest (a, b)-monoid holding a seed set, closed under the maps
m -> a_i * m + b_i; ``from_generators`` is that pass with no maps.  It
adjoins only candidates not yet members, exactly the minimal generators,
each by the round-robin pass of Böcker and Lipták (2007), see
``add_generator``, so the Frobenius number never needs a bound.  Affine
images are checked against the signed 64-bit range.  ``tree.py`` builds
each tree vertex from its parent.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterable, NamedTuple

from .errors import Int64OverflowError, ResourceLimitError

# Hard ceiling on the length of an Apéry table, which is the multiplicity, so
# construction fails loudly instead of allocating unbounded memory.  At the cap
# (CPython 3.11, x86-64) from_generators({2**20 - 1, 2**20}) peaks at 79 MB RSS.
MAX_TABLE_SIZE = 1 << 20

INT64_MAX = (1 << 63) - 1

# Guard on the worklist and on the length of ``one_solution``; the pass
# provably terminates but adversarial magnitudes could exhaust memory
# long before that.
DEFAULT_MAX_GENERATORS = 10**6


class NumericalSemigroup(NamedTuple):
    min_generators: tuple[int, ...]
    apery: tuple[int, ...]

    def __contains__(self, x: int) -> bool:
        """Membership test; negative integers are never members."""
        ap = self.apery
        return x >= ap[x % len(ap)]  # x % m >= 0 and ap >= 0, so x < 0 fails

    @property
    def frobenius(self) -> int:
        """The largest gap, -1 when there is none."""
        return max(self.apery) - len(self.apery)

    @property
    def genus(self) -> int:
        """The number of gaps, by Selmer's formula (sum(apery) - m(m - 1)/2) / m:
        residue i holds the (apery[i] - i) / m gaps i, i + m, ..., apery[i] - m
        (E. S. Selmer, J. reine angew. Math. 293/294, 1977)."""
        ap = self.apery
        m = len(ap)
        return (sum(ap) - m * (m - 1) // 2) // m

    @property
    def gaps(self) -> tuple[int, ...]:
        """All gaps, ascending: i, i + m, ..., apery[i] - m for each residue i."""
        m = len(self.apery)
        return tuple(sorted(v for i, w in enumerate(self.apery) for v in range(i, w, m)))

    def gap_count_above(self, r: int) -> int:
        """Number of gaps >= r + 1: the genus minus the gaps up to r.  Those lie
        in the residues i <= r, and residue i holds (min(apery[i], r + m) - i) // m
        of them, so the count costs Selmer's sum (see ``genus``) and min(r + 1, m)
        residues; a negative r counts every gap."""
        m = len(self.apery)
        low = sum((min(w, r + m) - i) // m for i, w in enumerate(self.apery[:max(r + 1, 0)]))
        return self.genus - low

    def __repr__(self):
        return "<" + ",".join(map(str, self.min_generators)) + ">"


def apery_table(m: int) -> list:
    """The Apéry table of the monoid {0} modulo ``m``: unreached residues hold inf."""
    if m > MAX_TABLE_SIZE:
        raise ResourceLimitError(
            f"Apéry table would exceed {MAX_TABLE_SIZE} entries for multiplicity {m}"
        )
    ap = [math.inf] * m
    ap[0] = 0
    return ap


def add_generator(ap: list, g: int) -> None:
    """Adjoin ``g``, not yet a member, to the Apéry table ``ap`` in place.

    ``ap[i]`` is the smallest member congruent to ``i`` modulo len(ap),
    or inf when no member is.  Adding g links the residues into gcd(g, m)
    cycles i -> i + g; each cycle is walked once from its smallest entry,
    which no predecessor on the cycle can lower, relaxing every entry
    against its predecessor plus g (Böcker & Lipták 2007).
    """
    m = len(ap)
    d = math.gcd(g, m)
    for r in range(d):
        n = min(ap[r::d])
        if n == math.inf:
            continue  # no member in this cycle yet, and g cannot reach it
        for _ in range(m // d - 1):
            n += g
            p = n % m
            if ap[p] < n:
                n = ap[p]
            else:
                ap[p] = n


def _affine_value(ai: int, m: int, bi: int) -> int:
    v = ai * m + bi
    if v > INT64_MAX:
        raise Int64OverflowError(f"{ai}*{m}+{bi} exceeds the signed 64-bit range")
    return v


def _worklist_closure(a, b, seed) -> NumericalSemigroup:
    """Smallest (a, b)-monoid C holding the positive ``seed``, which must
    have gcd(seed + b) == 1 (so C is a numerical semigroup).

    One Apéry table modulo n1, the smallest seed value and the multiplicity
    of C, tracks the monoid generated so far.  Candidates leave a min-heap
    ascending, and one is adjoined only when not yet a member, so the values
    adjoined are exactly the minimal generators of C:

    * a minimal generator n of C is a seed value or the image of a smaller
      one, else C \\ {n} would be a smaller (a, b)-monoid holding the seed
      (the image of a sum s + t splits as a_i*s + (a_i*t + b_i));
    * values pushed exceed the one popped, so when c is popped every
      minimal generator below c has been adjoined and the table holds C
      below c: c is a member exactly when it is not a minimal generator.

    The pass ends, as the generators reach gcd 1 after the first step and
    only non-members are pushed.  More than ``DEFAULT_MAX_GENERATORS``
    minimal generators raise ResourceLimitError.
    """
    n1 = min(seed)
    # The first step's images are taken before the table is sized, so an
    # out-of-range seed reports overflow rather than the table cap.  n1 and
    # repeated values pop as members.
    heap = [*seed, *(_affine_value(ai, n1, bi) for ai, bi in zip(a, b))]
    heapq.heapify(heap)
    ap = apery_table(n1)  # the table of <n1>: ap[0] == 0
    gens = [n1]
    while heap:
        m = heapq.heappop(heap)
        if m >= ap[m % n1]:
            continue
        add_generator(ap, m)
        gens.append(m)
        if len(gens) > DEFAULT_MAX_GENERATORS:
            raise ResourceLimitError(
                f"closure generator set exceeded {DEFAULT_MAX_GENERATORS} elements"
            )
        for ai, bi in zip(a, b):
            v = _affine_value(ai, m, bi)
            if v < ap[v % n1]:
                heapq.heappush(heap, v)
    return NumericalSemigroup(tuple(gens), tuple(ap))


def ray(m: int) -> NumericalSemigroup:
    """{0, m, m+1, ...} in O(m): generators m..2m-1, Apéry set (0, m+1, ..., 2m-1)."""
    ap = apery_table(m)
    gens = tuple(range(m, 2 * m))
    ap[1:] = gens[1:]  # the generators' int objects, not a second copy
    return NumericalSemigroup(gens, tuple(ap))


def from_generators(gens: Iterable[int]) -> NumericalSemigroup:
    """Canonical numerical semigroup generated by ``gens``.

    The generators must be a non-empty collection of positive ``int``
    values with gcd 1 (otherwise the generated monoid has an infinite
    complement and is represented elsewhere as a scaled semigroup).  It is
    the worklist with no affine maps, so more than ``DEFAULT_MAX_GENERATORS``
    minimal generators raise ResourceLimitError.
    """
    gen_set = set(gens)
    if not all(isinstance(g, int) for g in gen_set):
        raise ValueError("generators must be integers")
    gen_list = sorted(gen_set)
    if not gen_list:
        raise ValueError("at least one generator is required")
    if gen_list[0] < 1:
        raise ValueError(f"generators must be positive, got {gen_list[0]}")
    d = math.gcd(*gen_list)
    if d != 1:
        raise ValueError(f"gcd of generators is {d}, expected 1")
    return _worklist_closure((), (), gen_list)

