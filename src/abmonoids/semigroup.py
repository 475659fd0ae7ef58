"""Numerical semigroups as canonical immutable values.

A numerical semigroup is a subset of the non-negative integers that
contains 0, is closed under addition, and misses only finitely many
integers (its *gaps*).  A value stores:

* ``min_generators``, the unique minimal generating set, ascending; its
  first entry is the multiplicity m, the smallest nonzero member;
* ``apery``, the Apéry set with respect to m: ``apery[i]`` is the
  smallest member congruent to ``i`` modulo m, so ``x`` is a member
  exactly when ``x >= apery[x % m]``;
* ``frobenius``, the largest gap ``max(apery) - m``, with the convention
  -1 when there are no gaps (the semigroup is all of the non-negative
  integers);
* ``genus``, the number of gaps, by Selmer's formula
  ``sum(apery) = m * genus + m * (m - 1) / 2``.

``gaps`` and the membership table ``small_elements`` are built from the
Apéry set on request.  Two values are equal exactly when their minimal
generating sets are equal; the remaining fields are derived data.

Apéry sets are built one generator at a time by the round-robin pass of
Böcker and Lipták (2007), see ``add_generator``; the stored semigroup
never needs a bound on its Frobenius number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .errors import ResourceLimitError

# Hard ceiling on the length of an Apéry table, which is the multiplicity, so
# construction fails loudly instead of allocating unbounded memory.  At the cap
# (CPython 3.11, x86-64) from_generators({2**20 - 1, 2**20}) peaks at 79 MB RSS.
MAX_TABLE_SIZE = 1 << 20


@dataclass(frozen=True, eq=False)
class NumericalSemigroup:
    min_generators: tuple[int, ...]
    apery: tuple[int, ...]
    frobenius: int
    genus: int

    def contains(self, x: int) -> bool:
        """Membership test; negative integers are never members."""
        ap = self.apery
        return x >= ap[x % len(ap)]  # x % m >= 0 and ap >= 0, so x < 0 fails

    def __contains__(self, x: int) -> bool:
        return self.contains(x)

    @property
    def gaps(self) -> tuple[int, ...]:
        """All gaps, ascending: i, i + m, ..., apery[i] - m for each residue i."""
        m = len(self.apery)
        return tuple(sorted(v for i, w in enumerate(self.apery) for v in range(i, w, m)))

    @property
    def small_elements(self) -> tuple[bool, ...]:
        """Membership of each of 0, 1, ..., frobenius + 1."""
        return tuple(map(self.contains, range(self.frobenius + 2)))

    def gap_count_above(self, r: int) -> int:
        """Number of gaps >= r + 1, without listing the gaps i, i + m, ...,
        apery[i] - m of each residue i; the first >= r + 1 is r + 1 + (i - r - 1) % m."""
        m = len(self.apery)
        return sum(max(0, (w - r - 1 - (i - r - 1) % m) // m) for i, w in enumerate(self.apery))

    def __eq__(self, other):
        if not isinstance(other, NumericalSemigroup):
            return NotImplemented
        return self.min_generators == other.min_generators

    def __hash__(self):
        return hash(self.min_generators)

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
    """Adjoin the generator ``g`` to the Apéry table ``ap`` in place.

    ``ap[i]`` is the smallest member congruent to ``i`` modulo len(ap),
    or inf when no member is.  Adding g links the residues into gcd(g, m)
    cycles i -> i + g; each cycle is walked once from its smallest entry,
    which no predecessor on the cycle can lower, relaxing every entry
    against its predecessor plus g (Böcker & Lipták 2007).
    """
    m = len(ap)
    if g >= ap[g % m]:
        return  # already a member
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


def from_apery(ap: list, candidates: Iterable[int]) -> NumericalSemigroup:
    """The semigroup whose complete Apéry table modulo its multiplicity is ``ap``.

    ``candidates`` must be members and contain every minimal generator.  In
    ascending order, a candidate c is one exactly when no smaller minimal
    generator n leaves c - n a member: a sum c = s + t of nonzero members
    has some minimal generator n <= s with s - n, hence c - n, a member.
    """
    m = len(ap)
    min_gens: list[int] = []
    for c in sorted(set(candidates)):
        if not any(c - n >= ap[(c - n) % m] for n in min_gens):
            min_gens.append(c)
    return NumericalSemigroup(
        min_generators=tuple(min_gens),
        apery=tuple(ap),
        frobenius=max(ap) - m,
        genus=(sum(ap) - m * (m - 1) // 2) // m,
    )


def from_generators(gens: Iterable[int]) -> NumericalSemigroup:
    """Canonical numerical semigroup generated by ``gens``.

    The generators must be a non-empty collection of positive integers
    with gcd 1 (otherwise the generated monoid has an infinite
    complement and is represented elsewhere as a scaled semigroup).
    """
    gen_list = sorted(set(gens))
    if not gen_list:
        raise ValueError("at least one generator is required")
    if gen_list[0] < 1:
        raise ValueError(f"generators must be positive, got {gen_list[0]}")
    d = math.gcd(*gen_list)
    if d != 1:
        raise ValueError(f"gcd of generators is {d}, expected 1")
    ap = apery_table(gen_list[0])
    for g in gen_list[1:]:
        add_generator(ap, g)
    return from_apery(ap, gen_list)


def remove_generator(s: NumericalSemigroup, m: int) -> NumericalSemigroup:
    """The semigroup ``s`` minus the minimal generator ``m``, for m > frobenius.

    The removal keeps every other element, so the result has Frobenius
    number ``m`` and one more gap.  Its minimal generators are updated
    incrementally instead of being recomputed from scratch: removing the
    multiplicity only happens when the semigroup is ``{0, m, m+1, ...}``
    and shifts the whole ray; otherwise either the remaining generators
    still generate, or ``m + multiplicity`` becomes the one new minimal
    generator, depending on whether some smaller generator ``n_j`` has
    ``m + multiplicity - n_j`` in ``s``, read off the copied Apéry set.
    The Apéry element of m's residue moves from m to m + multiplicity, the
    smallest member left there.
    """
    gens = s.min_generators
    if m not in gens:
        raise ValueError(f"{m} is not a minimal generator of {s}")
    if m <= s.frobenius:
        raise ValueError(f"{m} is not above the Frobenius number {s.frobenius}")

    n1 = gens[0]
    if m == n1:
        # m > frobenius forces s == {0, m, ->}; dropping m leaves {0, m+1, ->}.
        new_gens = tuple(range(m + 1, 2 * m + 2))
        apery = (0,) + tuple(range(m + 2, 2 * m + 2))
    else:
        i = gens.index(m)
        new_gens = gens[:i] + gens[i + 1:]
        ap = list(s.apery)
        for g in gens[1:i]:
            c = m + n1 - g
            if c >= ap[c % n1]:
                break
        else:
            # appending keeps the order: each generator g has g - n1 <= frobenius < m
            new_gens += (m + n1,)
        ap[m % n1] = m + n1
        apery = tuple(ap)
    return NumericalSemigroup(min_generators=new_gens, apery=apery, frobenius=m, genus=s.genus + 1)
