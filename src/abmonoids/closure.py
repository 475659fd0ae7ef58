"""Smallest (a, b)-closed monoids and the feasibility layer.

Throughout, ``a = (a_1, ..., a_n)`` and ``b = (b_1, ..., b_n)`` are equal
length tuples of positive integers.  A submonoid M of the non-negative
integers under addition is an *(a, b)-monoid* when ``a_i * m + b_i`` lies
in M for every nonzero m in M and every coordinate i.  It suffices to
check the condition on a generating set: the affine images of a sum
``m = s + t`` split as ``a_i * s + (a_i * t + b_i)``, which is a member
whenever the generator images are.

``closure`` computes the smallest (a, b)-monoid containing a finite seed
set ``x`` by a worklist pass: repeatedly take the smallest unprocessed
generator m and adjoin every ``a_i * m + b_i`` not already generated.
Letting ``d = gcd(x + b)``, the result is ``d`` times the closure of the
divided data, and the divided closure is a genuine numerical semigroup
(its generators reach gcd 1 after the first worklist step, so only
finitely many elements can ever be missing and the pass terminates).
``SubmonoidRep`` stores exactly this scaled form.

All arithmetic is checked against the signed 64-bit range; exceeding it
raises instead of silently producing huge search spaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    EmptyGeneratorsError,
    EmptyXError,
    InfeasibleError,
    Int64OverflowError,
    InvalidInstanceError,
    ResourceLimitError,
    ZeroGeneratorError,
)
from .semigroup import NumericalSemigroup, add_generator, apery_table, from_apery, from_generators

INT64_MAX = (1 << 63) - 1

# Guard on the worklist; the pass provably terminates but adversarial
# magnitudes could exhaust memory long before that.
DEFAULT_MAX_GENERATORS = 10**6


def _affine_value(ai: int, m: int, bi: int) -> int:
    v = ai * m + bi
    if v > INT64_MAX:
        raise Int64OverflowError(f"{ai}*{m}+{bi} exceeds the signed 64-bit range")
    return v


@dataclass(frozen=True)
class ProblemInstance:
    """Parameters of the set-search problem.

    ``a`` and ``b`` are the multiplier/offset tuples of the affine
    conditions, ``x`` the forbidden values, ``g`` the required solution
    cardinality, and ``r`` the floor: solutions draw their elements from
    the integers >= r + 1.  ``r = 0`` is the plain problem.
    """

    a: tuple[int, ...] = ()
    b: tuple[int, ...] = ()
    x: frozenset[int] = frozenset()
    g: int = 0
    r: int = 0

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(self.a))
        object.__setattr__(self, "b", tuple(self.b))
        object.__setattr__(self, "x", frozenset(self.x))
        if len(self.a) != len(self.b):
            raise InvalidInstanceError(
                f"a and b must have the same length, got {len(self.a)} and {len(self.b)}"
            )
        if any(v < 1 for v in self.a + self.b):
            raise InvalidInstanceError("entries of a and b must be positive integers")
        if self.g < 0:
            raise InvalidInstanceError("g must be non-negative")
        if self.r < 0:
            raise InvalidInstanceError("r must be non-negative")
        if any(v < self.r + 1 for v in self.x):
            raise InvalidInstanceError(f"x must be a subset of {{{self.r + 1}, {self.r + 2}, ...}}")

    @property
    def n(self) -> int:
        return len(self.a)


@dataclass(frozen=True)
class SubmonoidRep:
    """A monoid of the form d * S with S a numerical semigroup.

    ``d`` is the gcd of the represented monoid; the monoid is a numerical
    semigroup itself (finite complement) exactly when d == 1.
    """

    d: int
    base: NumericalSemigroup

    @property
    def finite_complement(self) -> bool:
        return self.d == 1

    def contains(self, v: int) -> bool:
        if v < 0:
            return False
        return v % self.d == 0 and self.base.contains(v // self.d)

    def expanded_generators(self) -> tuple[int, ...]:
        """Minimal generators of the represented monoid itself."""
        return tuple(self.d * g for g in self.base.min_generators)

    def gap_count_within(self, r: int) -> int | float:
        """Number of integers >= r + 1 outside the monoid (inf when d > 1)."""
        if self.d > 1:
            return math.inf
        return self.base.gap_count_above(r)

    def first_gaps_within(self, r: int, k: int) -> tuple[int, ...]:
        """The k smallest integers >= r + 1 outside the monoid."""
        out = []
        v = r + 1
        while len(out) < k:
            if self.d == 1 and v > self.base.frobenius:
                break  # no gaps remain; caller checks feasibility first
            if not self.contains(v):
                out.append(v)
            v += 1
        return tuple(out)


@dataclass(frozen=True)
class TrivialMonoid:
    """The monoid {0}: the closure of an empty seed set.

    Every co-finite ray {0, k, ->} satisfies the affine conditions, so the
    intersection of all admissible semigroups collapses to {0} when there
    is no seed to keep.  Mirrors the SubmonoidRep query surface.
    """

    @property
    def finite_complement(self) -> bool:
        return False

    def contains(self, v: int) -> bool:
        return v == 0

    def expanded_generators(self) -> tuple[int, ...]:
        return ()

    def gap_count_within(self, r: int) -> int | float:
        return math.inf

    def first_gaps_within(self, r: int, k: int) -> tuple[int, ...]:
        return tuple(range(r + 1, r + 1 + k))


def is_ab_monoid(gens, a, b) -> bool:
    """Does the monoid generated by ``gens`` satisfy the affine conditions?

    Only the generators need checking.  ``gens`` may have gcd > 1;
    membership is then tested inside the scaled-down semigroup.
    """
    gen_list = sorted(set(gens))
    if not gen_list:
        raise EmptyGeneratorsError("at least one generator is required")
    if gen_list[0] < 1:
        raise ZeroGeneratorError(f"generators must be positive, got {gen_list[0]}")
    d = math.gcd(*gen_list)
    base = from_generators(g // d for g in gen_list)
    for m in gen_list:
        for ai, bi in zip(a, b):
            v = _affine_value(ai, m, bi)
            if v % d != 0 or not base.contains(v // d):
                return False
    return True


def _worklist_closure(a, b, seed, max_generators):
    """Run the worklist pass; gcd(seed + b) must already be 1.

    One Apéry table modulo the smallest seed value, the multiplicity of
    the result since every affine image is larger, tracks the generated
    monoid; each new generator is adjoined to it in place.  Returns
    (semigroup, provenance, order): provenance maps each generator to
    None (seed element) or to the pair (m, i) whose affine image produced
    it, and order lists the processed elements.
    """
    pending = sorted(set(seed), reverse=True)  # popped smallest first
    provenance: dict[int, tuple[int, int] | None] = dict.fromkeys(pending)
    order: list[int] = []
    n1 = pending[-1]
    # The first step's images are checked before the table is sized, so an
    # out-of-range seed reports overflow rather than the table cap.
    for ai, bi in zip(a, b):
        _affine_value(ai, n1, bi)
    ap = apery_table(n1)
    for g in reversed(pending):
        add_generator(ap, g)

    while pending:
        m = pending.pop()
        fresh = []
        for i, (ai, bi) in enumerate(zip(a, b)):
            v = _affine_value(ai, m, bi)
            if v < ap[v % n1]:
                add_generator(ap, v)
                provenance[v] = (m, i)
                fresh.append(v)
        if fresh:
            if len(provenance) > max_generators:
                raise ResourceLimitError(
                    f"closure generator set exceeded {max_generators} elements",
                    node_count=len(provenance),
                )
            pending = sorted(pending + fresh, reverse=True)
        order.append(m)
    return from_apery(ap, provenance), provenance, tuple(order)


def closure(a, b, x, *, max_generators: int = DEFAULT_MAX_GENERATORS) -> SubmonoidRep:
    """Smallest (a, b)-monoid containing the non-empty finite set ``x``.

    Returned in scaled form: with d = gcd(x + b), the monoid equals
    d times a numerical semigroup computed on the divided data.
    """
    a = tuple(a)
    b = tuple(b)
    xs = sorted(set(x))
    if not xs:
        raise EmptyXError("x must be non-empty (the empty seed closes to the zero monoid)")
    if len(a) != len(b):
        raise InvalidInstanceError(f"a and b must have the same length, got {len(a)} and {len(b)}")
    if any(v < 1 for v in a + b) or xs[0] < 1:
        raise InvalidInstanceError("a, b and x entries must be positive integers")

    d = math.gcd(*xs, *b)
    bs = tuple(v // d for v in b)
    base, provenance, order = _worklist_closure(a, bs, [v // d for v in xs], max_generators)

    if __debug__:
        processed = set(order)
        for gen, src in provenance.items():
            if src is not None:
                m, i = src
                assert gen == a[i] * m + bs[i] and m in processed

    return SubmonoidRep(d=d, base=base)


def instance_closure(
    inst: ProblemInstance, *, max_generators: int = DEFAULT_MAX_GENERATORS
) -> SubmonoidRep | TrivialMonoid:
    """Closure of an instance's seed set, degenerating to {0} when empty."""
    if not inst.x:
        return TrivialMonoid()
    return closure(inst.a, inst.b, inst.x, max_generators=max_generators)


@dataclass(frozen=True)
class Feasibility:
    feasible: bool
    gap_count: int | float

    def __bool__(self) -> bool:
        return self.feasible


def feasible(inst: ProblemInstance, *, max_generators: int = DEFAULT_MAX_GENERATORS) -> Feasibility:
    """Whether a solution exists, with the witnessing gap count.

    A solution exists iff at least ``g`` integers >= r + 1 lie outside
    the closure monoid; an infinite complement is always enough.
    """
    monoid = instance_closure(inst, max_generators=max_generators)
    count = monoid.gap_count_within(inst.r)
    return Feasibility(count >= inst.g, count)


def one_solution(inst: ProblemInstance, *, max_generators: int = DEFAULT_MAX_GENERATORS) -> tuple[int, ...]:
    """A single solution: the g smallest integers >= r + 1 outside the closure."""
    monoid = instance_closure(inst, max_generators=max_generators)
    count = monoid.gap_count_within(inst.r)
    if count < inst.g:
        raise InfeasibleError(
            f"instance needs {inst.g} available values >= {inst.r + 1}, only {count} exist"
        )
    solution = monoid.first_gaps_within(inst.r, inst.g)
    if __debug__:
        from .oracle import check_conditions

        assert check_conditions(solution, inst)
    return solution
