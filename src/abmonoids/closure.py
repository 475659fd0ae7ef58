"""Smallest (a, b)-closed monoids and the feasibility layer.

A submonoid M of the non-negative integers under addition is an
*(a, b)-monoid* when ``a_i * m + b_i`` lies in M for every nonzero m in M
and every coordinate i.  ``closure`` returns the smallest one holding a
seed set in the scaled form ``SubmonoidRep``, built by the ascending
worklist of ``semigroup._worklist_closure`` (its minimality and
termination proof is there).  ``instance_closure`` returns ``None`` for an
empty seed, which closes to {0}; ``feasible`` and ``one_solution`` read
their answers off that object.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from .errors import InfeasibleError, ResourceLimitError
from .semigroup import DEFAULT_MAX_GENERATORS, NumericalSemigroup, _worklist_closure
from .semigroup import from_generators  # noqa: F401  (the benchmark's tracer wraps this name here)


class _InstanceFields(NamedTuple):
    a: tuple[int, ...] = ()
    b: tuple[int, ...] = ()
    x: frozenset[int] = frozenset()
    g: int = 0
    r: int = 0


class ProblemInstance(_InstanceFields):
    """Parameters of the set-search problem.

    ``a`` and ``b`` are the multiplier/offset tuples of the affine
    conditions, ``x`` the forbidden values, ``g`` the required solution
    cardinality, and ``r`` the floor: solutions draw their elements from
    the integers >= r + 1.  ``r = 0`` is the plain problem.  An immutable
    named tuple, checked on construction and on ``_replace``: every value
    must be an ``int``.
    """

    __slots__ = ()

    def __new__(cls, a=(), b=(), x=frozenset(), g=0, r=0):
        a, b, x = tuple(a), tuple(b), frozenset(x)
        for name, values in (("a", a), ("b", b), ("x", x), ("g", (g,)), ("r", (r,))):
            if not all(isinstance(v, int) for v in values):
                raise ValueError(f"{name} must hold only integers")
        if len(a) != len(b):
            raise ValueError(f"a and b must have the same length, got {len(a)} and {len(b)}")
        if any(v < 1 for v in a + b):
            raise ValueError("entries of a and b must be positive integers")
        if g < 0:
            raise ValueError("g must be non-negative")
        if r < 0:
            raise ValueError("r must be non-negative")
        if any(v < r + 1 for v in x):
            raise ValueError(f"x must be a subset of {{{r + 1}, {r + 2}, ...}}")
        return tuple.__new__(cls, (a, b, x, g, r))

    @classmethod
    def _make(cls, iterable):  # the path of ``_replace``
        return cls(*iterable)


class SubmonoidRep(NamedTuple):
    """A monoid of the form d * S with S a numerical semigroup.

    ``d`` is the gcd of the represented monoid; the monoid is a numerical
    semigroup itself (finite complement) exactly when d == 1.
    """

    d: int
    base: NumericalSemigroup

    def expanded_generators(self) -> tuple[int, ...]:
        """Minimal generators of the represented monoid itself."""
        return tuple(self.d * g for g in self.base.min_generators)


def closure(a, b, x) -> SubmonoidRep:
    """Smallest (a, b)-monoid containing the non-empty finite set ``x``.

    Returned in scaled form: with d = gcd(x + b), the monoid equals
    d times a numerical semigroup computed on the divided data.  The input
    is checked as a ``ProblemInstance``; a closure with more than
    ``DEFAULT_MAX_GENERATORS`` generators raises ResourceLimitError.
    """
    inst = ProblemInstance(a=a, b=b, x=x)
    if not inst.x:
        raise ValueError("x must be non-empty (the empty seed closes to the zero monoid)")
    d = math.gcd(*inst.x, *inst.b)
    base = _worklist_closure(inst.a, tuple(v // d for v in inst.b), [v // d for v in inst.x])
    return SubmonoidRep(d=d, base=base)


def instance_closure(inst: ProblemInstance) -> SubmonoidRep | None:
    """Closure of an instance's seed set; ``None`` stands for {0}.

    Every co-finite ray {0, k, ->} satisfies the affine conditions, so the
    intersection of all admissible semigroups collapses to {0} when there
    is no seed to keep.
    """
    if not inst.x:
        return None
    return closure(inst.a, inst.b, inst.x)


def _gap_count_above(monoid: SubmonoidRep | None, r: int) -> int | float:
    """Number of integers >= r + 1 outside the monoid (inf unless d == 1)."""
    if monoid is None or monoid.d > 1:
        return math.inf
    return monoid.base.gap_count_above(r)


class Feasibility(NamedTuple):
    feasible: bool
    gap_count: int | float

    def __bool__(self) -> bool:
        return self.feasible


def feasible(inst: ProblemInstance) -> Feasibility:
    """Whether a solution exists, with the witnessing gap count.

    A solution exists iff at least ``g`` integers >= r + 1 lie outside
    the closure monoid; an infinite complement is always enough.
    """
    count = _gap_count_above(instance_closure(inst), inst.r)
    return Feasibility(count >= inst.g, count)


def one_solution(inst: ProblemInstance) -> tuple[int, ...]:
    """A single solution: the g smallest integers >= r + 1 outside the closure.

    Feasibility is the gap count above r, read off the closure's Apéry table
    (see ``NumericalSemigroup.gap_count_above``).  Each candidate v is then
    tested against the table inline: v is outside d * S when d does not
    divide v or v // d lies below its residue's Apéry element.  A feasible ``g`` above ``DEFAULT_MAX_GENERATORS`` raises
    ResourceLimitError.
    """
    monoid = instance_closure(inst)
    count = _gap_count_above(monoid, inst.r)
    if count < inst.g:
        raise InfeasibleError(
            f"instance needs {inst.g} available values >= {inst.r + 1}, only {count} exist"
        )
    if inst.g > DEFAULT_MAX_GENERATORS:
        raise ResourceLimitError(
            f"one solution of {inst.g} values exceeds the {DEFAULT_MAX_GENERATORS}-value budget"
        )
    if monoid is None:
        solution = tuple(range(inst.r + 1, inst.r + 1 + inst.g))
    else:
        d, ap = monoid.d, monoid.base.apery
        m = len(ap)
        outside = (v for v in itertools.count(inst.r + 1) if v % d or v // d < ap[v // d % m])
        solution = tuple(itertools.islice(outside, inst.g))
    if __debug__:
        from .oracle import check_conditions

        assert check_conditions(solution, inst)
    return solution
