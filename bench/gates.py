"""Correctness gates that do not trust the engine.

Semigroup membership here comes from Apery sets computed by a shortest-path
pass over residues, an algorithm the engine does not use.  Tree solutions
are checked with ``abmonoids.oracle.check_conditions``, the brute-force
reference of the test suite, and their counts against pinned values
(OEIS A007323 for the unconstrained tree).

Each ``check_*`` function returns a list of error strings, empty when the
answer is right.
"""

from __future__ import annotations

import heapq
import math

from abmonoids.closure import ProblemInstance
from abmonoids.oracle import check_conditions

from workloads import A007323, FREE_TREE_NODES, Op


class AperySemigroup:
    """The numerical semigroup generated by coprime positive ``gens``.

    ``ap[w]`` is the smallest member congruent to ``w`` modulo the
    multiplicity ``m``, so ``x`` is a member exactly when ``x >= ap[x % m]``.
    """

    def __init__(self, gens):
        self.m = m = min(gens)
        ap = [math.inf] * m
        ap[0] = 0
        heap = [(0, 0)]
        while heap:
            dist, res = heapq.heappop(heap)
            if dist > ap[res]:
                continue
            for gen in gens:
                nxt = dist + gen
                if nxt < ap[nxt % m]:
                    ap[nxt % m] = nxt
                    heapq.heappush(heap, (nxt, nxt % m))
        self.ap = ap
        self.frobenius = max(ap) - m
        # Selmer: sum(ap) = m * genus + m * (m - 1) / 2.
        self.genus = (sum(ap) - m * (m - 1) // 2) // m

    def __contains__(self, x: int) -> bool:
        return x >= 0 and x >= self.ap[x % self.m]

    def is_minimal_generator(self, v: int) -> bool:
        return v in self and not any(
            u in self and v - u in self for u in range(self.m, v // 2 + 1)
        )


def check_closure(op: Op, d: int, gens, frobenius: int, genus: int) -> list[str]:
    """Is ``d * <gens>`` the smallest (a, b)-monoid containing ``op.x``?

    With S = <gens>: S contains X/d and every affine image of every
    generator, so it contains the closure; every generator is a seed value
    or the affine image of a smaller nonzero member, so by induction the
    closure contains S.
    """
    want_d = math.gcd(*op.x, *op.b)
    if d != want_d:
        return [f"d={d}, expected gcd(X + b) = {want_d}"]
    gens = tuple(gens)
    if not gens or list(gens) != sorted(set(gens)) or gens[0] < 1 or math.gcd(*gens) != 1:
        return [f"generators {gens} are not ascending, positive and coprime"]
    s = AperySemigroup(gens)
    xs = {v // d for v in op.x}
    bs = [v // d for v in op.b]
    errors = []
    if (frobenius, genus) != (s.frobenius, s.genus):
        errors.append(f"Frobenius {frobenius}, genus {genus}; <{gens}> has {s.frobenius}, {s.genus}")
    errors += [f"generator {v} is not minimal" for v in gens if not s.is_minimal_generator(v)]
    errors += [f"seed value {v} * {d} is missing" for v in sorted(xs) if v not in s]
    for v in gens:
        for ai, bi in zip(op.a, bs):
            if ai * v + bi not in s:
                errors.append(f"affine image {ai}*{v}+{bi} of a generator is missing")
        if v not in xs and not any(
            (v - bi) % ai == 0 and (v - bi) // ai > 0 and (v - bi) // ai in s
            for ai, bi in zip(op.a, bs)
        ):
            errors.append(f"generator {v} is neither a seed value nor an affine image")
    return errors


def check_feasible(op: Op, feasible: bool, gap_count, cert) -> list[str]:
    """``cert`` is the engine's closure of the instance, as for check_closure."""
    if op.x:
        errors = check_closure(op, *cert)
        if errors:
            return ["closure certificate: " + e for e in errors]
    if not op.x or cert[0] > 1:
        want = math.inf
    else:
        s = AperySemigroup(cert[1])
        want = s.genus - sum(1 for v in range(1, op.r + 1) if v not in s)
    if (feasible, gap_count) != (want >= op.g, want):
        return [f"feasible={feasible} gap_count={gap_count}, expected {want >= op.g} {want}"]
    return []


def check_one(op: Op, solution, cert) -> list[str]:
    """The g smallest integers >= r + 1 outside the closure, and a solution."""
    errors = check_closure(op, *cert) if op.x else []
    if errors:
        return ["closure certificate: " + e for e in errors]
    d = cert[0] if op.x else 0
    s = AperySemigroup(cert[1]) if op.x else None
    want, v = [], op.r + 1
    while len(want) < op.g:
        if s is None or v % d or v // d not in s:
            want.append(v)
        v += 1
    if tuple(solution) != tuple(want):
        return [f"solution {tuple(solution)[:8]}... is not the first {op.g} values outside the closure"]
    if not check_conditions(solution, _instance(op)):
        return ["solution violates the defining conditions"]
    return []


def check_solve(op: Op, solutions, node_count: int) -> list[str]:
    """Sorted, distinct, each a solution, and the pinned counts if any."""
    inst = _instance(op)
    errors = []
    if any(s >= t for s, t in zip(solutions, solutions[1:])):
        errors.append("solutions are not strictly ascending")
    bad = sum(1 for s in solutions if not check_conditions(s, inst))
    if bad:
        errors.append(f"{bad} solutions violate the defining conditions")
    pin = op.pin
    if pin is not None and (len(solutions), node_count) != pin:
        errors.append(f"{len(solutions)} solutions and {node_count} nodes, expected {pin[0]} and {pin[1]}")
    return errors


def check_cli(op: Op, exit_code: int, stdout: bytes, stderr: bytes) -> list[str]:
    """Byte-exact output for documented examples; the free listing otherwise."""
    if op.stdout is not None:
        errors = []
        if exit_code != op.exit:
            errors.append(f"exit code {exit_code}, expected {op.exit}")
        if stdout != op.stdout.encode():
            errors.append(f"stdout {stdout[:80]!r} differs from the documented output")
        return errors
    genus = int(op.argv[-1])
    if exit_code != 0:
        return [f"exit code {exit_code}, expected 0"]
    try:
        sols = [tuple(map(int, line.split(","))) if line else () for line in stdout.decode().splitlines()]
    except ValueError:
        return ["stdout is not one comma-separated solution per line"]
    summary = f"# solutions={A007323[genus]} nodes={FREE_TREE_NODES[genus]}"
    errors = check_solve(Op("solve", g=genus), sols, FREE_TREE_NODES[genus])
    if summary not in stderr.decode(errors="replace").splitlines():
        errors.append(f"stderr lacks {summary!r}")
    return errors


def _instance(op: Op) -> ProblemInstance:
    return ProblemInstance(a=op.a, b=op.b, x=frozenset(op.x), g=op.g, r=op.r)
