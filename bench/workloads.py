"""Workload definitions: the operations one pass of each workload performs.

Inputs come only from the workload name and the seed, so the same seed
always gives the same operations.  The seed moves each input inside a band
where the amount of work stays within a few per cent, so that runs with
different seeds time comparable work.

Every operation here succeeds on the current code.  Inputs the code is
known to refuse wrongly are kept apart in ``probes()``: the benchmark runs
them once per run, outside the timed region, and reports what happened.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

WORKLOADS = ("free_tree", "affine_tree", "closure_wide", "cli_oneshot")

# OEIS A007323: number of numerical semigroups of genus 0, 1, 2, ...
A007323 = (1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343, 592, 1001, 1693, 2857,
           4806, 8045, 13467, 22464, 37396, 62194, 103246)
# Nodes of the unconstrained tree down to depth g: semigroups of genus <= g.
FREE_TREE_NODES = tuple(itertools.accumulate(A007323))

FREE_GENUS = 20
SMALL_FREE_GENUS = 8

# affine_tree: three families, each (a, b-choices, r + g, X-choices).  r is
# drawn from (0, 1, 2) with g = (r + g) - r, which keeps the node count
# within 0.2%; the single forbidden value and the second offset move it by
# at most 4%.
AFFINE_FAMILIES = (
    ((1,), ((5,),), 36, (60, 64, 68, 72)),
    ((1,), ((6,),), 30, (48, 52, 56, 60)),
    ((1, 3), ((7, 2), (7, 3)), 30, (48, 52, 56)),
)
AFFINE_FLOORS = (0, 1, 2)
SMALL_AFFINE = (((1,), (5,), 18), ((1, 3), (7, 2), 14))

# Solution and node counts of every affine_tree instance a seed can draw,
# keyed by (a, b, x, g, r).  They were produced by the tree engine of the
# first benchmarked commit; each solution is also checked against the
# defining conditions on every run, so these pins guard completeness.
AFFINE_PINS = {
    ((1,), (5,), 60, 36, 0): (3697, 31845), ((1,), (5,), 64, 36, 0): (3657, 31739),
    ((1,), (5,), 68, 36, 0): (3717, 31859), ((1,), (5,), 72, 36, 0): (3736, 31884),
    ((1,), (5,), 60, 35, 1): (3697, 31844), ((1,), (5,), 64, 35, 1): (3657, 31738),
    ((1,), (5,), 68, 35, 1): (3717, 31858), ((1,), (5,), 72, 35, 1): (3736, 31883),
    ((1,), (5,), 60, 34, 2): (3697, 31841), ((1,), (5,), 64, 34, 2): (3657, 31735),
    ((1,), (5,), 68, 34, 2): (3717, 31855), ((1,), (5,), 72, 34, 2): (3736, 31880),
    ((1,), (6,), 48, 30, 0): (6388, 41034), ((1,), (6,), 52, 30, 0): (6353, 40963),
    ((1,), (6,), 56, 30, 0): (6456, 41157), ((1,), (6,), 60, 30, 0): (6486, 41195),
    ((1,), (6,), 48, 29, 1): (6388, 41033), ((1,), (6,), 52, 29, 1): (6353, 40962),
    ((1,), (6,), 56, 29, 1): (6456, 41156), ((1,), (6,), 60, 29, 1): (6486, 41194),
    ((1,), (6,), 48, 28, 2): (6387, 41003), ((1,), (6,), 52, 28, 2): (6352, 40932),
    ((1,), (6,), 56, 28, 2): (6455, 41126), ((1,), (6,), 60, 28, 2): (6485, 41164),
    ((1, 3), (7, 2), 48, 30, 0): (9586, 58759), ((1, 3), (7, 2), 52, 30, 0): (9950, 59587),
    ((1, 3), (7, 2), 56, 30, 0): (10149, 59913), ((1, 3), (7, 2), 48, 29, 1): (9586, 58758),
    ((1, 3), (7, 2), 52, 29, 1): (9950, 59586), ((1, 3), (7, 2), 56, 29, 1): (10149, 59912),
    ((1, 3), (7, 2), 48, 28, 2): (9586, 58754), ((1, 3), (7, 2), 52, 28, 2): (9950, 59582),
    ((1, 3), (7, 2), 56, 28, 2): (10149, 59908), ((1, 3), (7, 3), 48, 30, 0): (9805, 59941),
    ((1, 3), (7, 3), 52, 30, 0): (10193, 60712), ((1, 3), (7, 3), 56, 30, 0): (10255, 60789),
    ((1, 3), (7, 3), 48, 29, 1): (9805, 59940), ((1, 3), (7, 3), 52, 29, 1): (10193, 60711),
    ((1, 3), (7, 3), 56, 29, 1): (10255, 60788), ((1, 3), (7, 3), 48, 28, 2): (9805, 59936),
    ((1, 3), (7, 3), 52, 28, 2): (10193, 60707), ((1, 3), (7, 3), 56, 28, 2): (10255, 60784),
}

# The README examples, with the output the README documents for each.
README_CLI = (
    (("solve", "--a", "1,2", "--b", "4,1", "--X", "5", "--g", "6"),
     "1,2,3,4,6,7\n1,2,3,4,6,8\n1,2,3,4,7,8\n", 0),
    (("closure", "--a", "2,3", "--b", "4,2", "--X", "6,8"),
     "d=2 M=<3,4> expanded=<6,8>\n", 0),
    (("feasible", "--a", "1,2", "--b", "4,1", "--X", "5", "--g", "6", "--r", "3"),
     "no 5\n", 1),
    (("one", "--a", "2,3", "--b", "4,2", "--X", "6,8", "--g", "9", "--r", "3"),
     "4,5,7,9,10,11,13,15,17\n", 0),
    (("tree", "--a", "1,2", "--b", "4,1", "--X", "5", "--depth", "1"),
     'digraph variety {\n  "<1>";\n  "<2,3>";\n  "<1>" -> "<2,3>";\n}\n', 0),
)

# Left out of every timed run because each takes 10 to 21 s before it is
# refused with ResourceLimitError, longer than a run may last.  The answers
# exist (e.g. {1001, 1003} closes to a semigroup with Frobenius number
# 338,337); the refusal is a defect of the table bound, not of the input.
EXCLUDED = (
    "closure((2,), (1,), {1001, 1003}): refused after 17.8 s",
    "closure((2,), (1,), {401, 403}) .. {801, 803}: refused after 10-21 s",
)


@dataclass(frozen=True)
class Op:
    """One operation: an in-process API call, or one CLI subprocess.

    ``kind`` is ``solve``, ``closure``, ``feasible``, ``one`` or ``cli``.
    In-process kinds read ``a``, ``b``, ``x``, ``g`` and ``r``; ``cli``
    reads ``argv`` and, where the output is fixed, ``stdout`` and ``exit``;
    a ``cli`` op without ``stdout`` is the unconstrained ``solve --g N``.
    """

    kind: str
    a: tuple[int, ...] = ()
    b: tuple[int, ...] = ()
    x: tuple[int, ...] = ()
    g: int = 0
    r: int = 0
    argv: tuple[str, ...] = ()
    stdout: str | None = None
    exit: int = 0

    @property
    def label(self) -> str:
        if self.kind == "cli":
            return "abmonoids " + " ".join(self.argv)
        x = "{" + ",".join(map(str, self.x)) + "}"
        if self.kind == "closure":
            return f"closure(a={self.a}, b={self.b}, X={x})"
        return f"{self.kind}(a={self.a}, b={self.b}, X={x}, g={self.g}, r={self.r})"

    @property
    def pin(self):
        """Pinned (solutions, nodes) of a solve op, or None."""
        if self.kind != "solve":
            return None
        if not (self.a or self.x or self.r):
            return A007323[self.g], FREE_TREE_NODES[self.g]
        if len(self.x) != 1:
            return None
        return AFFINE_PINS.get((self.a, self.b, self.x[0], self.g, self.r))


def build(workload: str, seed: int, small: bool = False) -> list[Op]:
    """The operations of one pass of ``workload``; ``small`` is for tests."""
    rng = random.Random(seed)
    if workload == "free_tree":
        return [Op("solve", g=SMALL_FREE_GENUS if small else FREE_GENUS)]
    if workload == "affine_tree":
        if small:
            return [Op("solve", a=a, b=b, g=g) for a, b, g in SMALL_AFFINE]
        ops = []
        for a, bs, total, xs in AFFINE_FAMILIES:
            r = rng.choice(AFFINE_FLOORS)
            ops.append(Op("solve", a=a, b=rng.choice(bs), x=(rng.choice(xs),), g=total - r, r=r))
        return ops
    if workload == "closure_wide":
        p = rng.choice((11, 13) if small else (99, 101, 103))
        n = rng.randrange(40, 50) if small else rng.randrange(995, 1006)
        q = rng.choice((19, 20, 21) if small else (69, 70, 71))
        s = rng.choice((19, 21, 23) if small else (69, 71, 73))
        return [
            Op("closure", a=(2,), b=(1,), x=(p, p + 2)),
            Op("closure", x=(n, n + 1)),
            Op("feasible", a=(2, 3), b=(1, 1), x=(q, q + 1), g=50 if small else 1000, r=10),
            Op("one", a=(2,), b=(1,), x=(s, s + 2), g=50 if small else 500),
        ]
    if workload == "cli_oneshot":
        genus = SMALL_FREE_GENUS if small else 16
        ops = [Op("cli", argv=argv, stdout=out, exit=code) for argv, out, code in README_CLI]
        ops.append(Op("cli", argv=("solve", "--g", str(genus))))
        rng.shuffle(ops)
        return ops
    raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")


def probes(workload: str) -> list[Op]:
    """Known wrong refusals, run once per run outside the timed region.

    ``{5, 6, 4000000}`` closes to ``<5,6>`` (Frobenius number 19, genus
    10), but the code refuses it with ResourceLimitError after about 50 us
    because it sizes its membership table from the largest generator.
    """
    if workload == "closure_wide":
        return [Op("closure", x=(5, 6, 4000000))]
    if workload == "cli_oneshot":
        return [Op("cli", argv=("closure", "--X", "5,6,4000000"), stdout="d=1 M=<5,6>\n", exit=0)]
    return []
