#!/usr/bin/env python3
"""Randomized equivalence sweep: tree solver vs. brute-force solver.

Draws random instances within the brute-force-tractable range and checks
that both engines return identical solution lists.  Exits non-zero on
the first mismatch, printing the offending instance.  The elapsed time
goes to stderr, so stdout is the same for the same arguments and can be
compared between two versions of the package.
"""

import argparse
import random
import sys
import time

from abmonoids import ProblemInstance, oracle_solve, solve


def random_instance(
    rng: random.Random,
    *,
    max_n: int = 3,
    max_coeff: int = 5,
    max_x_size: int = 3,
    max_x_value: int = 12,
    max_r: int = 3,
    max_g: int = 5,
) -> ProblemInstance:
    """One random instance; the default bounds keep brute force tractable."""
    n = rng.randint(0, max_n)
    a = tuple(rng.randint(1, max_coeff) for _ in range(n))
    b = tuple(rng.randint(1, max_coeff) for _ in range(n))
    r = rng.randint(0, max_r)
    pool = list(range(r + 1, max_x_value + 1))
    x = frozenset(rng.sample(pool, rng.randint(0, min(max_x_size, len(pool)))))
    g = rng.randint(0, max_g)
    return ProblemInstance(a=a, b=b, x=x, g=g, r=r)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    bounds = random_instance.__kwdefaults__
    for name, default in bounds.items():
        parser.add_argument("--" + name.replace("_", "-"), type=int, default=default)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    start = time.perf_counter()
    total_solutions = 0
    for k in range(args.count):
        inst = random_instance(rng, **{name: getattr(args, name) for name in bounds})
        got = solve(inst).solutions
        want = oracle_solve(inst)
        if got != want:
            print(f"MISMATCH on instance {k}: {inst}")
            print(f"  tree engine:  {got}")
            print(f"  brute force:  {want}")
            return 1
        total_solutions += len(got)
    print(f"OK: {args.count} instances agree ({total_solutions} solutions, seed={args.seed})")
    print(f"elapsed: {time.perf_counter() - start:.2f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
