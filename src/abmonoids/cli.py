"""Command-line front end.

Commands
  closure       print the smallest (a, b)-closed monoid containing X
  feasible      decide whether a size-g solution exists (exit 1 if not)
  one           print one solution (exit 1 if infeasible)
  solve         print every solution, one per line, lexicographic
  oracle-solve  like solve, using the brute-force engine
  tree          write the admissible-semigroup tree as DOT

Exit codes: 0 success, 1 infeasible/no, 2 usage error, 3 resource limit
or 64-bit overflow.  Solution listings go to stdout; the summary line
``# solutions=N nodes=M`` goes to stderr so stdout stays diffable.
"""

from __future__ import annotations

import argparse
import math
import sys

from .closure import ProblemInstance, feasible, instance_closure, one_solution
from .errors import InfeasibleError, Int64OverflowError, ResourceLimitError
from .oracle import oracle_solve
from .tree import DEFAULT_NODE_BUDGET, export_tree, solve


def _csv_ints(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abmonoids",
        description="Find all g-element sets of integers >= r+1 that avoid X, never "
        "contain a sum of two avoided values, and are closed under the affine "
        "divisors (c - b_i) / a_i.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def instance_flags(p, with_g):
        # Set per subparser: Python versions differ on whether parent defaults win.
        p.set_defaults(g=0, depth=None, max_nodes=DEFAULT_NODE_BUDGET, engine="tree")
        p.add_argument("--a", type=_csv_ints, default=(), metavar="A1,A2,..",
                       help="affine multipliers (omit together with --b for none)")
        p.add_argument("--b", type=_csv_ints, default=(), metavar="B1,B2,..",
                       help="affine offsets, same length as --a")
        p.add_argument("--X", type=_csv_ints, default=(), metavar="X1,X2,..",
                       help="forbidden values (may be omitted or empty)")
        p.add_argument("--r", type=int, default=0,
                       help="solutions draw from integers >= r+1 (default 0)")
        if with_g:
            p.add_argument("--g", type=int, required=True, help="solution cardinality")
        p.add_argument("--out", default=None, metavar="PATH",
                       help="write output to PATH instead of stdout")

    p = sub.add_parser("closure", help="smallest (a,b)-closed monoid containing X")
    instance_flags(p, with_g=False)

    p = sub.add_parser("feasible", help="decide whether a solution exists")
    instance_flags(p, with_g=True)

    p = sub.add_parser("one", help="print a single solution")
    instance_flags(p, with_g=True)

    p = sub.add_parser("solve", help="print all solutions")
    instance_flags(p, with_g=True)
    p.add_argument("--engine", choices=("tree", "oracle"), default="tree")
    p.add_argument("--max-nodes", type=int, default=DEFAULT_NODE_BUDGET)

    p = sub.add_parser("oracle-solve", help="print all solutions (brute-force engine)")
    instance_flags(p, with_g=True)
    p.set_defaults(engine="oracle")

    p = sub.add_parser("tree", help="write the semigroup tree as DOT")
    instance_flags(p, with_g=False)
    p.add_argument("--depth", type=int, required=True, help="levels to expand")
    p.add_argument("--max-nodes", type=int, default=DEFAULT_NODE_BUDGET)

    return parser


def parse_args(argv=None) -> argparse.Namespace:
    """The argparse namespace plus ``instance``, the validated ProblemInstance."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.instance = ProblemInstance(
            a=args.a, b=args.b, x=frozenset(args.X), g=args.g, r=args.r
        )
    except ValueError as err:
        parser.error(str(err))
    if args.depth is not None and args.depth < 0:
        parser.error("--depth must be non-negative")
    if args.max_nodes < 1:
        parser.error("--max-nodes must be positive")
    return args


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)


def _format_solution(sol: tuple[int, ...]) -> str:
    return ",".join(map(str, sol))


def _cmd_closure(args: argparse.Namespace) -> int:
    monoid = instance_closure(args.instance)
    if monoid is None:
        _emit(args, "d=1 M=<>\n")
        return 0
    line = f"d={monoid.d} M=<{','.join(map(str, monoid.base.min_generators))}>"
    if monoid.d > 1:
        line += f" expanded=<{','.join(map(str, monoid.expanded_generators()))}>"
    _emit(args, line + "\n")
    return 0


def _cmd_feasible(args: argparse.Namespace) -> int:
    result = feasible(args.instance)
    count = "inf" if math.isinf(result.gap_count) else str(result.gap_count)
    _emit(args, f"{'yes' if result.feasible else 'no'} {count}\n")
    return 0 if result.feasible else 1


def _cmd_one(args: argparse.Namespace) -> int:
    try:
        sol = one_solution(args.instance)
    except InfeasibleError as err:
        print(f"infeasible: {err}", file=sys.stderr)
        return 1
    _emit(args, _format_solution(sol) + "\n")
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    if args.engine == "oracle":
        result = oracle_solve(args.instance)
    else:
        result = solve(args.instance, max_nodes=args.max_nodes)
        if result.truncated:
            print(
                f"error: node budget exhausted after {result.node_count} nodes; "
                "rerun with a larger --max-nodes",
                file=sys.stderr,
            )
            return 3
    payload = "".join(_format_solution(sol) + "\n" for sol in result.solutions)
    _emit(args, payload)
    print(f"# solutions={len(result.solutions)} nodes={result.node_count}", file=sys.stderr)
    return 0


def _cmd_tree(args: argparse.Namespace) -> int:
    _emit(args, export_tree(args.instance, args.depth, max_nodes=args.max_nodes))
    return 0


_COMMANDS = {
    "closure": _cmd_closure,
    "feasible": _cmd_feasible,
    "one": _cmd_one,
    "solve": _cmd_solve,
    "oracle-solve": _cmd_solve,
    "tree": _cmd_tree,
}


def run(args: argparse.Namespace) -> int:
    try:
        return _COMMANDS[args.command](args)
    except (ResourceLimitError, Int64OverflowError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


def main(argv=None) -> None:
    sys.exit(run(parse_args(argv)))
