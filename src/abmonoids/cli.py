"""Command-line front end: ``_COMMANDS`` declares each command once, and
README's "Command line" section states the output grammar, the stderr
summary and the exit codes that ``_emit`` and ``run`` produce.
"""

from __future__ import annotations

import argparse
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
    for name, handler, flags, help_text in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        # Set per subparser: Python versions differ on whether parent defaults win.
        # ``parser`` lets the checks made after argparse report with this usage.
        p.set_defaults(g=0, depth=None, max_nodes=DEFAULT_NODE_BUDGET, parser=p, handler=handler)
        p.add_argument("--a", type=_csv_ints, default=(), metavar="A1,A2,..",
                       help="affine multipliers (omit together with --b for none)")
        p.add_argument("--b", type=_csv_ints, default=(), metavar="B1,B2,..",
                       help="affine offsets, same length as --a")
        p.add_argument("--X", type=_csv_ints, default=(), metavar="X1,X2,..",
                       help="forbidden values (may be omitted or empty)")
        p.add_argument("--r", type=int, default=0,
                       help="solutions draw from integers >= r+1 (default 0)")
        if "g" in flags:
            p.add_argument("--g", type=int, required=True, help="solution cardinality")
        p.add_argument("--out", default=None, metavar="PATH",
                       help="write output to PATH instead of stdout")
        if "depth" in flags:
            p.add_argument("--depth", type=int, required=True, help="levels to expand")
        if "max_nodes" in flags:
            p.add_argument("--max-nodes", type=int, default=DEFAULT_NODE_BUDGET)
    return parser


def parse_args(argv=None) -> argparse.Namespace:
    """The argparse namespace plus ``instance``, the validated ProblemInstance."""
    args = build_parser().parse_args(argv)
    try:
        args.instance = ProblemInstance(
            a=args.a, b=args.b, x=frozenset(args.X), g=args.g, r=args.r
        )
    except ValueError as err:
        args.parser.error(str(err))
    if args.depth is not None and args.depth < 0:
        args.parser.error("--depth must be non-negative")
    if args.max_nodes < 1:
        args.parser.error("--max-nodes must be positive")
    return args


def _emit(args: argparse.Namespace, text: str, summary: str | None = None) -> int:
    """Write ``text`` to --out or stdout, then ``summary`` to stderr: 0, or
    the usage code 2, with no summary, when --out fails."""
    if args.out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as err:
            print(f"error: cannot write {args.out}: {err.strerror}", file=sys.stderr)
            return 2
    if summary is not None:
        print(summary, file=sys.stderr)
    return 0


def _solution_lines(sols) -> str:
    """One line per solution, its values ascending and comma-separated."""
    if len(sols) < 2:  # no value repeats, and `one` may start at any floor
        return "".join(",".join(map(str, sol)) + "\n" for sol in sols)
    # one digit string per value from the smallest to the largest, made once
    # for all lines: the sorted solutions start with the smallest value, and
    # `solve` lists values below 2 * (r + g), its root's table capping r
    lo, hi = sols[0][0], max(sol[-1] for sol in sols)
    digits = [""] * lo
    digits += map(str, range(lo, hi + 1))
    return "".join(",".join([digits[v] for v in sol]) + "\n" for sol in sols)


def _cmd_closure(args: argparse.Namespace) -> int:
    monoid = instance_closure(args.instance)
    if monoid is None:
        return _emit(args, "d=1 M=<>\n")
    line = f"d={monoid.d} M={monoid.base!r}"
    if monoid.d > 1:
        line += f" expanded=<{','.join(map(str, monoid.expanded_generators()))}>"
    return _emit(args, line + "\n")


def _cmd_feasible(args: argparse.Namespace) -> int:
    result = feasible(args.instance)
    code = _emit(args, f"{'yes' if result.feasible else 'no'} {result.gap_count}\n")
    return code or (0 if result.feasible else 1)


def _cmd_one(args: argparse.Namespace) -> int:
    return _emit(args, _solution_lines((one_solution(args.instance),)))


def _cmd_solve(args: argparse.Namespace) -> int:
    result = solve(args.instance, max_nodes=args.max_nodes)
    return _emit(args, _solution_lines(result.solutions),
                 f"# solutions={len(result.solutions)} nodes={result.node_count}")


def _cmd_oracle_solve(args: argparse.Namespace) -> int:
    sols = oracle_solve(args.instance)
    return _emit(args, _solution_lines(sols), f"# solutions={len(sols)}")


def _cmd_tree(args: argparse.Namespace) -> int:
    return _emit(args, export_tree(args.instance, args.depth, max_nodes=args.max_nodes))


# (name, handler, flags beyond --a --b --X --r --out, help); the one place a
# command is declared
_COMMANDS = (
    ("closure", _cmd_closure, (), "smallest (a,b)-closed monoid containing X"),
    ("feasible", _cmd_feasible, ("g",), "decide whether a solution exists"),
    ("one", _cmd_one, ("g",), "print a single solution"),
    ("solve", _cmd_solve, ("g", "max_nodes"), "print all solutions"),
    ("oracle-solve", _cmd_oracle_solve, ("g",), "print all solutions (brute-force engine)"),
    ("tree", _cmd_tree, ("depth", "max_nodes"), "write the semigroup tree as DOT"),
)


def run(args: argparse.Namespace) -> int:
    """Run the parsed command; each refusal gets its stderr line and exit code here."""
    try:
        return args.handler(args)
    except InfeasibleError as err:
        print(f"infeasible: {err}", file=sys.stderr)
        return 1
    except (ResourceLimitError, Int64OverflowError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


def main(argv=None) -> None:
    sys.exit(run(parse_args(argv)))
