"""Forbidden-sum set problems solved through numerical semigroups.

The package finds every g-element set C of integers >= r+1 such that

* whenever two integers >= r+1 sum to an element of C, at least one of
  them is in C;
* whenever c is in C and (c - b_i) / a_i is an integer >= r+1, that
  quotient is in C as well;
* C avoids a finite forbidden set X.

Complements of such sets inside {0, r+1, ->} are numerical semigroups
closed under the affine maps m -> a_i*m + b_i, which makes the search
space a finitely-branching tree that can be walked depth first.
"""

from .closure import (
    Feasibility,
    ProblemInstance,
    SubmonoidRep,
    closure,
    feasible,
    instance_closure,
    one_solution,
)
from .errors import InfeasibleError, Int64OverflowError, ResourceLimitError
from .oracle import check_conditions, oracle_solve
from .semigroup import NumericalSemigroup, from_generators, remove_generator
from .tree import (
    DEFAULT_NODE_BUDGET,
    SolutionSet,
    children,
    enumerate_levels,
    export_tree,
    solve,
    variety_root,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_NODE_BUDGET",
    "Feasibility",
    "InfeasibleError",
    "Int64OverflowError",
    "NumericalSemigroup",
    "ProblemInstance",
    "ResourceLimitError",
    "SolutionSet",
    "SubmonoidRep",
    "check_conditions",
    "children",
    "closure",
    "enumerate_levels",
    "export_tree",
    "feasible",
    "from_generators",
    "instance_closure",
    "one_solution",
    "oracle_solve",
    "remove_generator",
    "solve",
    "variety_root",
]
