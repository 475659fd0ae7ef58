"""Exception types shared across the package, one per non-zero CLI exit code.

Invalid input raises the built-in ``ValueError`` (exit code 2); the types
below cover the other two outcomes that are not an answer.
"""


class InfeasibleError(Exception):
    """The instance admits no solution of the requested cardinality (exit code 1)."""


class Int64OverflowError(OverflowError):
    """An intermediate value left the signed 64-bit range (exit code 3)."""


class ResourceLimitError(Exception):
    """A configured node, table or search-space budget was exceeded (exit code 3)."""

    def __init__(self, message, *, node_count=None, depth=None):
        super().__init__(message)
        self.node_count = node_count
        self.depth = depth
