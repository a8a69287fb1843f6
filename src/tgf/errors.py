"""Exception taxonomy shared across the package.

The CLI maps these onto its exit-code contract: UsageError -> 1,
VerificationError -> 2, NumericError / ResourceError -> 3.  A malformed
tree-pair key (TreePairError, raised by both tree-pair kernels) can only
come from an input file, so it is a usage error too.
"""


class UsageError(ValueError):
    """Caller passed arguments that violate a documented precondition."""


class ResourceError(RuntimeError):
    """A configured budget (enumeration size, memory) would be exceeded."""


class CorruptionError(RuntimeError):
    """Internal consistency violated; indicates a computation bug."""


class VerificationError(AssertionError):
    """A cross-check (oracle comparison, parity, divisibility) failed."""


class NumericError(RuntimeError):
    """A numeric routine failed to converge or lost its bracket."""


class TreePairError(ValueError):
    """Structurally invalid tree pair (bad tokens or mismatched leaf counts)."""
