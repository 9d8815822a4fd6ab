"""Exception hierarchy.

Every error carries an ``exit_code`` used by the command line front end:
2 for bad inputs (graphs, weights, model files), 3 for numerical
failures and refused computations.
"""


class OrbitflowError(Exception):
    exit_code = 2


class InvalidArgument(OrbitflowError, ValueError):
    """An argument is malformed or outside its admissible range."""


class InvalidGraph(OrbitflowError):
    """Graph fails validation (degrees, connectivity, duplicates)."""


class MissingEdge(OrbitflowError):
    """A vertex sequence uses a transition that is not an edge."""


class NotPrimitive(OrbitflowError):
    """A cycle is a proper repetition, or a matrix support pattern is
    periodic / not strongly connected."""


class InvalidTree(OrbitflowError):
    """Tree edges do not form a spanning tree of the undirected graph."""


class MissingChordValue(OrbitflowError):
    """A non-tree edge has no assigned generator value."""


class MissingEdgeWeight(OrbitflowError):
    """An edge of a cycle carries no roof/class data."""


class MissingEdgeValue(OrbitflowError):
    """An observable is undefined on some edge."""


class NoMeridians(OrbitflowError):
    """Linking numbers requested on a weight system with no meridian
    coordinates."""


class DimensionMismatch(OrbitflowError):
    """Vector length does not match the class dimension."""


class RoofNotUnit(OrbitflowError):
    """Operation requires the roof function to be identically 1."""


class InfiniteQuotient(OrbitflowError):
    """Quotient lattice is rank-deficient, so the quotient group is
    infinite."""


class EmptySelection(OrbitflowError):
    """No periodic orbit satisfies the requested constraints."""


class UnknownModel(OrbitflowError):
    """No builtin model with that name."""


class ModelSyntaxError(OrbitflowError):
    """Model file could not be parsed; message includes the line number."""


class ValidationError(OrbitflowError):
    """Model file parsed but violates structural constraints."""


class NonConvergence(OrbitflowError):
    exit_code = 3


class OutsideCone(OrbitflowError):
    """Newton iteration diverged: the requested direction is not in the
    interior of the attainable direction set."""

    exit_code = 3


class DegenerateModel(OrbitflowError):
    """Pressure Hessian singular at the origin; the direction set has
    empty interior."""

    exit_code = 3


class SingularHessian(OrbitflowError):
    exit_code = 3


class BudgetExceeded(OrbitflowError):
    """Exact enumeration refused: the symbolic depth bound exceeds the
    configured cap."""

    exit_code = 3
