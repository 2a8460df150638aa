"""Exception types raised by the computation modules."""


class LatminError(ValueError):
    """Base class for all domain errors; a ValueError so callers may catch broadly."""


class DimensionMismatch(LatminError):
    """A vector's length disagrees with the ambient dimension."""


class ZeroVector(LatminError):
    """The zero vector where a nonzero one is required."""


class DimensionDeficient(LatminError):
    """Operation requires a full-dimensional polytope."""


class NotSymmetric(LatminError):
    """Vertex set is not closed under negation."""


class NotAVertex(LatminError):
    """The given point is not a vertex of the polytope."""


class SingularVertex(LatminError):
    """Vertex cone edge directions do not form a lattice basis."""


class NotAmplePolytope(LatminError):
    """Some vertex of the lattice polytope is not simple (more than d edges)."""


class InvalidWeights(LatminError):
    """Family weights must be positive integers."""


class NegativeParameter(LatminError):
    """Box parameters must be nonnegative."""


class MixedProfile(LatminError):
    """Profile mixes exact values and brackets where one kind is required."""


class InvalidInput(LatminError):
    """Input has the wrong JSON type, e.g. a float or boolean where an integer is required."""


class InternalError(LatminError):
    """A library invariant failed; always a bug, never a property of the input."""
