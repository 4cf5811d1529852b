"""Exception types shared across the toolkit."""


class DrdError(Exception):
    """Base class for all drdkit errors."""


class ParseError(DrdError):
    """Malformed input text."""


class LoopRejected(ParseError):
    """Input contains an arc from a vertex to itself."""


class DuplicateArc(ParseError):
    """Input repeats an arc."""


class EmptyGraph(ParseError):
    """Input declares zero vertices."""


class DimensionMismatch(DrdError):
    """Matrix shapes are not conformable."""


class PreconditionViolated(DrdError):
    """Caller broke an operation's stated precondition."""


class InvalidParameter(DrdError):
    """Generator or CLI parameter outside its valid range."""


class SpectralError(DrdError):
    """Base class for floating-point spectral failures."""


class ClusteringAmbiguous(SpectralError):
    """Distinct eigenvalues closer than the clustering resolution."""


class PiUnderflow(SpectralError):
    """An eigenvalue product is too small to divide by safely."""


class InternalInconsistency(DrdError):
    """Two redundant computations of the same quantity disagree: a bug,
    never a verdict about the input graph."""
