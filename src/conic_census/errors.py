"""Shared exception types for the census library."""


class CensusError(Exception):
    """Base class for structured failures raised by this package."""


class RingMismatch(CensusError):
    """Operands live in different polynomial rings."""


class SingularMatrix(CensusError):
    """A group matrix is not invertible."""


class ResourceBudgetExceeded(CensusError):
    """A computation hit its configured pair/basis/term/element budget."""

    def __init__(self, message, stats=None):
        super().__init__(message)
        self.stats = stats or {}


class NotZeroDimensional(CensusError):
    """The ideal is not zero-dimensional where a finite solve was requested."""


class OrderNotLex(CensusError):
    """Operation requires a lex Groebner basis."""


class OrderNotEliminating(CensusError):
    """The basis order does not eliminate the complement of the kept variables."""


class NonPrincipal(CensusError):
    """An elimination ideal expected to be principal is not."""


class DegenerateConic(CensusError):
    """The quadric vanishes modulo the plane; no conic is defined."""


class CommonComponent(CensusError):
    """Two coplanar curves share a component; intersection number undefined."""


class NotOnSurface(CensusError):
    """The conic does not lie on the surface."""


class VerificationFailed(CensusError):
    """A certified claim failed re-verification."""


class ParseError(CensusError):
    """A certificate or matrix file is malformed."""

    def __init__(self, message, line=None, field=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", field {field}" if field is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.field = field
