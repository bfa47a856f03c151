"""Exception hierarchy shared by all ncfock modules.

Every error carries a stable machine-readable ``code`` so that scripted
callers (notably the CLI, which serializes failures as JSON) can branch on
the error class without parsing messages.
"""


class NCFockError(Exception):
    """Base class for all ncfock errors."""

    code = "error"


class ParseError(NCFockError):
    """Raised by the expression tokenizer/parser; carries the 0-based offset."""

    code = "parse-error"

    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class NotPolynomialError(NCFockError):
    """An inverse of a non-scalar subexpression blocks polynomial expansion."""

    code = "not-a-polynomial"


class DomainError(NCFockError):
    """Evaluation hit a matrix point outside the expression/pencil domain."""

    code = "not-in-domain"


class NotRegularAtZeroError(NCFockError):
    """The expression is not defined at the zero tuple, so it has no realization here."""

    code = "not-regular-at-zero"


class ZeroAtZeroError(NCFockError):
    """Inversion of a realization whose value at zero vanishes."""

    code = "zero-at-zero"


class DimensionMismatchError(NCFockError):
    code = "dimension-mismatch"


class SpectralRadiusError(NCFockError):
    """A precondition spr(A) < 1 (bounded multiplier / Fock membership) failed."""

    code = "spectral-radius-too-large"


class JointlyNilpotentError(NCFockError):
    """Boundary-singularity construction needs spr(A) > 0."""

    code = "jointly-nilpotent"


class BoundarySingularityError(NCFockError, ArithmeticError):
    """The boundary-singularity construction or its certificate failed."""

    code = "boundary-certificate-failed"


class NumericalFailureError(NCFockError, ArithmeticError):
    """A computation that lost finiteness or failed its self-check."""

    code = "numerical-failure"


class ScanGridError(NCFockError, ValueError):
    """A grid scan rectangle or resolution that gives no cells."""

    code = "invalid-scan-grid"


class MalformedJSONError(NCFockError, ValueError):
    """A JSON input that does not parse or lacks a required key."""

    code = "malformed-json"


class CertificationError(NCFockError):
    """A numerically produced factorization failed its certificates."""

    code = "certification-failed"

    def __init__(self, message, diagnostics=None):
        self.diagnostics = diagnostics or {}
        super().__init__(message)
