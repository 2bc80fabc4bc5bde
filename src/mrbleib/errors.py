"""Exception hierarchy shared by all mrbleib modules."""


class MrbError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(MrbError):
    """Operands have incompatible shapes or dimensions."""


class NotSurjective(MrbError):
    """Right-inverse requested for a map that is not onto."""


class NotLeibniz(MrbError):
    """The bracket fails the Leibniz identity."""


class NotRotaBaxter(MrbError):
    """The operator fails the Rota-Baxter identity at its weight."""


class NotModifiedRotaBaxter(MrbError):
    """The operator fails the modified Rota-Baxter identity at its weight."""


class NotRBRepresentation(MrbError):
    """The module data fails the Rota-Baxter representation axioms."""


class NotMRBRepresentation(MrbError):
    """The module data fails the modified Rota-Baxter representation axioms."""


class NotAComplex(MrbError):
    """Successive differentials of a cochain complex do not compose to zero."""


class InvalidArgument(MrbError):
    """A numeric argument lies outside its valid range."""


class BudgetExceeded(MrbError):
    """An enumeration or cochain space would exceed the configured budget."""


class OrderMismatch(MrbError):
    """Truncated series operands have different truncation orders."""


class NotADeformation(MrbError):
    """Deformation data violates the deformation equations."""


class NotAnExtension(MrbError):
    """Extension data fails validation."""


class NotASection(MrbError):
    """The proposed section is not a right inverse of the projection."""


class NotACocycle(MrbError):
    """The pair fails the 2-cocycle condition; carries the defect report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class NotCohomologous(MrbError):
    """The cocycle difference is not the coboundary of the given cochain."""


class ParseError(MrbError):
    """A document failed to parse."""


class IndexOutOfRange(ParseError):
    """A basis index in a document lies outside the declared dimension."""


class DuplicateKey(ParseError):
    """A structure-constant key appears twice in a document."""
