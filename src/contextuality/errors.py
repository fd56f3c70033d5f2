"""Semantic exception hierarchy.

Every error raised by this package derives from :class:`ContextualityError`,
so callers can catch one base class at the CLI boundary.  Validation errors
double as ``ValueError`` for interoperability.
"""

from __future__ import annotations


class ContextualityError(Exception):
    """Base error for this package."""


class ValidationError(ContextualityError, ValueError):
    """Inputs violate a structural contract of the domain model."""


class DuplicateCellError(ValidationError):
    """The same (context, content) cell was declared twice."""


class AlphabetMismatchError(ValidationError):
    """Arity or alphabet sizes disagree with the declared contents."""


class NegativeMassError(ValidationError):
    """A probability mass is negative."""


class MassSumError(ValidationError):
    """Masses of a distribution do not sum exactly to 1."""


class EmptySystemError(ValidationError):
    """A system, context, or connection is empty."""


class IndexOutOfRangeError(ValidationError, IndexError):
    """A component index subset is not valid for the distribution."""


class NotBinaryError(ValidationError):
    """A +1/-1 coded operation received a non-binary distribution."""


class EmptyInputError(ValidationError):
    """An operation requiring at least one argument received none."""


class DimensionMismatchError(ValidationError):
    """Vector/matrix dimensions disagree."""


class OutcomeSpaceTooLargeError(ContextualityError):
    """The hidden-outcome space exceeds the configured column cap."""


class SolverError(ContextualityError):
    """Base error for the exact linear solver."""


class InfeasibleError(SolverError):
    """The measure's LP has no signed solution: the rhs is outside the column space."""

    def __init__(self, message: str = "system is infeasible", certificate=None):
        super().__init__(message)
        self.certificate = certificate


class PivotLimitError(SolverError):
    """Internal error: the anti-cycling pivot cap was exceeded."""


class SchemaError(ContextualityError, ValueError):
    """A document does not conform to the file schema.

    ``path`` locates the offending field (for example ``contexts[1].contents``)
    or carries a line/column position for malformed JSON/CSV.
    """

    def __init__(self, message: str, path: str | None = None):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class UnknownLabelError(SchemaError):
    """A context, content, or value label is not declared."""


class EmptyContextError(ContextualityError, ValueError):
    """Trial data contains no observations for a declared context."""
