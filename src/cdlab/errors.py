"""Exception types shared across the library.

Every failure mode a caller might want to branch on gets its own class;
all of them derive from CdlabError so the CLI can map them to exit codes.
"""


class CdlabError(Exception):
    pass


class InvalidArgumentError(CdlabError, ValueError):
    """Malformed or inconsistent arguments (sizes, signs, mismatched truncations)."""


class DomainError(CdlabError, ValueError):
    """Evaluation point on or outside the closed unit disk, or off the sampled grid."""


class PrecisionError(CdlabError, RuntimeError):
    """Truncation or stencil support insufficient for the requested accuracy."""

    def __init__(self, message, required_truncation=None):
        super().__init__(message)
        self.required_truncation = required_truncation


class DegenerateFrameError(CdlabError, RuntimeError):
    """Frame vectors linearly dependent: Gram determinant not positive."""


class DegenerateInputError(CdlabError, ValueError):
    """Inputs for which the requested quantity is undefined (e.g. T0 == T1)."""


class SingularResolventError(CdlabError, RuntimeError):
    """Resolvent in a fractional transform too ill-conditioned to trust."""

    def __init__(self, message, condition_estimate=None):
        super().__init__(message)
        self.condition_estimate = condition_estimate


class PreconditionError(CdlabError, RuntimeError):
    """A documented precondition of the operation failed; names the condition."""

    def __init__(self, message, failed_condition=None):
        super().__init__(message)
        self.failed_condition = failed_condition


class NumericError(CdlabError, RuntimeError):
    """A library-produced result violated a numerical sanity bound."""


class SchemaError(CdlabError, ValueError):
    """Scenario file does not conform to the expected schema."""
