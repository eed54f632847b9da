"""Exception classes shared across the package, with the CLI's exit codes,
and _quoted and _cut, the one bound on what a message prints of its input."""

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_REJECTED = 3
EXIT_INDETERMINATE = 4
_QUOTED_CHARS = 512  # above the 401 digits of 10**400, the longest value a test pins


def _cut(text: str) -> str:
    """text cut to _QUOTED_CHARS characters and marked with '…' where cut."""
    return text if len(text) <= _QUOTED_CHARS else text[:_QUOTED_CHARS] + "…"


def _quoted(value) -> str:
    """repr(value), cut as _cut cuts it."""
    return _cut(repr(value))


class LieExtError(Exception):
    """Base class for all package errors; exit_code is the CLI's exit status."""

    exit_code = EXIT_REJECTED


class MalformedInputError(LieExtError):
    """Input arrays have inconsistent shapes or dimensions."""

    exit_code = EXIT_INPUT


class InvalidLatticeError(LieExtError):
    """Lattice generators are rank deficient."""

    exit_code = EXIT_INPUT


class NotACocycleError(LieExtError):
    """A 2-cochain required to be closed is not, within tolerance."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class TangentDecompositionError(LieExtError):
    """A matrix cannot be expressed in the realized algebra basis."""


class MembershipError(LieExtError):
    """A matrix is not in the group within the membership tolerance."""


class NotALoopError(LieExtError):
    """A path required to close (or a pair required to share endpoints) does not."""


class OpenChainError(LieExtError):
    """A 2-chain asserted to be a cycle has uncancelled boundary."""


class UserFunctionError(LieExtError):
    """A user-supplied evaluable map raised during evaluation."""


class ExpressionError(LieExtError):
    """Syntax or evaluation error in a parametric expression."""

    exit_code = EXIT_INPUT

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class DocumentError(LieExtError):
    """Problem document is syntactically or structurally invalid."""

    exit_code = EXIT_INPUT


class UnresolvedReferenceError(DocumentError):
    """A name referenced in a problem document does not resolve."""
