"""Exception hierarchy shared by all quasibraid modules."""


class QuasibraidError(Exception):
    """Base class for all library errors."""


class FieldError(QuasibraidError):
    """Bad field definition or scalar outside the field."""


class DomainMismatch(QuasibraidError):
    """Linear maps cannot be combined: dimensions or basis labels disagree."""


class NotInvertible(QuasibraidError):
    """Square matrix is singular; carries the rank found by elimination."""

    def __init__(self, message="matrix is not invertible", rank=None):
        super().__init__(message)
        self.rank = rank


class MalformedStructure(QuasibraidError):
    """Structure constants are dimensionally inconsistent."""


class InvalidLoop(QuasibraidError):
    """Cayley table fails the inverse-property loop requirements."""


class InvalidInput(QuasibraidError):
    """Input structure fails the preconditions of a construction."""


class ActionNotHopfAutomorphism(QuasibraidError):
    """A group action map does not commute with the structure maps."""


class NotAGroupAlgebra(QuasibraidError):
    """The base is not the group algebra of a finite group."""


class BaseMismatch(QuasibraidError):
    """Modules live over different base structures."""


class GradeMismatch(QuasibraidError):
    """Modules have different grades where equal grades are required."""


class NotStrict(QuasibraidError):
    """Operation is only defined for modules, not quasimodules."""


class ParseError(QuasibraidError):
    """Unreadable or malformed input: a serialized structure file, or a
    command line that names the wrong number of files, a missing or
    unknown grade, or a bad field tag.  The CLI exits 2 on it."""
