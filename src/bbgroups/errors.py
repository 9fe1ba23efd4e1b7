"""Exception types shared across the package.

Everything raised for a *domain* reason (bad group data, violated
precondition, failed runtime theorem check) derives from GroupError so the
CLI can map it to exit code 1; genuine usage errors stay with argparse and
exit code 2.
"""

import reprlib


class _Excerpt(reprlib.Repr):
    def repr_int(self, x: int, level: int) -> str:
        try:
            return super().repr_int(x, level)
        except ValueError:  # more digits than the interpreter turns into text
            return f"<int of {x.bit_length()} bits>"


_EXCERPT = _Excerpt()
_EXCERPT.maxstring = _EXCERPT.maxother = 160
_EXCERPT.maxlist = _EXCERPT.maxtuple = 12
_EXCERPT.maxlevel = 3
_EXCERPT_LIMIT = 300


def excerpt(value) -> str:
    """repr(value), cut to at most 300 characters.

    For error messages that echo their input: the input can be arbitrarily
    long or deeply nested, and the message must stay small.
    """
    text = _EXCERPT.repr(value)
    if len(text) <= _EXCERPT_LIMIT:
        return text
    return text[: _EXCERPT_LIMIT - 3] + "..."


class GroupError(Exception):
    """Base class for domain errors."""


class BackendMismatch(GroupError):
    """Elements from different backends were combined."""


class InvalidField(GroupError):
    """Bad finite-field data: non-prime p, reducible/non-monic polynomial."""


class InvalidBackendSpec(GroupError):
    """Bad group-backend data: empty generators, singular generator, bad exponent."""


class EnumerationCapExceeded(GroupError):
    """A brute-force closure or order computation exceeded its cap."""


class EvenOrderInput(GroupError):
    """An odd-order element was required but the input has even order."""


class OddOrderInput(GroupError):
    """An even-order element was required but the input has odd order."""


class NotAnInvolution(GroupError):
    """An involution was required."""


class HypothesisViolation(GroupError):
    """A structural hypothesis (TI, transitivity, Burnside centralizer) fails."""


class VerificationFailed(GroupError):
    """A runtime check that is a theorem under correct inputs failed.

    This always indicates a bug or a wrong exponent bound, never a
    statistical event.
    """


class MatrixError(GroupError):
    """Base class for numeric failures in the real-matrix module."""


class NotSPD(MatrixError):
    """Input matrix is not symmetric positive definite within tolerance."""


class IllConditioned(MatrixError):
    """Input matrix is singular or too ill-conditioned to decompose."""


class ConvergenceFailure(MatrixError):
    """An iteration did not meet its residual target within the cap."""


class WrongComponent(MatrixError):
    """Orthogonal matrix with determinant -1 where +1 was required."""


class PathConstructionFailed(MatrixError):
    """No nonsingular interpolation path could be found."""
