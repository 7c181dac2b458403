"""Exception types shared across the package.

Every error carries enough context to be re-emitted as a machine-readable
JSON object by the CLI.  ``exit_code`` follows the convention: 2 for
precondition/audit failures, 3 for resource caps.
"""

from __future__ import annotations


class CoarseKitError(Exception):
    exit_code = 2

    def __init__(self, message, **context):
        super().__init__(message)
        self.context = context

    def payload(self):
        out = {"error": str(self), "type": type(self).__name__}
        for key, value in self.context.items():
            out[key] = value
        return out


class PreconditionFailed(CoarseKitError):
    """A stated hypothesis of a construction does not hold on the input."""


class AuditFailed(CoarseKitError):
    """A derived guarantee failed its numeric check; context has a witness."""


class BallTooLarge(CoarseKitError):
    """BFS enumeration exceeded the state cap before reaching the radius."""

    exit_code = 3


class TooLarge(CoarseKitError):
    """An exhaustive enumeration exceeded its node cap."""

    exit_code = 3


class NotDisjoint(PreconditionFailed):
    pass


class NotCovering(PreconditionFailed):
    pass


class NotCoveringAfterShrink(CoarseKitError):
    pass


class NotIrreducible(PreconditionFailed):
    pass


class LebesgueTooSmall(PreconditionFailed):
    pass


class DegenerateDenominator(CoarseKitError):
    pass


class WindowTooSmall(CoarseKitError):
    pass


class Infeasible(CoarseKitError):
    """No valid cover exists within the stated diameter budget."""


class SubsequenceUnavailable(CoarseKitError):
    """No level meets the summability threshold for the next slot."""
