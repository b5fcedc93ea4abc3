"""Exception hierarchy for preyswitch.

Every error raised deliberately by this package derives from
:class:`PreySwitchError`, so callers (and the CLI) can distinguish domain
failures from genuine bugs.
"""

from __future__ import annotations


class PreySwitchError(Exception):
    """Base class for all domain errors raised by this package."""


class ConstraintViolation(PreySwitchError):
    """A parameter set falls outside the admissible region.

    ``constraint`` names the violated inequality, e.g. ``"r1 > r2"``.
    """

    def __init__(self, constraint: str, message: str | None = None):
        self.constraint = constraint
        super().__init__(message or f"parameter constraint violated: {constraint}")


class ParameterLoadError(PreySwitchError):
    """A parameter document could not be parsed into the nine named rates."""


class DegenerateTau(PreySwitchError):
    """q1 = 0 makes the cusp abscissa m/(e*q1) undefined."""


class DomainError(PreySwitchError):
    """An argument lies outside the mathematical domain of the operation."""


class PoleError(PreySwitchError):
    """Evaluation at the vertical asymptote of the hyperbola branch."""


class StepFailure(PreySwitchError):
    """A Taylor step failed: its coefficients overflowed or its length underflowed."""


class BlowUp(PreySwitchError):
    """The state norm exceeded the configured bound during integration."""


class ChatteringGuard(PreySwitchError):
    """Too many switching events in a vanishing time window."""


class NoReturn(PreySwitchError):
    """An orbit failed to return to its section within the time horizon."""


class TangencyAmbiguity(PreySwitchError):
    """A fold launch never separated from the switching plane."""


class NoBracket(PreySwitchError):
    """No sign change bracketing the requested root was found."""


class MultipleRoots(PreySwitchError):
    """The bracketing data admits more than one root candidate."""


class SameSign(PreySwitchError):
    """Both ends of a root bracket evaluate to the same sign."""


class Lemma2Violation(PreySwitchError):
    """An iterate lost the repulsive-focus property of the pseudo-equilibrium."""


class VerificationFailure(PreySwitchError):
    """A connection-certificate check failed; the message names the check."""


class IdentityInfeasible(PreySwitchError):
    """The parameter identities produced a nonpositive or inadmissible value."""


class InequalityViolated(PreySwitchError):
    """The predator death rate exceeds the admissible bound M(x0, r2)."""


class OrbitEscaped(PreySwitchError):
    """A return-map orbit left the sampled neighborhood before returning."""


class FocusLanding(PreySwitchError):
    """A return-map orbit landed on the pseudo-focus, where the sliding flow rests."""
