"""Exception taxonomy for the relaxdamp toolkit.

Every failure mode that a pipeline stage can report is a subclass of
:class:`RelaxDampError`, so the CLI can serialize any of them uniformly.
Certification failures (an assumption that is numerically falsified, as
opposed to a crash) derive from :class:`CertificationError`.
"""

from __future__ import annotations


class RelaxDampError(Exception):
    """Base class for all toolkit errors."""


class CertificationError(RelaxDampError):
    """An assumption or estimate failed numerical certification."""


# --- model ---------------------------------------------------------------

class InvalidParam(RelaxDampError):
    """A model parameter is outside its admissible range."""


class DegenerateShock(InvalidParam):
    """Equal endstates leave no shock to connect."""


class OutOfDomain(RelaxDampError):
    """Evaluation point lies outside the model's state box."""


class ValidationFailed(RelaxDampError):
    """Model self-check failed; carries the worst offending state."""

    def __init__(self, message, state=None, error=None):
        super().__init__(message)
        self.state = state
        self.error = error


# --- profile -------------------------------------------------------------

class ProfileError(RelaxDampError):
    """Base class for profile construction failures."""


class NotApplicable(ProfileError):
    """Closed-form profile is not available for this model."""


class NoUnstableDirection(ProfileError):
    """Linearization at the left endstate has no (unique) unstable direction."""


class NoConnection(ProfileError):
    """Shooting orbit misses the right endstate."""


# --- eigenframe ----------------------------------------------------------

class NotStrictlyHyperbolic(CertificationError):
    """Coefficient matrix has complex or coalescing eigenvalues."""


class Characteristic(CertificationError):
    """Some characteristic speed falls below the non-characteristicity bound."""


class GapTooSmall(RelaxDampError):
    """Eigenvalue gap too small to divide by in the commutator solve."""


class NotDissipative(CertificationError):
    """Diagonalized source has a non-negative diagonal entry at an endstate."""


# --- spectral stability --------------------------------------------------

class ScanTooCoarse(RelaxDampError):
    """Frequency grid too coarse to trust the dissipativity scan."""


class PairingAmbiguous(RelaxDampError):
    """Symbol eigenvalue branches cannot be paired unambiguously."""


# --- dynamics ------------------------------------------------------------

class BudgetExceeded(RelaxDampError):
    """Initial perturbation violates the smallness budget."""

    def __init__(self, message, measured=None, budget=None):
        super().__init__(message)
        self.measured = measured
        self.budget = budget


class CFLViolation(RelaxDampError):
    """Time step violates the CFL bound."""


class BlowUp(RelaxDampError):
    """Perturbation amplitude left the small-data regime."""


# --- characteristics -----------------------------------------------------

class EpsilonTooLarge(RelaxDampError):
    """No no-damping radius exists for the requested perturbation budget."""


# --- config / cli --------------------------------------------------------

class ConfigError(RelaxDampError):
    """Base class for configuration problems (exit code 2)."""


class ParseError(ConfigError):
    """Config file is not valid JSON."""


class ValidationError(ConfigError):
    """Config value out of range or unknown key; carries the key path."""

    def __init__(self, message, key_path=""):
        super().__init__(message)
        self.key_path = key_path
