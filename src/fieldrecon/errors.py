"""Exception types shared across the package."""


class FieldReconError(Exception):
    """Base class for all package-specific errors."""


class DegenerateRoots(FieldReconError):
    """Characteristic roots are repeated or numerically indistinguishable."""


class UnknownScenario(FieldReconError):
    """Requested scenario or catalog entry does not exist."""


class InfeasiblePde(FieldReconError):
    """Some characteristic root has a positive real part (growing mode)."""


class RankDeficient(FieldReconError):
    """Design matrix is numerically rank deficient."""


class InsufficientSamples(FieldReconError):
    """Fewer samples than unknowns; the least-squares problem is underdetermined."""


class DegenerateFit(FieldReconError):
    """Log-log slope fit has no spread in the abscissa."""


class ConfigInvalid(FieldReconError):
    """Experiment configuration is malformed or violates a constraint."""
