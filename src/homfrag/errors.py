"""Exception types shared across the package."""


class FragmentationError(Exception):
    """Base class for all errors raised by this package."""


class SumExceedsOneError(FragmentationError):
    """Mass sequence sums to more than one (beyond tolerance)."""


class NonPositiveEntryError(FragmentationError):
    """Mass sequence contains a zero or negative entry."""


class TrivialSplitError(FragmentationError):
    """Mass sequence describes no fragmentation at all (single mass 1)."""


class UnknownFamilyError(FragmentationError):
    """Named dislocation family is not registered."""


class InvalidModelError(FragmentationError):
    """Model description (JSON or arguments) is malformed."""


class ModelNotFiniteError(FragmentationError):
    """Operation requires a finite-rate model (truncate first)."""


class BelowPLowerError(FragmentationError):
    """Moment index is at or below the integrability threshold."""


class BracketNotFoundError(FragmentationError):
    """Root bracketing scan failed (or the bracket is statistically ambiguous)."""


class NotComputableError(FragmentationError):
    """Requested analytic quantity is unavailable for this model/mode."""


class BudgetExceededError(FragmentationError):
    """Simulation created more fragments than the configured cap."""


class BarrierFlagsMissingError(FragmentationError):
    """Snapshot lacks the barrier instrumentation this estimator needs."""


class DustNotSupportedError(FragmentationError):
    """Operation needs a conservative (mass-preserving) split."""


class ThinningDirectionError(FragmentationError):
    """Thinning with p < 0 runs in the opposite direction; use the p > 0 form."""


class OutsideRegimeError(FragmentationError):
    """Parameter lies outside the regime where the formula is valid."""


class ConfigError(FragmentationError):
    """Invalid run configuration; carries every problem found, not just the first."""

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class RegimeWarning(UserWarning):
    """Estimate requested in a regime where its guarantees degrade."""
