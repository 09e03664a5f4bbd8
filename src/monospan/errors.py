"""Exception and warning types shared across the package."""


class MonomialError(Exception):
    """Base class for all library errors."""


class DomainError(MonomialError, ValueError):
    """Input outside the admissible domain (exponent half-plane, unit disk, ...)."""


class SizeLimitError(DomainError):
    """A configured size limit was exceeded."""


class RepresentationError(DomainError):
    """An operation was asked to act on a representation it does not support."""


class WrongCriterionError(DomainError):
    """A density criterion was applied to a sequence outside its scope."""


class NumericalError(MonomialError, RuntimeError):
    """A numerical routine failed to reach its accuracy target."""


class IllConditioningWarning(UserWarning):
    """A Pick-matrix kernel's condition estimate exceeds the safe threshold."""


class TruncationWarning(UserWarning):
    """A truncated computation is sensitive to the truncation order."""


class SeriesWarning(UserWarning):
    """Series terms stopped decreasing before the truncation cap."""


class ConvergenceWarning(UserWarning):
    """An input sequence fails the convergence premise of an experiment."""
