"""Exception types, budget defaults, and the base of the value types,
shared across the package."""

from operator import attrgetter

# The budgets a CapacityError enforces, by default.  They live here, beside
# the error, so the CLI parser can offer them without importing the routes
# that spend them.
DEFAULT_BUDGET = 10**10         # cells walked, placements searched, alpha work
DEFAULT_SYSTEM_BUDGET = 10**7   # grand-matrix systems of bounds.denominator
DEFAULT_MINOR_BUDGET = 10**6    # minors of bounds.lcmd_direct


class Record:
    """Base of the package's value types: fields in ``__slots__``.

    A subclass lists its fields, in constructor order, in ``__slots__`` and
    sets them in its own ``__init__``.  It gets a repr in the
    ``Name(field=value, ...)`` form, and equality that holds only between
    instances of the same class with equal fields, so a non-frozen
    subclass is unhashable.  A subclass declared with ``frozen=True``
    refuses assignment with ``AttributeError`` (its own ``__init__`` sets
    fields through ``object.__setattr__``) and hashes the tuple of its
    fields.  ``@dataclass`` gives the same, but importing ``dataclasses``
    and generating the methods of each class cost more at start-up than
    most CLI commands spend computing.
    """

    __slots__ = ()

    def __init_subclass__(cls, frozen: bool = False, **kwargs):
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls.__slots__)
        # The fields as a tuple, read in C: what __eq__, __hash__ and
        # __repr__ compare, hash and print.
        cls._astuple = property(
            get if len(cls.__slots__) > 1 else lambda self: (get(self),))
        if frozen:
            cls.__setattr__ = Record._refuse_setattr
            cls.__delattr__ = Record._refuse_delattr
            cls.__hash__ = Record._hash

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple == other._astuple
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self.__slots__, self._astuple))
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._astuple

    def _hash(self):
        return hash(self._astuple)

    def _refuse_setattr(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def _refuse_delattr(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class RiderPolyError(Exception):
    """Base class for all package-specific errors."""


class MoveSetError(RiderPolyError):
    """Invalid move data: zero vector, non-coprime coordinates, parallel moves."""


class BoardError(RiderPolyError):
    """Invalid board: unbounded, degenerate, or redundant inequality system."""


class CapacityError(RiderPolyError):
    """A computation would exceed its configured resource budget.

    Raised *before* producing a wrong or partial answer.  The optional
    ``context`` attribute carries machine-readable details (e.g. the board
    size ``n`` at which a series run hit the cap).
    """

    def __init__(self, message, **context):
        super().__init__(message)
        self.context = context


class AttackingConfigurationError(RiderPolyError):
    """A configuration violates the nonattacking requirement."""


class FitError(RiderPolyError):
    """Quasipolynomial fitting failed."""


class InsufficientDataError(FitError):
    """Not enough table rows per residue class to interpolate and validate."""


class ValidationMismatchError(FitError):
    """A held-out table value disagrees with the interpolated constituent.

    Signals a wrong period guess or corrupted counts.  ``residuals`` maps
    each failing point to (expected, actual).
    """

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals or {}


class PeriodNotFoundError(FitError):
    """No candidate period fit the table within the allowed range."""
