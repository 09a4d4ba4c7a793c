"""Exception types shared across the package, and its budget check."""


class NotPrime(ValueError):
    """The given characteristic is not a prime number."""


class NotNilpotent(ValueError):
    """A rank sequence was requested for a matrix that is not nilpotent."""


class BadCharacteristic(ValueError):
    """The g2 construction requires characteristic p > 3."""


class NotAField(ArithmeticError):
    """No element of a field context generates its multiplicative group."""


class InvalidRankSequence(ValueError):
    """The rank sequence does not come from an n-dimensional nilpotent matrix."""


class DuplicateAbscissa(ValueError):
    """Two interpolation points share the same abscissa."""


class NonIntegerCoefficients(ValueError):
    """Interpolation produced non-integer coefficients (bad census data)."""


class ZeroPolynomial(ValueError):
    """The zero polynomial is not a valid input here."""


class BadPrime(ValueError):
    """The prime divides the leading coefficient, so reduction drops degree."""


class InsufficientPoints(ValueError):
    """Too few census points to pin down the counting polynomials."""


class TooLarge(RuntimeError):
    """The requested enumeration exceeds the configured budget."""


def check_budget(space: int, budget: int, what: str) -> None:
    """Raise TooLarge when a computation would take more than ``budget``."""
    if space > budget:
        raise TooLarge(f"{space} {what} exceed the budget {budget}")


class InexactDivision(ArithmeticError):
    """An integer bracket scaling (1/2 or 1/3) did not divide exactly."""


class PredicateMismatch(RuntimeError):
    """A predicted rank sequence disagreed with the computed one."""
