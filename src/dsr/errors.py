"""Exception types shared across the package, the one check of a number read
from a settings file and the one check of a random seed.

The CLI maps these onto exit codes: DataError -> 2, NumericError -> 3.
"""

import numbers


class DsrError(Exception):
    """Base class for all package-specific errors."""


class DataError(DsrError, ValueError):
    """Malformed or inconsistent input data (shapes, file contents, masks)."""


class NumericError(DsrError, RuntimeError):
    """Numerical failure inside a solver or decomposition."""


def as_number(value, name: str, whole: bool = False):
    """A settings value as a float, or an int if ``whole``, without coercion:
    a non-number (a string, a boolean) is a DataError, and so is a fraction
    where a whole number is asked for; integral floats such as 2.0 pass."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DataError(f"{name} must be a number, got {value!r}")
    if not whole:
        return float(value)
    if not (isinstance(value, numbers.Integral) or float(value).is_integer()):
        raise DataError(f"{name} must be a whole number, got {value!r}")
    return int(value)


def check_seed(seed) -> None:
    """Raise a DataError unless ``seed`` is what ``np.random.default_rng``
    takes as a seed: a whole number >= 0."""
    if as_number(seed, "seed", whole=True) < 0:
        raise DataError(f"seed must be nonnegative, got {seed}")
