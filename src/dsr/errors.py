"""Exception types shared across the package, the one reader of each
settings section, list, number and random seed read from outside, and the
finiteness check of arrays.

The CLI maps these onto exit codes: DataError -> 2, NumericError -> 3.
"""

import numbers
import sys

import numpy as np


class DsrError(Exception):
    """Base class for all package-specific errors."""


class DataError(DsrError, ValueError):
    """Malformed or inconsistent input data (shapes, file contents, masks)."""


class NumericError(DsrError, RuntimeError):
    """Numerical failure inside a solver or decomposition."""


def read_section(section, name: str, keys) -> dict:
    """``section`` if it is an object (a dict) with keys in ``keys``, else a DataError."""
    if not isinstance(section, dict):
        raise DataError(f"{name} must be a JSON object, got {section!r}")
    if not set(section) <= set(keys):
        raise DataError(f"unknown {name} keys: {sorted(map(str, set(section) - set(keys)))}")
    return section


def as_list(value, name: str) -> tuple:
    """A list setting as a tuple; it must be an array (a list or tuple), not a string."""
    if not isinstance(value, (list, tuple)):
        raise DataError(f"{name} must be an array, got {value!r}")
    return tuple(value)


def as_number(value, name: str, whole: bool = False):
    """A settings value as a float, or an int if ``whole``, without coercion:
    a non-number (a string, a boolean) is a DataError, and so is a fraction
    where a whole number is asked for; integral floats such as 2.0 pass. A whole
    number must fit in int64, and an integer read as a real must fit in a float."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DataError(f"{name} must be a number, got {value!r}")
    if whole and not (isinstance(value, numbers.Integral) or float(value).is_integer()):
        raise DataError(f"{name} must be a whole number, got {value!r}")
    limit = 2 ** 63 if whole else sys.float_info.max
    if (whole or isinstance(value, numbers.Integral)) and not -limit <= value < limit:
        raise DataError(f"{name} is out of range for " + ("int64" if whole else "a float"))
    return int(value) if whole else float(value)


def check_seed(seed) -> int:
    """``seed`` as an int if it is what ``np.random.default_rng`` takes as a
    seed and fits in int64, a whole number in [0, 2**63); else a DataError."""
    if as_number(seed, "seed", whole=True) < 0:
        raise DataError(f"seed must be nonnegative, got {seed}")
    return int(seed)


def all_finite(values: np.ndarray) -> bool:
    """Whether every entry of a non-empty float array is finite, found without
    an array-sized mask: a NaN propagates into the minimum, and an infinity
    is the minimum or the maximum."""
    return bool(np.isfinite(values.min()) and np.isfinite(values.max()))
