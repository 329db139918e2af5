"""Exception hierarchy shared across the package, and one check per kind of input value.

Two error classes matter to callers (and map to distinct CLI exit codes):
``DataError`` for malformed or inconsistent input data, and
``NumericDomainError`` for requests that are undefined for the given
distribution (constant response, empty category, zero-sum weights, ...).
"""

import numpy as np

#: Tolerance for probability-sum invariants on derived distributions.
PROB_ATOL = 1e-12


class CatassocError(Exception):
    """Base class for all errors raised by this package."""


class DataError(CatassocError, ValueError):
    """Input data is malformed or inconsistent with the request."""


class NumericDomainError(CatassocError, ValueError):
    """The requested quantity is undefined for the given distribution."""


def _check_size(n: int, name: str) -> None:
    """A size is at least 1; one that numpy refuses before allocating is a MemoryError."""
    if n < 1:
        raise DataError(f"{name} must be at least 1")
    if n > np.iinfo(np.intp).max // 16:
        raise MemoryError(f"{name} = {n} is more than an array can hold")


def _check_tol(tol: float, name: str) -> float:
    """A tolerance is nonnegative: infinity is allowed and NaN refused."""
    if not tol >= 0:
        raise DataError(f"{name} must be nonnegative")
    return tol


def _check_counts(values, what: str = "counts", dtype=np.float64) -> np.ndarray:
    """``values`` as ``dtype``, finite and nonnegative, and whole if ``dtype`` is
    an integer type.  An input of ``dtype`` is returned as it is, not copied."""
    a = np.asarray(values)
    a = a if a.dtype.kind in "biu" else np.asarray(a, np.float64)
    if (a < 0).any():
        raise DataError(f"negative {what}")
    if not np.isfinite(a).all():
        raise DataError(f"{what} must be finite")
    if a.dtype.kind == "f" and np.dtype(dtype).kind == "i" and (a % 1).any():
        raise DataError(f"{what} must be whole numbers")
    return a.astype(dtype, copy=False)


def _check_probs(p, what: str) -> np.ndarray:
    """Probabilities are counts that sum to 1 within :data:`PROB_ATOL`."""
    p = _check_counts(p, "probabilities")
    if abs(p.sum() - 1.0) > PROB_ATOL:
        raise DataError(f"{what} probabilities do not sum to 1")
    return p
