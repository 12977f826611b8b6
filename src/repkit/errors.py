"""Exception hierarchy shared by all repkit modules, and the checks of
plain input values that more than one module reads."""

import numbers

import numpy as np


class RepkitError(Exception):
    """Base class for all toolkit errors."""


class InfeasiblePoint(RepkitError):
    """A point fails membership in the set it was claimed to belong to."""


class Infeasible(RepkitError):
    """A problem has an empty feasible set."""


class Unbounded(RepkitError):
    """A minimization problem is unbounded below.

    Carries a certified descent ray when the solver can produce one
    (``ray`` is a vector for finite LPs, a measure for grid LPs).
    """

    def __init__(self, message="problem is unbounded", ray=None):
        super().__init__(message)
        self.ray = ray


class NonConvergence(RepkitError):
    """An iterative solver hit its iteration cap before reaching tolerance.

    ``payload`` holds the last iterate and convergence trace so callers can
    inspect or emit partial results.
    """

    def __init__(self, message="iteration limit reached", payload=None):
        super().__init__(message)
        self.payload = payload


class NumericalFailure(RepkitError):
    """A solver reached a state its invariants exclude, through roundoff."""


class NotSurjective(RepkitError):
    """An analysis operator expected to have full row rank does not."""


class NotDoublyStochastic(RepkitError):
    """Input matrix is not doubly stochastic within tolerance."""


class CombinatorialLimitExceeded(RepkitError):
    """An enumeration guard (support/sign sweep size) was violated."""


class EmptyDisk(RepkitError):
    """A measurement disk covers no pixel center."""


class InvalidDecomposition(RepkitError):
    """Negative weights, weights not summing to 1, or a bad reconstruction."""


class KindMismatch(RepkitError):
    """Solution payload does not match the declared regularizer kind."""


class UnsupportedKind(RepkitError):
    """Unknown regularizer kind tag."""


def finite_floats(value):
    """``value`` as a float array if it holds finite numbers only, else
    None. A string such as "3" or a boolean is not a number here. numpy
    reads one as a number only among numbers, a boolean as 0 or 1, or
    among integers too long for int64: only then are the leaves read, and
    always in a short list, where that costs less than comparing."""
    try:
        array = np.asarray(value)
        kind = array.dtype.kind
        if kind == "O":  # such as a null, or an integer of 64 bits or more
            array = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        return None
    if kind not in "iufO" or not np.isfinite(array).all():
        return None
    if (kind == "O" or array.size <= 100
            or ((array == 0) | (array == 1)).any()):
        leaves = np.asarray(value, dtype=object).flat
        if {str, bool} & set(map(type, leaves)):
            return None
    return array.astype(float, copy=False)


def check_shape(shape, name: str = "shape") -> tuple:
    """``shape`` as a tuple, checked to be two positive integers."""
    try:
        shape = tuple(shape)
    except TypeError:
        shape = ()
    if len(shape) != 2 or not all(is_integer(k) and k > 0 for k in shape):
        raise ValueError(f"{name} must be two positive integers")
    return shape


def check_max_iters(value) -> None:
    """Raise ``ValueError`` unless ``value`` is an iteration cap: an
    integer, not a boolean, of at least 1."""
    if not is_integer(value):
        raise ValueError(f"max_iters must be an integer, not {value!r}")
    if value < 1:
        raise ValueError("max_iters must be at least 1")


def is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)
