"""The package's policy, shared by the exchange model and the value-form
layer: the input checks, the float-range guard, the clearing band and the
warning site.

Each input is checked once, by one helper per kind: a matrix, a square
nonnegative matrix, a vector, a tolerance.  One pair of private helpers
holds the package's float-range policy: a quantity that can leave the float
range is formed inside ``with _quiet():``, so numpy warns of nothing, and
:func:`_finite` refuses it with ValueError unless the call's contract reads
inf or NaN there on purpose.  Every clearing verdict, of an economy or of a
value table, splits its residual at ``tol * max(1, scale)`` in
:func:`_classify`.  One private helper issues every warning, at the
caller's line, and the CLI prints each as one ``warning:`` line.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from contextlib import contextmanager

import numpy as np

from .errors import DimensionMismatch


def _as_matrix(a, name: str) -> np.ndarray:
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise DimensionMismatch(f"{name} must be a 2-d array, got shape {m.shape}")
    return m


def _check_entries(a: np.ndarray, what: str) -> float:
    """Raise ValueError unless every entry of ``a`` is finite and
    nonnegative; return the largest entry (0 for an empty array).  One min
    and one max per array: NaN fails both comparisons, and a negative entry
    is named before a non-finite one."""
    top = a.max(initial=0.0)
    if not (a.min(initial=0.0) >= 0.0 and top < np.inf):
        raise ValueError(f"{what} must be {'nonnegative' if (a < 0).any() else 'finite'}")
    return top


def _quiet() -> np.errstate:
    """A fresh ``np.errstate`` that silences numpy's overflow, invalid and
    divide-by-zero warnings for one ``with`` block: the one place the package
    sets these flags.  What a block forms is refused by :func:`_finite`, or
    read as inf or NaN where the call's contract says so.  Fresh, because
    blocks nest and one instance cannot be entered twice; a block, not a
    decorator, which would put a numpy frame on the stack for :func:`_warn`
    to name as the caller."""
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")


def _finite(value, message: str):
    """``value`` (a float or an array, of any sign) when every entry is
    finite; otherwise raise ValueError(message), with ``{}`` in the message
    replaced by the list of the non-finite positions."""
    finite = np.isfinite(value).all() if isinstance(value, np.ndarray) else math.isfinite(value)
    if finite:
        return value
    raise ValueError(message.format(np.flatnonzero(~np.isfinite(value)).tolist()))


def _warn(message: str) -> None:
    """Issue a RuntimeWarning at the first frame outside this package: the caller's line."""
    package = os.path.dirname(__file__) + os.sep
    frame, level = sys._getframe(1), 2
    while frame.f_back is not None and frame.f_code.co_filename.startswith(package):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, RuntimeWarning, stacklevel=level)


@contextmanager
def _warning_lines():
    """Within the block, a warning that is printed reads ``warning: <message>``
    on one line, without the file and line it names; a recorded warning
    (``warnings.catch_warnings(record=True)``) is unchanged."""
    saved = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    try:
        yield
    finally:
        warnings.formatwarning = saved


def _check_tol(tol: float) -> None:
    """Raise ValueError unless the tolerance ``tol`` is finite and >= 0."""
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")


def _vector(v, m: int, name: str) -> np.ndarray:
    """``v`` as a 1-d float array of length ``m`` with finite nonnegative
    entries; raises ValueError otherwise."""
    arr = np.asarray(v, dtype=float).reshape(-1)
    if arr.shape[0] != m:
        raise ValueError(f"{name} must have length {m}, got {arr.shape[0]}")
    _check_entries(arr, name)
    return arr


def _nonneg_square(M, name: str = "M") -> tuple[np.ndarray, float]:
    """``M`` as a float array and its largest entry, which the entry check
    takes anyway; raises ValueError unless ``M`` is square and non-empty
    with finite nonnegative entries."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] == 0:
        raise ValueError(f"{name} must be square and non-empty, got shape {M.shape}")
    return M, float(_check_entries(M, name))


def _hold_read_only(obj, **fields: np.ndarray) -> None:
    """Set each field of the frozen dataclass ``obj`` to a read-only view
    of its checked array.  A view, not a copy: the caller's array stays
    writeable, and editing it in place edits ``obj`` behind its checks."""
    for name, arr in fields.items():
        arr = arr.view()
        arr.setflags(write=False)
        object.__setattr__(obj, name, arr)


def _classify(
    residual: np.ndarray, scale: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The relative band split of ``residual`` at ``tol * max(1, scale)``:
    masks of the positions inside the band (equal), below it (strict) and
    above it (violated).  A NaN residual is in none of the three.  Raises
    ValueError unless ``tol`` is finite and nonnegative."""
    _check_tol(tol)
    band = tol * np.maximum(1.0, scale)
    return np.abs(residual) <= band, residual < -band, residual > band


def _positions(mask: np.ndarray) -> tuple[int, ...]:
    """The positions where the 1-d ``mask`` is true, as Python ints."""
    return tuple(mask.nonzero()[0].tolist())
