"""Special functions, and the LAPACK seam of envs and posteriors: _cholesky
and _solve call numpy's linalg gufuncs (numpy.linalg._umath_linalg), the
LAPACK calls and bits of np.linalg without its type checks and per-call
errstate, and _pivots_pass is the pivot floor every linear factor passes."""

from __future__ import annotations

import numpy as np
from numpy.linalg import _umath_linalg

__all__ = ["log_gamma"]

PIVOT_FLOOR = 1e-12


def _cholesky(mat: np.ndarray) -> np.ndarray:
    """np.linalg.cholesky's LAPACK call without its wrapper: the same bits,
    NaNs where a matrix is not positive-definite, and no floating-point check.
    The caller holds the flags silenced (np.errstate), as np.linalg does."""
    return _umath_linalg.cholesky_lo(mat, signature="d->d")


def _solve(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """np.linalg.solve's LAPACK call without its wrapper, flags as in _cholesky."""
    return (_umath_linalg.solve1 if b.ndim == 1 else _umath_linalg.solve)(
        a, b, signature="dd->d", out=out
    )


def _pivots_pass(pivots: np.ndarray) -> np.ndarray:
    """Whether each factor's least pivot of diagonals (..., d) is at least PIVOT_FLOOR
    times its largest (not if NaN); elementwise passes beat short-axis reductions."""
    low = high = pivots[..., 0]
    for j in range(1, pivots.shape[-1]):
        low, high = np.minimum(low, pivots[..., j]), np.maximum(high, pivots[..., j])
    return low >= PIVOT_FLOOR * high


# Lanczos approximation, g = 607/128, 15 terms (Godfrey/Pugh coefficient set).
# Relative accuracy is near machine epsilon over the whole positive axis.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = np.array(
    [
        0.99999999999999709182,
        57.156235665862923517,
        -59.597960355475491248,
        14.136097974741747174,
        -0.49191381609762019978,
        0.33994649984811888699e-4,
        0.46523628927048575665e-4,
        -0.98374475304879564677e-4,
        0.15808870322491248884e-3,
        -0.21026444172410488319e-3,
        0.21743961811521264320e-3,
        -0.16431810653676389022e-3,
        0.84418223983852743293e-4,
        -0.26190838401581408670e-4,
        0.36899182659531622704e-5,
    ]
)
_LANCZOS_OFFSETS = np.arange(len(_LANCZOS_C) - 1, dtype=float)[:, None]
_HALF_LOG_2PI = 0.5 * float(np.log(2.0 * np.pi))
# Below this x the series term c1 / x overflows to inf; from it on it is finite.
_SERIES_MIN = float(_LANCZOS_C[1] / np.finfo(float).max)


def log_gamma(x):
    """Natural log of the Gamma function for x > 0 (scalar or array)."""
    arr = np.asarray(x, dtype=float)
    # Two reductions; a NaN fails both comparisons. An empty array passes.
    if arr.size:
        low = arr.min()
        if not (low > 0.0 and arr.max() < np.inf):
            raise ValueError("log_gamma requires finite x > 0")
        if low < _SERIES_MIN:
            # lgG(x + 1) - log x there; the rest add 0 and subtract log 1, bit-exact.
            tiny = arr < _SERIES_MIN
            out = log_gamma(arr + tiny) - np.log(np.where(tiny, arr, 1.0))
            return float(out) if np.ndim(out) == 0 else out
    # Row k of the stack is term k over every x; accumulate folds the rows
    # in term order, one add per row, where a reduce may sum them pairwise.
    terms = np.empty((len(_LANCZOS_C), arr.size))
    terms[0] = _LANCZOS_C[0]
    np.divide(_LANCZOS_C[1:, None], arr.ravel() + _LANCZOS_OFFSETS, out=terms[1:])
    series = np.add.accumulate(terms, axis=0)[-1].reshape(arr.shape)
    t = arr + (_LANCZOS_G - 0.5)
    out = (arr - 0.5) * np.log(t) - t + _HALF_LOG_2PI + np.log(series)
    return float(out) if np.ndim(out) == 0 else out
