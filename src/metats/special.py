"""Scalar special functions needed by the conjugate posterior updates."""

from __future__ import annotations

import numpy as np

__all__ = ["log_gamma"]

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
