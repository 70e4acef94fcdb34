"""Fundamental solution of 1 - d^2/dx^2 on the unit torus, its weights, and
the admissible (b, beta) set.

The kernel is p(x) = cosh(x - [x] - 1/2) / (2 sinh(1/2)); the weighted
variants w = p + beta*p' stay nonnegative exactly for |beta| <= (e+1)/(e-1).

The family parameter ranges over 1 < b <= 3 (``check_b``), and a b within
1e-12 of 3 counts as 3 (``is_b3``); beta ranges over |beta| <= (e+1)/(e-1),
to 1e-12 (``check_beta``).
"""

import math

import numpy as np

from .errors import BetaOutOfRange, BOutOfRange

#: Largest |beta| for which p + beta*p' is nonnegative on the torus.
BETA_MAX = (math.e + 1.0) / (math.e - 1.0)

_TWO_SINH_HALF = 2.0 * math.sinh(0.5)
_BETA_TOL = 1e-12


def eval_p(x):
    """Kernel p at torus coordinate(s) x (reduced mod 1)."""
    x = np.asarray(x, dtype=np.float64)
    y = x - np.floor(x) - 0.5
    return np.cosh(y) / _TWO_SINH_HALF


def eval_dp(x):
    """Classical derivative p' at x, taking the branch on (0, 1).

    p' jumps at integer points; this returns the right-sided branch there
    (the value of the derivative extended continuously from (0, 1)).
    """
    x = np.asarray(x, dtype=np.float64)
    y = x - np.floor(x) - 0.5
    return np.sinh(y) / _TWO_SINH_HALF


def is_b3(b: float) -> bool:
    """Whether b counts as 3: within 1e-12 of it."""
    return abs(b - 3.0) <= 1e-12


def check_b(b: float, *, open_top: bool = False) -> None:
    """Raise ``BOutOfRange`` unless 1 < b <= 3, or 1 < b < 3 with
    ``open_top`` (the boundary-value solver and the spectral bounds)."""
    if open_top:
        if not 1.0 < b < 3.0:
            raise BOutOfRange(f"b = {b} is outside 1 < b < 3")
    elif not 1.0 < b <= 3.0:
        raise BOutOfRange(f"b = {b} is outside 1 < b <= 3")


def check_beta(beta: float) -> None:
    """Raise ``BetaOutOfRange`` unless |beta| <= (e+1)/(e-1) + 1e-12."""
    if not abs(beta) <= BETA_MAX + _BETA_TOL:
        raise BetaOutOfRange(
            f"|beta| = {abs(beta)} exceeds (e+1)/(e-1) = {BETA_MAX}; "
            "the weight p + beta*p' would be negative somewhere"
        )


def unit_weight(beta: float, x):
    """Weight w = p + beta*p' at x in [0, 1], continued from the open
    interval and clipped at 0 against rounding.

    Unlike ``eval_p`` and ``eval_dp``, which reduce x mod 1, this
    distinguishes w(1-) from w(0+), which is what boundary-value solvers on
    (0, 1) need; at a torus point x the weight is ``unit_weight(beta,
    x - floor(x))``.  It integrates to 1 for every beta and vanishes at one
    endpoint at beta = +-(e+1)/(e-1).
    """
    check_beta(beta)
    x = np.asarray(x, dtype=np.float64)
    w = _offset_weight(x.reshape(-1) - 0.5, beta)
    return w.reshape(x.shape)[()]  # a scalar for a scalar x, as from a ufunc


def _offset_weight(y, beta: float) -> np.ndarray:
    # The weight at x = y + 1/2 from the 1-d float64 array y, which it
    # overwrites with beta sinh(y): two arrays in all.
    w = np.cosh(y)
    y = np.sinh(y, out=y)
    y *= beta
    return _weight_from_terms(w, y)


def _weight_from_terms(w, term) -> np.ndarray:
    # (cosh(y) + beta sinh(y)) / (2 sinh 1/2), clipped at 0, from its two
    # terms: one in the float64 array w, which holds the result, the other
    # in term.  Every weight array is finished here, so all have the bits of
    # the same operations (a + b and b + a round alike).
    w += term
    w /= _TWO_SINH_HALF
    return np.maximum(w, 0.0, out=w)


def is_degenerate(beta):
    """Whether w = p + beta*p' vanishes at an endpoint, |beta| within 1e-9 of
    (e+1)/(e-1); elementwise for an array of beta."""
    return abs(abs(beta) - BETA_MAX) <= 1e-9
