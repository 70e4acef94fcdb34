"""Closed-form upper bounds for the blow-up threshold on b in (1, 3].

Three bounds of increasing sharpness:

* E1: sqrt(b/(b-1)), applicable once it fits inside the admissible weight
  bracket, i.e. for b >= alpha = (e+1)^2/(4e).
* E2: largest root of a quadratic built from the convolution lower bound
  with the delta_b constant; applicable when that root lies in
  [1, (e+1)/(e-1)].  At b = 2 the small-|beta| branch of the same bound
  applies and gives exactly 1.
* E3: sqrt of (2/(b-1)) * (b/2 - L(b)) where L(b) is the exact weighted
  variational value at the extreme weight, expressed through a Legendre
  logarithmic derivative at cosh(1); applicable from gamma ~ 1.012 on.
"""

import math
from dataclasses import dataclass
from typing import Optional

from .errors import BOutOfRange, NoConvergence
from .kernel import BETA_MAX, check_b, is_b3
from .legendre import degree_upsilon, legendre_ratio

_E = math.e
_COSH1 = math.cosh(1.0)

#: Smallest b for which the E1 bound fits inside the weight bracket.
ALPHA = (_E + 1.0) ** 2 / (4.0 * _E)

_VALID_TOL = 1e-12


@dataclass(frozen=True)
class EstimateResult:
    """One analytic bound at one b: the value, and whether the applicability
    condition of the estimate that made it (``estimate1`` .. ``estimate3``)
    holds there."""

    b: float
    bound: Optional[float]
    valid: bool
    threshold_note: str = ""


def delta_b(b: float) -> float:
    """delta_b = sqrt(3-b)/4 * (sqrt(3(1+b)) - sqrt(3-b)) for b in [-1, 3]."""
    if not -1.0 <= b <= 3.0:
        raise BOutOfRange(f"delta_b requires -1 <= b <= 3 (got b = {b})")
    root = math.sqrt(3.0 - b)
    return 0.25 * root * (math.sqrt(3.0 * (1.0 + b)) - root)


def estimate1(b: float) -> EstimateResult:
    """Bound sqrt(b/(b-1)); applicable for b >= alpha = (e+1)^2/(4e)."""
    check_b(b)
    bound = math.sqrt(b / (b - 1.0))
    valid = b >= ALPHA - _VALID_TOL
    note = "" if valid else f"requires b >= alpha = {ALPHA:.6f}"
    return EstimateResult(b=b, bound=bound, valid=valid, threshold_note=note)


def estimate2(b: float) -> EstimateResult:
    """Bound from the delta_b convolution estimate.

    The small-beta branch (beta in [0, 1]) requires
    (2/(b-1)) * (b/2 - delta_b) <= 1, which a scan of (1, 3] shows holds only
    at b = 2 where it gives exactly 1.  The large-beta branch asks for the
    largest real root phi of

        beta^2 - beta * delta_b (e-1)/(b-1) + (delta_b (e+1) - b)/(b-1) = 0

    and applies when phi lies in [1, (e+1)/(e-1)].  Validity is decided per b
    from the computed root, not from a precomputed b-range.  The root is
    always real: the discriminant stays above 0.7 on (1, 3].
    """
    check_b(b)
    d = delta_b(b)

    r = 2.0 / (b - 1.0) * (0.5 * b - d)
    if r <= 1.0 + _VALID_TOL:
        bound = math.sqrt(max(r, 0.0))
        return EstimateResult(b=b, bound=bound, valid=True,
                              threshold_note="small-beta branch (beta <= 1)")

    lin, disc = _e2_quadratic(b, d)
    phi = 0.5 * (lin + math.sqrt(disc))
    valid = 1.0 - _VALID_TOL <= phi <= BETA_MAX + _VALID_TOL
    note = "" if valid else f"root {phi:.6f} outside [1, {BETA_MAX:.6f}]"
    return EstimateResult(b=b, bound=phi, valid=valid, threshold_note=note)


def _e2_quadratic(b: float, d: float) -> tuple[float, float]:
    # The linear coefficient and the discriminant of E2's quadratic.
    lin = d * (_E - 1.0) / (b - 1.0)
    const = (d * (_E + 1.0) - b) / (b - 1.0)
    return lin, lin * lin - 4.0 * const


def extreme_weight_j(b: float) -> float:
    """L(b) = J(b, +-(e+1)/(e-1)), the variational value at the extreme
    weight, in closed form through the Legendre logarithmic derivative at
    cosh(1); 0 at b = 3 (``kernel.is_b3``).

    J is concave and even in beta, so L(b) is also a lower bound on
    J(b, beta) for every admissible beta.  Raises ``NoConvergence`` just
    below b = 3, where the Legendre series overflows.
    """
    if is_b3(b):
        return 0.0
    ratio = legendre_ratio(degree_upsilon(b), _COSH1)
    return (3.0 - b) / (4.0 * _E) * (_E + 1.0) ** 2 * ratio


def _e3_radicand(b: float) -> float:
    # Never negative: L(b) <= T(u = 1) = b/2, and it stays above 0.29.
    return 2.0 / (b - 1.0) * (0.5 * b - extreme_weight_j(b))


def estimate3(b: float) -> EstimateResult:
    """Bound through the Legendre logarithmic derivative at cosh(1).

    At b = 3 the Legendre term carries a vanishing (3-b) factor, so the bound
    reduces to sqrt(3/2) without evaluating the (singular) degree map.  Just
    below b = 3 the degree exceeds ~1200 and the Legendre series overflows;
    there the bound is reported as unavailable, not raised.
    """
    check_b(b)
    try:
        radicand = _e3_radicand(b)
    except NoConvergence:
        return EstimateResult(b=b, bound=None, valid=False,
                              threshold_note="Legendre series did not converge")
    bound = math.sqrt(radicand)
    valid = bound <= BETA_MAX + _VALID_TOL
    note = "" if valid else f"bound exceeds the weight bracket {BETA_MAX:.6f}"
    return EstimateResult(b=b, bound=bound, valid=valid, threshold_note=note)


def thresholds() -> dict:
    """Applicability onsets: alpha exactly, gamma by bisection.

    gamma is the b in (1, 1.1) where the E3 bound equals the bracket edge
    (e+1)/(e-1); it is recomputed here to 1e-6 rather than hard-coded.
    """
    target = BETA_MAX * BETA_MAX

    def g(b: float) -> float:
        return _e3_radicand(b) - target

    lo, hi = 1.0 + 1e-9, 1.1
    glo, ghi = g(lo), g(hi)
    if not (glo > 0.0 > ghi):
        raise RuntimeError("gamma bracketing failed; estimate-3 radicand changed shape")
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return {"alpha": ALPHA, "gamma": 0.5 * (lo + hi)}
