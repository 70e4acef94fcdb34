"""Legendre functions of the first kind of real degree at real argument > 1.

Evaluation goes through the Gauss hypergeometric representation
P_nu(z) = F(-nu, nu+1; 1; (1-z)/2), which converges geometrically for
1 < z < 3 and in particular at the only argument the estimates need,
z = cosh(1) ~ 1.543.
"""

import math

from .errors import BOutOfRange, NoConvergence
from .kernel import check_b

_SERIES_RTOL = 1e-13
_SERIES_MAX_TERMS = 100_000


def degree_upsilon(b: float) -> float:
    """Degree nu(b) = -1/2 + sqrt(1 + 4*b/(3-b))/2 for 1 < b < 3 (``check_b``)."""
    check_b(b, open_top=True)
    return -0.5 + 0.5 * math.sqrt(1.0 + 4.0 * b / (3.0 - b))


def _series(nu: float, z: float) -> float:
    # Hypergeometric sum F(-nu, nu+1; 1; x) with x = (1-z)/2 < 0.
    x = 0.5 * (1.0 - z)
    total = 0.0
    term = 1.0
    for n in range(_SERIES_MAX_TERMS):
        total += term
        term *= (n - nu) * (n + nu + 1.0) / ((n + 1.0) ** 2) * x
        if not math.isfinite(term):
            break
        if term == 0.0 or abs(term) <= _SERIES_RTOL * abs(total):
            return total + term
    raise NoConvergence(
        f"hypergeometric series for P_nu did not converge (nu={nu}, z={z})"
    )


def legendre_p(nu: float, z: float) -> float:
    """P_nu(z) for real degree nu >= -1/2 and argument z > 1."""
    if not z > 1.0:
        raise BOutOfRange(f"argument must satisfy z > 1 (got z = {z})")
    if not nu >= -0.5:
        raise BOutOfRange(f"degree must satisfy nu >= -1/2 (got nu = {nu})")
    return _series(nu, z)


def legendre_ratio(nu: float, z: float) -> float:
    """Logarithmic derivative P'_nu(z) / P_nu(z) with respect to z.

    Uses P'_nu(z) = nu*(z*P_nu(z) - P_{nu-1}(z))/(z^2 - 1); degrees below
    -1/2 arising from nu-1 are remapped through P_{-mu-1} = P_mu so the
    series always runs in its well-conditioned range.  P_nu(z) > 0 for z > 1:
    it is the mean of (z + sqrt(z^2 - 1) cos phi)^nu over phi in (0, pi).
    """
    p_nu = legendre_p(nu, z)
    mu = nu - 1.0
    if mu < -0.5:
        mu = -1.0 - mu
    p_prev = legendre_p(mu, z)
    dp = nu * (z * p_nu - p_prev) / (z * z - 1.0)
    return dp / p_nu
