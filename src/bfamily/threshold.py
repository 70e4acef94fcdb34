"""The local-in-space blow-up threshold beta_b.

beta_b is the infimum of beta > 0 with

    F(b, beta) = beta^2 + (2/(b-1)) * (J(b, beta) - b/2)  >=  0.

For |beta| beyond the weight bracket (e+1)/(e-1), J = -infinity and F with
it, so no such beta can enter the infimum set: the search bracket
[0, (e+1)/(e-1)] is exhaustive.

The infimum set is not assumed to be an interval.  The scan locates the
first sign change, bisection certifies it to the requested width, and the
remaining scan values are checked for a later sign reversal, which is
reported as a warning rather than silently ignored.  Near b = 1 the factor
2/(b-1) amplifies the numerical error of J; that error is propagated into an
F error band and a crossing that cannot be certified against the band is
returned as UNDETERMINED instead of being rounded to a verdict.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BFamilyError, BOutOfRange
from .estimates import EstimateResult, estimate1, estimate2, estimate3
from .kernel import BETA_MAX
from .variational import BVPGrid, JResult, compute_j, with_error_estimate

_DEFAULT_TOL = 1e-4
_DEFAULT_SCAN = 256
_DEFAULT_N = 4096

STATUS_FINITE = "FINITE"
STATUS_INFINITE = "INFINITE_IN_BRACKET"
STATUS_UNDETERMINED = "UNDETERMINED"


@dataclass(frozen=True)
class BetaBResult:
    """Outcome of the threshold search at one b.

    When FINITE, ``beta_b`` is the left edge of the certified nonnegative
    region (an upper enclosure of the infimum) and the true threshold lies in
    [beta_b - uncertainty, beta_b].  ``sign_reversal_above`` records whether
    F turned negative again later in the bracket.

    ``f_lo``, ``band_lo``, ``f_hi`` and ``band_hi`` are F and its error band
    at the two ends of the final bracket, the certificate the verdict rests
    on; they are None when the search ended before a bracket was certified.
    """

    b: float
    status: str
    beta_b: Optional[float] = None
    uncertainty: Optional[float] = None
    bracket: tuple = (0.0, BETA_MAX)
    sign_reversal_above: bool = False
    f_lo: Optional[float] = None
    band_lo: Optional[float] = None
    f_hi: Optional[float] = None
    band_hi: Optional[float] = None


def f_discriminant(b: float, beta: float, n: int = _DEFAULT_N) -> float:
    """F(b, beta) = beta^2 + (2/(b-1)) (J(b, beta) - b/2)."""
    return _f(b, compute_j(b, beta, n))


def _f(b: float, res: JResult) -> float:
    return res.beta * res.beta + 2.0 / (b - 1.0) * (res.value - 0.5 * b)


def _band(b: float, res: JResult, n: int) -> float:
    return 2.0 / (b - 1.0) * with_error_estimate(res, n).error_estimate


def compute_beta_b(
    b: float,
    tol: float = _DEFAULT_TOL,
    scan_points: int = _DEFAULT_SCAN,
    n: int = _DEFAULT_N,
) -> BetaBResult:
    """Locate beta_b by a uniform scan of F over the bracket plus bisection.

    The crossing is FINITE only when both ends of the final bracket clear
    the propagated error band, F(lo) < -band(lo) and F(hi) >= band(hi);
    otherwise it is UNDETERMINED.  The scan and the bisection read J's value
    alone, on one grid built for the search; the error band is computed only
    at the two bracket ends.

    ``tol`` is the certified width of the crossing (>= 1e-6); ``scan_points``
    the number of scan values (>= 64).
    """
    if not 1.0 < b <= 3.0:
        raise BOutOfRange(f"threshold is computed for b in (1, 3] (got b = {b})")
    if tol < 1e-6:
        raise ValueError(f"tol must be >= 1e-6 (got {tol})")
    if scan_points < 64:
        raise ValueError(f"scan_points must be >= 64 (got {scan_points})")

    grid = BVPGrid(n)
    scan = [compute_j(b, float(beta), n, grid=grid)
            for beta in np.linspace(0.0, BETA_MAX, scan_points)]
    fvals = np.array([_f(b, res) for res in scan])

    nonneg = np.flatnonzero(fvals >= 0.0)
    if nonneg.size == 0:
        return BetaBResult(b=b, status=STATUS_INFINITE)

    i = int(nonneg[0])
    reversal = bool(np.any(fvals[i:] < 0.0))

    if i == 0:
        # F(b, 0) < 0 holds analytically; reaching this means J's error
        # swamped the sign, so no verdict is possible.
        return BetaBResult(b=b, status=STATUS_UNDETERMINED, sign_reversal_above=reversal)

    lo, hi = scan[i - 1], scan[i]
    while hi.beta - lo.beta > tol:
        mid = compute_j(b, 0.5 * (lo.beta + hi.beta), n, grid=grid)
        if _f(b, mid) >= 0.0:
            hi = mid
        else:
            lo = mid

    f_lo, band_lo = float(_f(b, lo)), float(_band(b, lo, n))
    f_hi, band_hi = float(_f(b, hi)), float(_band(b, hi, n))
    certificate = dict(f_lo=f_lo, band_lo=band_lo, f_hi=f_hi, band_hi=band_hi)
    if not (f_lo < -band_lo and f_hi >= band_hi):
        # A bracket end lies inside the propagated J error band, so the sign
        # change between them is not certified.
        return BetaBResult(b=b, status=STATUS_UNDETERMINED, sign_reversal_above=reversal,
                           **certificate)

    return BetaBResult(
        b=b,
        status=STATUS_FINITE,
        beta_b=hi.beta,
        uncertainty=hi.beta - lo.beta,
        sign_reversal_above=reversal,
        **certificate,
    )


@dataclass(frozen=True)
class SweepRow:
    """One b of a sweep: the threshold result plus the analytic bounds."""

    b: float
    result: Optional[BetaBResult]
    est1: Optional[EstimateResult] = None
    est2: Optional[EstimateResult] = None
    est3: Optional[EstimateResult] = None
    error: Optional[str] = None


def sweep_grid(b_min: float, b_max: float, steps: int) -> list[float]:
    """The b values of an inclusive sweep: ``steps`` points, both ends exact.

    ``beta-b`` and ``estimates`` share this grid, so their CSVs join on b.
    """
    return np.linspace(b_min, b_max, steps).tolist()


def sweep(
    b_min: float,
    b_max: float,
    steps: int,
    tol: float = _DEFAULT_TOL,
    scan_points: int = _DEFAULT_SCAN,
    n: int = _DEFAULT_N,
) -> list[SweepRow]:
    """Independent compute_beta_b per b on an inclusive grid, ordered by b.

    A domain or solver failure at one b (``BFamilyError``, ``LinAlgError``) is
    recorded on its row and the sweep continues; any other exception is a bug
    and propagates.
    """
    if not (1.0 < b_min <= b_max <= 3.0):
        raise BOutOfRange(
            f"sweep range must satisfy 1 < b_min <= b_max <= 3 (got [{b_min}, {b_max}])"
        )
    if steps < 1:
        raise ValueError("steps must be >= 1")

    rows = []
    for b in sweep_grid(b_min, b_max, steps):
        try:
            result = compute_beta_b(b, tol=tol, scan_points=scan_points, n=n)
            rows.append(
                SweepRow(
                    b=b, result=result,
                    est1=estimate1(b), est2=estimate2(b), est3=estimate3(b),
                )
            )
        except (BFamilyError, np.linalg.LinAlgError) as exc:  # record and continue
            rows.append(SweepRow(b=b, result=None, error=f"{type(exc).__name__}: {exc}"))
    return rows
