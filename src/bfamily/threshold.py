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

Every decision of the search is the sign of F for the BVP value of J on
4096 cells.  Two bounds on J, widened by a fixed margin that covers the BVP
error, prove most of those signs without a solve: the floor J >= L(b), which
settles the top of the bracket, and a spectral enclosure of J
(``variational.SpectralJ``).  L(b) = J(b, (e+1)/(e-1)) is estimate 3's
closed form; it bounds J from below on the whole bracket because J is
concave and even in beta.  The lower bound is one interpolant: its knots
are betas where a lower bound on J is known, starting from (BETA_MAX, L(b)),
and concavity puts every chord between knots below J.  The scan is screened
in one vectorised pass of the floor, the Ritz upper bound and the
interpolant.  The dual makes knots of three anchors, the first scan point
the Ritz bound leaves open and its two neighbours; above them the
interpolant is the chord to (BETA_MAX, L(b)), and a point it leaves open
goes to the dual.  A bisection midpoint is screened by scalar tests; where
it needs the lower bound, the scan bracket's ends become knots, so the
interpolant there is the chord between their lower bounds.  Only the
points the bounds leave open are solved, and on 4096 cells alone: a sign
needs no error band.  The two bracket ends the verdict rests on are always
solved, with their Richardson companion on 2048 cells, so the verdict and
its certificate are ``compute_j``'s, bit for bit.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BFamilyError, NoConvergence
from .estimates import EstimateResult, estimate1, estimate2, estimate3, extreme_weight_j
from .kernel import BETA_MAX, check_b, is_b3
from .variational import _DEFAULT_N, JResult, SpectralJ, _j_bvp_value, _with_band, compute_j

_DEFAULT_TOL = 1e-4
# Most rows of a sweep: the grid is checked against this before it is built,
# so a larger count is a ValueError, not a MemoryError.
_MAX_SWEEP_STEPS = 2**20
_SCAN_POINTS = 256

# J margin of the screen: a sign counts as known when the enclosure, widened
# by this much, proves it.  The n = 4096 BVP value lies within 4e-6 of J at the
# non-degenerate scan points; near b = 3, on the graded mesh, within 1.2e-7.
_SCREEN_MARGIN = 1e-4

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

    ``solved_points`` counts the betas whose J the search solved on 4096
    cells: the scan and bisection points the bounds left open and the two
    bracket ends (none at b = 3).  The bracket ends add one solve each on
    2048 cells for their Richardson companion, so below b = 3 a search that
    reaches a final bracket makes ``solved_points + 2`` tridiagonal solves.
    ``screened_points`` counts the points whose sign a bound proved: the
    floor J >= L(b), the Ritz upper bound or the interpolated lower bound.
    ``max_gap`` is the largest gap between the Ritz bound and the lower
    bound a proof of F >= 0 used (None when no proof used one).  At a knot
    the dual's gap stays below 3e-5 on the benchmark's sweep rows; between
    the last anchor and BETA_MAX the chord's gap is J's bend there, up to
    about 4e-3.  The CLI writes none of these fields.
    """

    b: float
    status: str
    beta_b: Optional[float] = None
    uncertainty: Optional[float] = None
    sign_reversal_above: bool = False
    f_lo: Optional[float] = None
    band_lo: Optional[float] = None
    f_hi: Optional[float] = None
    band_hi: Optional[float] = None
    solved_points: Optional[int] = None
    screened_points: Optional[int] = None
    max_gap: Optional[float] = None


def f_discriminant(b: float, beta: float) -> float:
    """F(b, beta) = beta^2 + (2/(b-1)) (J(b, beta) - b/2)."""
    return _f(b, beta, compute_j(b, beta).value)


def _f(b: float, beta, j):
    """F(b, beta) for the value j of J, elementwise on arrays."""
    return beta * beta + 2.0 / (b - 1.0) * (j - 0.5 * b)


class _Search:
    """The signs of F at one b for the n = 4096 BVP value of J: proved by
    bounds on J where they can, solved where they cannot (see the module
    docstring).  Solved values are kept, and a final bracket end reuses its
    value for its Richardson band.  ``knots`` maps beta to a lower bound on
    J there, and ``lower`` interpolates them, the floor left of the first."""

    def __init__(self, b: float):
        self.b = b
        # J(3, .) = 0 exactly and costs no solve; the dual needs b < 3.
        self.spec = None if is_b3(b) else SpectralJ(b)
        if self.spec is not None:
            # J is concave and even in beta, so J >= J(b, BETA_MAX) = L(b) on
            # the bracket.  Where the Legendre series of L(b) overflows (b
            # within about 2e-6 of 3), w >= 0 still gives J >= 0.
            try:
                self.floor = extreme_weight_j(b)
            except NoConvergence:
                self.floor = 0.0
            self.knots = {BETA_MAX: self.floor}
        self.values = {}
        self.ends = None
        self.screened_points = 0
        self.max_gap = None

    def _j(self, b: float, beta: float, n: int) -> float:
        """J's value on n cells as ``compute_j`` gives it (J = 0 exactly at
        b = 3, with no solve); on 4096 cells solved once per beta and kept."""
        if self.spec is None:
            return compute_j(b, beta, n).value
        if n != _DEFAULT_N:
            return _j_bvp_value(b, beta, n)
        value = self.values.get(beta)
        if value is None:
            value = self.values[beta] = _j_bvp_value(b, beta, n)
        return value

    def result(self, beta: float) -> JResult:
        """``compute_j(b, beta)``'s value and band at a final bracket end, bit
        for bit: the kept n = 4096 value and one solve on n/2 cells for its
        band (J = 0 and band 0 at b = 3, with no solve)."""
        return _with_band(self._j, "BVP_FLUX", self.b, beta, _DEFAULT_N)

    def nonneg(self, betas: np.ndarray) -> np.ndarray:
        """Whether F(b, beta) >= 0 at each beta of the scan."""
        known = self._screen(betas)
        signs = known > 0
        for k in np.flatnonzero(known == 0):
            beta = float(betas[k])
            signs[k] = _f(self.b, beta, self._j(self.b, beta, _DEFAULT_N)) >= 0.0
        return signs

    def bisect(self, lo: float, hi: float, tol: float) -> tuple[float, float]:
        """Halve the scan bracket [lo, hi], F(lo) < 0 <= F(hi), to width
        ``tol``; returns the final bracket."""
        self.ends = (lo, hi)
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            known = self._known_mid(mid)
            if known:
                self.screened_points += 1
                nonneg = known > 0
            else:
                nonneg = _f(self.b, mid, self._j(self.b, mid, _DEFAULT_N)) >= 0.0
            if nonneg:
                hi = mid
            else:
                lo = mid
        return lo, hi

    def lower(self, betas):
        """The lower bound on J at betas: the interpolant of the knots."""
        xs = sorted(self.knots)
        return np.interp(betas, xs, [self.knots[x] for x in xs], left=self.floor)

    def dual(self, betas) -> None:
        """Make knots of the betas that are not knots yet, each at the
        larger of the dual and the interpolant, so no knot lowers it."""
        new = [beta for beta in betas if beta not in self.knots]
        if new:
            new = np.array(new)
            bound = np.maximum(self.spec.lower(new), self.lower(new))
            self.knots.update(zip(new.tolist(), bound.tolist()))

    def _known_mid(self, mid: float) -> int:
        # +1 (-1) where the floor, the Ritz bound or the interpolant, widened
        # by the margin, proves F >= 0 (F < 0) at a bisection midpoint; 0
        # where none does.
        if self.spec is None:
            return 0
        if _f(self.b, mid, self.floor - _SCREEN_MARGIN) >= 0.0:
            return 1
        upper = float(self.spec.upper(mid))
        if _f(self.b, mid, upper + _SCREEN_MARGIN) < 0.0:
            return -1
        # lower <= J <= upper, so the lower bound can prove F >= 0 only where
        # the upper bound, less the margin, already gives it.
        if _f(self.b, mid, upper - _SCREEN_MARGIN) < 0.0:
            return 0
        # With the scan bracket's ends as knots, the interpolant at mid is
        # the chord between their lower bounds.
        self.dual(self.ends)
        lower = float(self.lower(mid))
        if _f(self.b, mid, lower - _SCREEN_MARGIN) >= 0.0:
            self._gap(upper - lower)
            return 1
        return 0

    def _screen(self, betas: np.ndarray) -> np.ndarray:
        # +1 (-1) where the floor or a bound on J, widened by the margin,
        # proves F >= 0 (F < 0); 0 where none proves a sign.
        known = np.zeros(betas.shape, dtype=int)
        if self.spec is None:
            return known
        # The floor J >= L(b) proves F >= 0 with no dual, also at the
        # degenerate weight, where the dual gives no bound.
        floor = _f(self.b, betas, self.floor - _SCREEN_MARGIN) >= 0.0
        known[floor] = 1
        upper = self.spec.upper(betas)
        known[_f(self.b, betas, upper + _SCREEN_MARGIN) < 0.0] = -1
        # A lower bound <= upper can prove F >= 0 only where the upper bound,
        # less the margin, already gives it.
        rest = np.flatnonzero(~floor & (_f(self.b, betas, upper - _SCREEN_MARGIN) >= 0.0))
        if rest.size:
            # The dual at the anchors, rest[0] and its two scan neighbours;
            # the interpolant elsewhere, and the dual where it proves nothing.
            self.dual(betas[max(rest[0] - 1, 0):rest[0] + 2])
            rest_betas = betas[rest]
            lower = self.lower(rest_betas)
            open_ = _f(self.b, rest_betas, lower - _SCREEN_MARGIN) < 0.0
            self.dual(rest_betas[open_])
            lower[open_] = self.lower(rest_betas[open_])
            proved = _f(self.b, rest_betas, lower - _SCREEN_MARGIN) >= 0.0
            if proved.any():
                known[rest[proved]] = 1
                self._gap(float(np.max(upper[rest[proved]] - lower[proved])))
        self.screened_points += int(np.count_nonzero(known))
        return known

    def _gap(self, gap: float) -> None:
        self.max_gap = gap if self.max_gap is None else max(self.max_gap, gap)

    def counts(self) -> dict:
        return dict(solved_points=len(self.values), screened_points=self.screened_points,
                    max_gap=self.max_gap)


def compute_beta_b(b: float, tol: float = _DEFAULT_TOL) -> BetaBResult:
    """Locate beta_b by a uniform 256-point scan of F over the bracket plus
    bisection.

    The crossing is FINITE only when both ends of the final bracket clear
    the propagated error band, F(lo) < -band(lo) and F(hi) >= band(hi);
    otherwise it is UNDETERMINED.  Each decision is the sign of F for the
    BVP value of J on 4096 cells, most of them proved without a solve (see
    the module docstring).

    ``tol`` is the certified width of the crossing (finite, >= 1e-6).
    """
    check_b(b)
    if not (math.isfinite(tol) and tol >= 1e-6):
        raise ValueError(f"tol must be finite and >= 1e-6 (got {tol})")

    search = _Search(b)
    betas = np.linspace(0.0, BETA_MAX, _SCAN_POINTS)
    signs = search.nonneg(betas)

    nonneg = np.flatnonzero(signs)
    if nonneg.size == 0:
        return BetaBResult(b=b, status=STATUS_INFINITE, **search.counts())

    i = int(nonneg[0])
    reversal = not bool(np.all(signs[i:]))

    if i == 0:
        # F(b, 0) < 0 holds analytically; reaching this means J's error
        # swamped the sign, so no verdict is possible.
        return BetaBResult(b=b, status=STATUS_UNDETERMINED, sign_reversal_above=reversal,
                           **search.counts())

    lo, hi = search.bisect(float(betas[i - 1]), float(betas[i]), tol)

    lo_res, hi_res = search.result(lo), search.result(hi)
    amp = 2.0 / (b - 1.0)  # F scales J, and so J's error band, by 2/(b-1)
    f_lo, band_lo = float(_f(b, lo, lo_res.value)), float(amp * lo_res.error_estimate)
    f_hi, band_hi = float(_f(b, hi, hi_res.value)), float(amp * hi_res.error_estimate)
    certificate = dict(f_lo=f_lo, band_lo=band_lo, f_hi=f_hi, band_hi=band_hi)
    if not (f_lo < -band_lo and f_hi >= band_hi):
        # A bracket end lies inside the propagated J error band, so the sign
        # change between them is not certified.
        return BetaBResult(b=b, status=STATUS_UNDETERMINED, sign_reversal_above=reversal,
                           **certificate, **search.counts())

    return BetaBResult(
        b=b,
        status=STATUS_FINITE,
        beta_b=hi,
        uncertainty=hi - lo,
        sign_reversal_above=reversal,
        **certificate,
        **search.counts(),
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
    It is also their one range rule: finite ends, ``b_min <= b_max``,
    ``1 <= steps <= _MAX_SWEEP_STEPS`` and one step only where the ends meet,
    or ``ValueError`` before any row is built.
    """
    if not (math.isfinite(b_min) and math.isfinite(b_max) and b_min <= b_max
            and 1 <= steps <= _MAX_SWEEP_STEPS and (steps > 1 or b_min == b_max)):
        raise ValueError(f"sweep needs finite ends with b_min <= b_max, 1 <= steps <= "
                         f"{_MAX_SWEEP_STEPS}, and steps > 1 unless b_min == b_max "
                         f"(got {b_min}:{b_max}:{steps})")
    return np.linspace(b_min, b_max, steps).tolist()


def sweep(b_min: float, b_max: float, steps: int, tol: float = _DEFAULT_TOL) -> list[SweepRow]:
    """Independent compute_beta_b per b on an inclusive grid, ordered by b.

    A domain or solver failure at one b (``BFamilyError``, ``LinAlgError``) is
    recorded on its row and the sweep continues; any other exception is a bug
    and propagates.
    """
    grid = sweep_grid(b_min, b_max, steps)   # first, so a NaN end is "not finite"
    check_b(b_min)
    check_b(b_max)

    rows = []
    for b in grid:
        try:
            result = compute_beta_b(b, tol=tol)
            rows.append(
                SweepRow(
                    b=b, result=result,
                    est1=estimate1(b), est2=estimate2(b), est3=estimate3(b),
                )
            )
        except (BFamilyError, np.linalg.LinAlgError) as exc:  # record and continue
            rows.append(SweepRow(b=b, result=None, error=f"{type(exc).__name__}: {exc}"))
    return rows
