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
concave and even in beta.  The scan is screened in one vectorised pass of
the floor, the Ritz upper bound and a lower bound.  The dual gives that
lower bound at three anchors, the first scan point the Ritz bound leaves
open and its two neighbours.  Above them the lower bound is the scan
chord from the last anchor to (BETA_MAX, L(b)), which concavity puts below
J; a point the chord leaves open goes to the dual.  A bisection midpoint
runs no dual: the floor and the Ritz bound are scalar tests, and the lower
bound there is the chord between the lower bounds at the scan bracket's two
ends, the anchors' when the ends are anchors.  Only the points the bounds
leave open are solved, and on 4096 cells alone: a sign needs no error band.
The two bracket ends the verdict rests on are always solved, with their
Richardson companion on 2048 cells, so the verdict and its certificate are
``compute_j``'s, bit for bit.
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
_SCAN_POINTS = 256

# J margin of the screen: a sign counts as known when the enclosure, widened
# by this much, proves it.  The n = 4096 BVP value lies within 4e-6 of J at
# every non-degenerate scan point.
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
    ``screened_points`` counts the points whose sign a bound proved: on the
    scan the floor J >= L(b), the Ritz upper bound or a lower bound (the
    dual, or the scan chord above the anchors), at a bisection midpoint the
    floor, the Ritz upper bound or the chord of the lower bounds at the scan
    bracket's ends.  ``max_gap`` is the largest gap between the Ritz bound
    and the lower bound a proof of F >= 0 used: the dual or the scan chord
    on the scan, the chord at a midpoint (None when no proof used a lower
    bound).  A scan chord's gap is J's bend between the last anchor and
    BETA_MAX, up to about 4e-3; the dual's stay below 3e-5 on the
    benchmark's sweep rows.  The CLI writes none of these fields.
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
    return _f(b, compute_j(b, beta))


def _f(b: float, res: JResult) -> float:
    return res.beta * res.beta + 2.0 / (b - 1.0) * (res.value - 0.5 * b)


def _band(b: float, res: JResult) -> float:
    return 2.0 / (b - 1.0) * res.error_estimate


def _chord(beta, a: float, lower_a: float, c: float, lower_c: float):
    # The line through (a, lower_a) and (c, lower_c) at beta, a < beta < c:
    # below J there when lower_a and lower_c are below J(a) and J(c), since
    # J is concave in beta.
    t = (beta - a) / (c - a)
    return (1.0 - t) * lower_a + t * lower_c


class _Search:
    """The signs of F at one b for the n = 4096 BVP value of J: proved by
    bounds on J where they can, solved where they cannot.  Solved values are
    kept, and a final bracket end reuses its value for its Richardson band.

    The scan is screened in one vectorised pass, each bisection midpoint by
    scalar tests (see the module docstring).  Every lower bound the dual
    gives is kept, so the bisection's chord runs the dual only at a scan
    bracket end it has not run at."""

    def __init__(self, b: float):
        self.b = b
        self.amp, self.half_b = 2.0 / (b - 1.0), 0.5 * b
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
        self.values = {}
        self.lower_bounds = {}
        self.ends = None
        self.solved_points = 0
        self.screened_points = 0
        self.max_gap = None

    def value(self, beta: float) -> float:
        """The n = 4096 BVP value of J at beta, solved once (J = 0 exactly
        at b = 3, with no solve)."""
        if self.spec is None:
            return compute_j(self.b, beta).value
        value = self.values.get(beta)
        if value is None:
            value = self.values[beta] = _j_bvp_value(self.b, beta, _DEFAULT_N)
            self.solved_points += 1
        return value

    def result(self, beta: float) -> JResult:
        """``compute_j(b, beta)`` at a final bracket end, bit for bit: the
        kept n = 4096 value and one solve on n/2 cells for its band."""
        if self.spec is None:
            return compute_j(self.b, beta)
        value = self.value(beta)

        def j_value(b, beta, n):
            return value if n == _DEFAULT_N else _j_bvp_value(b, beta, n)

        return _with_band(j_value, "BVP_FLUX", self.b, beta, _DEFAULT_N)

    def nonneg_at(self, beta: float) -> bool:
        """Whether F(b, beta) >= 0 for the solved value of J."""
        return beta * beta + self.amp * (self.value(beta) - self.half_b) >= 0.0

    def nonneg(self, betas: np.ndarray) -> np.ndarray:
        """Whether F(b, beta) >= 0 at each beta of the scan."""
        known = self._screen(betas)
        signs = known > 0
        for k in np.flatnonzero(known == 0):
            signs[k] = self.nonneg_at(float(betas[k]))
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
                nonneg = self.nonneg_at(mid)
            if nonneg:
                hi = mid
            else:
                lo = mid
        return lo, hi

    def dual(self, betas: np.ndarray) -> np.ndarray:
        """The lower bound on J at each beta, the larger of the dual and the
        floor; kept for the chord of the bisection."""
        lower = np.maximum(self.spec.lower(betas), self.floor)
        self.lower_bounds.update(zip(betas.tolist(), lower.tolist()))
        return lower

    def chord(self, beta: float) -> float:
        """The chord between the lower bounds on J at the scan bracket's
        ends, at ``beta`` between them; the dual runs only at an end it has
        not run at.  J is concave, so the chord bounds it from below there."""
        missing = [end for end in self.ends if end not in self.lower_bounds]
        if missing:
            self.dual(np.array(missing))
        a, c = self.ends
        return _chord(beta, a, self.lower_bounds[a], c, self.lower_bounds[c])

    def scan_chord(self, betas: np.ndarray, anchor: float, lower: float) -> np.ndarray:
        """The chord from (anchor, lower) to (BETA_MAX, floor) at each beta
        in (anchor, BETA_MAX).  J(b, BETA_MAX) = L(b), or >= 0 where the
        floor falls back to 0, and J is concave, so the chord bounds J from
        below where ``lower`` does at the anchor."""
        return _chord(betas, anchor, lower, BETA_MAX, self.floor)

    def _known_mid(self, mid: float) -> int:
        # +1 (-1) where the floor, the Ritz bound or the chord, widened by the
        # margin, proves F >= 0 (F < 0) at a bisection midpoint; 0 where none
        # does.
        if self.spec is None:
            return 0
        amp, half_b, mid2 = self.amp, self.half_b, mid * mid
        if mid2 + amp * (self.floor - _SCREEN_MARGIN - half_b) >= 0.0:
            return 1
        upper = float(self.spec.upper(mid))
        if mid2 + amp * (upper + _SCREEN_MARGIN - half_b) < 0.0:
            return -1
        # chord <= J <= upper, so the chord can prove F >= 0 only where the
        # upper bound, less the margin, already gives it.
        if mid2 + amp * (upper - _SCREEN_MARGIN - half_b) < 0.0:
            return 0
        chord = self.chord(mid)
        if mid2 + amp * (chord - _SCREEN_MARGIN - half_b) >= 0.0:
            self._gap(upper - chord)
            return 1
        return 0

    def _screen(self, betas: np.ndarray) -> np.ndarray:
        # +1 (-1) where the floor or a bound on J, widened by the margin,
        # proves F >= 0 (F < 0); 0 where none proves a sign.
        known = np.zeros(betas.shape, dtype=int)
        if self.spec is None:
            return known
        amp, half_b, betas2 = self.amp, self.half_b, betas * betas
        # The floor J >= L(b) proves F >= 0 with no dual, also at the
        # degenerate weight, where the dual gives no bound.
        floor = betas2 + amp * (self.floor - _SCREEN_MARGIN - half_b) >= 0.0
        known[floor] = 1
        upper = self.spec.upper(betas)
        known[betas2 + amp * (upper + _SCREEN_MARGIN - half_b) < 0.0] = -1
        # A lower bound <= upper can prove F >= 0 only where the upper bound,
        # less the margin, already gives it.
        rest = np.flatnonzero(
            ~floor & (betas2 + amp * (upper - _SCREEN_MARGIN - half_b) >= 0.0))
        if rest.size:
            lower = self._scan_lower(betas, betas2, rest)
            proved = betas2[rest] + amp * (lower - _SCREEN_MARGIN - half_b) >= 0.0
            if proved.any():
                known[rest[proved]] = 1
                self._gap(float(np.max(upper[rest[proved]] - lower[proved])))
        self.screened_points += int(np.count_nonzero(known))
        return known

    def _scan_lower(self, betas: np.ndarray, betas2: np.ndarray,
                    rest: np.ndarray) -> np.ndarray:
        # Lower bounds on J at the scan points ``rest``: the dual at the
        # anchors, rest[0] and its two scan neighbours; above them the scan
        # chord, and the dual where the chord proves nothing.  At BETA_MAX
        # the chord is the floor, which proves nothing there, and the dual
        # gives no bound.
        bound = np.full(betas.shape, -np.inf)
        anchors = np.arange(max(rest[0] - 1, 0), min(rest[0] + 2, betas.size))
        bound[anchors] = self.dual(betas[anchors])
        above = rest[(rest > anchors[-1]) & (betas[rest] < BETA_MAX)]
        if above.size:   # none when the last anchor is BETA_MAX: no 0/0
            last = anchors[-1]
            bound[above] = self.scan_chord(betas[above], float(betas[last]), float(bound[last]))
            open_ = above[betas2[above] + self.amp * (bound[above] - _SCREEN_MARGIN
                                                      - self.half_b) < 0.0]
            if open_.size:
                bound[open_] = self.dual(betas[open_])
        return bound[rest]

    def _gap(self, gap: float) -> None:
        self.max_gap = gap if self.max_gap is None else max(self.max_gap, gap)

    def counts(self) -> dict:
        return dict(solved_points=self.solved_points, screened_points=self.screened_points,
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
    f_lo, band_lo = float(_f(b, lo_res)), float(_band(b, lo_res))
    f_hi, band_hi = float(_f(b, hi_res)), float(_band(b, hi_res))
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
    It is also their one range rule: finite ends, ``b_min <= b_max`` and
    ``steps >= 1``, or ``ValueError`` before any row is built.
    """
    if not (math.isfinite(b_min) and math.isfinite(b_max) and b_min <= b_max and steps >= 1):
        raise ValueError("sweep needs finite ends with b_min <= b_max and steps >= 1 "
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
