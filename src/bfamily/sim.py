"""Pseudo-spectral solver for the periodic b-family in weak form.

The evolution is  u_t + u u_x + (p') * [ b/2 u^2 + (3-b)/2 u_x^2 ] = 0  on
the unit torus: only first derivatives and a smoothing convolution appear,
both exact in Fourier space.  Products are formed pointwise on the grid with
two-thirds-rule dealiasing, time stepping is classical RK4 with a CFL-scaled
step.

The RK4 state is the spectrum S = rfft(u).  Each stage transforms the band
of S back to u and u_x in one inverse FFT of two rows (``_Stepper.fields``,
the stepper's one transform to the grid) and the two products forward in
one FFT of two rows; the u and u_x of a new step serve both its record and
its first stage, so a step costs 8 FFT calls on 16 rows.  The batched calls
give the same bits as one call per row.  Modes above the band never evolve:
their physical part is computed once and added back for the CFL amplitude
and the final state.

Blow-up here means wave breaking: the solution stays bounded while
inf_x u_x runs to -infinity.  Detection is on min_x u_x crossing a large
negative threshold.  Independently, the run tracks the energy fraction in
the top third of the active band of the slope field u_x: a truncated
conservative scheme caps the representable slope near sqrt(energy * modes),
so the first unambiguous signature of breaking is the slope spectrum losing
its decay.  Once that fraction exceeds 1e-2 the run stops, and the stop is
classified as under-resolved breaking if the minimum slope has meanwhile
collapsed (grown 10-fold and below -1), or as a resolution loss otherwise.

The module owns the torus spectra: the rfft-ordered symbols of d/dx and of
convolution with p and p' are defined here only.  ``check_convolution_bound``
checks the criterion's lemma (p + beta p') * (b/2 u^2 + (3-b)/2 u_x^2) >=
J(b, beta) u^2 on any ``TorusField``, the simulator's own included.

A run keeps one step record, ``Trajectory.history``: a table with one row
per recorded time and the fields ``SERIES_COLUMNS``, the header of the
series CSV the ``simulate`` command writes from it unchanged.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .kernel import check_b
from .variational import compute_j

_TAIL_LIMIT = 1e-2
_OVERFLOW_LIMIT = 1e8

# The fields of a run's step record, in order; also the series CSV header.
SERIES_COLUMNS = ("t", "min_slope", "mean", "h1_energy", "tail_fraction")


@dataclass
class TorusField:
    """Real 1-periodic field sampled at x_j = j/N, N a power of two."""

    values: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        n = self.values.shape[0] if self.values.ndim == 1 else 0
        if n < 8 or (n & (n - 1)) != 0:
            raise ValueError("need >= 8 samples on a power-of-two grid")
        if not math.isfinite(self.time):
            raise ValueError(f"time must be finite (got {self.time})")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.n) / self.n

    def spectrum(self) -> np.ndarray:
        return np.fft.rfft(self.values)

    def derivative_values(self) -> np.ndarray:
        spec = self.spectrum() * _deriv_symbol(self.n)
        return np.fft.irfft(spec, self.n)

    @classmethod
    def from_function(cls, f, n: int, time: float = 0.0) -> "TorusField":
        x = np.arange(n) / n
        vals = np.zeros(n) + np.asarray(f(x), dtype=np.float64)
        return cls(values=vals, time=time)

    @classmethod
    def constant(cls, c: float, n: int) -> "TorusField":
        return cls(values=np.full(n, float(c)))

    @classmethod
    def cosine(cls, amplitude: float, n: int) -> "TorusField":
        return cls.from_function(lambda x: amplitude * np.cos(2.0 * np.pi * x), n)

    @classmethod
    def odd_sine(cls, amplitude: float, n: int) -> "TorusField":
        """-amplitude * sin(2 pi x): odd data with negative slope at x = 0."""
        return cls.from_function(lambda x: -amplitude * np.sin(2.0 * np.pi * x), n)

    @classmethod
    def from_coefficients(cls, cos_coeffs, sin_coeffs, n: int) -> "TorusField":
        """u = sum_k cos_coeffs[k] cos(2 pi k x) + sin_coeffs[k] sin(2 pi k x),
        summed in order, cosines first; the mode-0 sine coefficient is ignored."""
        x = np.arange(n) / n
        u = np.zeros_like(x)
        for k, c in enumerate(np.asarray(cos_coeffs, dtype=np.float64)):
            u += c * np.cos(2.0 * np.pi * k * x)
        for k, c in enumerate(np.asarray(sin_coeffs, dtype=np.float64)[1:], start=1):
            u += c * np.sin(2.0 * np.pi * k * x)
        return cls(values=u)


@dataclass(frozen=True)
class SimConfig:
    """Run parameters; ``cfl`` scales dt = cfl * (1/N) / max|u|.

    ``cfl`` must be finite and positive.  ``t_max``,
    ``blowup_slope_threshold`` and ``max_steps`` must be positive and may be
    infinite, which means "run until another stop"."""

    b: float
    t_max: float
    cfl: float = 0.3
    blowup_slope_threshold: float = 1e4
    dealias: bool = True
    max_steps: int = 2_000_000

    def __post_init__(self):
        check_b(self.b)
        # written so that NaN fails too
        if not (self.t_max > 0.0 and 0.0 < self.cfl < math.inf
                and self.blowup_slope_threshold > 0.0):
            raise ValueError("t_max and blowup_slope_threshold must be positive, "
                             "and cfl finite and positive")
        if not self.max_steps >= 1:  # the cap is checked after each step
            raise ValueError(f"max_steps must be at least 1 (got {self.max_steps})")


@dataclass(frozen=True)
class CriterionPoint:
    """Grid point where the pointwise blow-up criterion holds strictly."""

    x: float
    u0: float
    du0: float
    margin: float  # -u0'(x) - beta_b |u0(x)| > 0


@dataclass
class BlowupReport:
    """Outcome of a run: the verdict, its scalars and the criterion points
    of the initial datum; the step record is ``Trajectory.history``.

    ``t_detect`` estimates the breaking time: the stop time plus the
    remaining-time bound 2/((b-1) |min u_x|) implied by the slope dynamics,
    which removes the leading resolution bias of the raw trigger time
    (``t_stop``).  ``steps`` counts the RK4 steps taken and ``dt_min`` /
    ``dt_max`` bound their sizes (None before the first step).
    """

    detected: bool
    t_detect: Optional[float]
    criterion_points: list = field(default_factory=list)
    lifespan_bound: Optional[float] = None
    resolution_loss: bool = False
    stop_reason: str = ""
    t_stop: Optional[float] = None
    steps: Optional[int] = None
    dt_min: Optional[float] = None
    dt_max: Optional[float] = None


@dataclass
class Trajectory:
    """The step record of a run and its state at the stop time.

    ``history`` has one row per recorded time, the start and every step,
    with the float fields ``SERIES_COLUMNS``: t, min u_x, mean u, mean of
    u^2 + u_x^2, and the tail fraction of u_x (the resolution monitor), all
    of the evolving band, k <= n/3 with dealiasing; the frozen modes above
    it reach ``final`` but no row, not even the start row of the datum."""

    history: np.ndarray
    final: TorusField


@dataclass(frozen=True)
class ConservedQuantities:
    mean: float
    h1_energy: float


@dataclass(frozen=True)
class ConvolutionBoundReport:
    """Minimum pointwise slack of the convolution lower bound for one field."""

    min_slack: float
    x_at_min: float


# The rfft-ordered symbols on an n-point grid: d/dx, and convolution with p
# and with p'.
def _deriv_symbol(n: int) -> np.ndarray:
    k = np.arange(n // 2 + 1, dtype=np.float64)
    sym = 2.0j * np.pi * k
    sym[-1] = 0.0  # the Nyquist mode has no well-defined odd derivative
    return sym


def _p_symbol(n: int) -> np.ndarray:
    k = np.arange(n // 2 + 1, dtype=np.float64)
    return 1.0 / (1.0 + (2.0 * np.pi * k) ** 2)


def _dp_symbol(n: int) -> np.ndarray:
    k = np.arange(n // 2 + 1, dtype=np.float64)
    return 2.0j * np.pi * k / (1.0 + (2.0 * np.pi * k) ** 2)


class _Stepper:
    """RK4 for one b on the band S[:k+1] of the spectrum S = rfft(u) of an
    n-point grid, k the two-thirds cutoff (n/2 without dealiasing).

    Transforms run in pairs on workspaces.  ``fields``, the one transform to
    the grid, writes a band spectrum and its derivative into the two
    zero-padded rows of ``spectra`` (where the slope spectrum stays until the
    next call), so one inverse FFT gives u and u_x; ``products`` holds u u_x
    and b/2 u^2 + (3-b)/2 u_x^2, so one forward FFT gives both.  Tendencies
    are carried negated,
    T = rfft(u u_x) + (p') * rfft(b/2 u^2 + (3-b)/2 u_x^2), and subtracted,
    which rounds exactly as adding -T.  Returned arrays are fresh."""

    def __init__(self, n: int, b: float, dealias: bool):
        self.n = n
        self.k = (n // 3) if dealias else (n // 2)
        self.band = slice(0, self.k + 1)
        self.deriv = _deriv_symbol(n)[self.band]
        self.dp_mult = _dp_symbol(n)[self.band]
        self.quad_coef = np.array([[0.5 * b], [0.5 * (3.0 - b)]])
        self.spectra = np.zeros((2, n // 2 + 1), dtype=np.complex128)
        self.products = np.empty((2, n))
        self.squares = np.empty((2, n))

    def fields(self, spec: np.ndarray) -> np.ndarray:
        """Rows u and u_x on the grid of the band spectrum ``spec``."""
        self.spectra[0, self.band] = spec
        np.multiply(spec, self.deriv, out=self.spectra[1, self.band])
        return np.fft.irfft(self.spectra, self.n)

    def tendency(self, uv: np.ndarray) -> np.ndarray:
        """Negated tendency T from the rows u, u_x: 1 FFT of both products."""
        np.multiply(uv[0], uv[1], out=self.products[0])
        np.multiply(self.quad_coef, uv, out=self.squares)
        self.squares *= uv
        np.add(self.squares[0], self.squares[1], out=self.products[1])
        adv, quad = np.fft.rfft(self.products)[:, self.band]
        return adv + self.dp_mult * quad

    def increment(self, spec: np.ndarray, dt: float, uv: np.ndarray) -> np.ndarray:
        """The negated RK4 increment of ``spec`` over dt; ``uv`` is ``fields(spec)``."""
        stage = self.spectra[0, self.band]  # each stage spectrum spec - h t goes here
        tends = [self.tendency(uv)]
        for h in (0.5 * dt, 0.5 * dt, dt):
            np.subtract(spec, h * tends[-1], out=stage)
            tends.append(self.tendency(self.fields(stage)))
        t1, t2, t3, t4 = tends
        t2 *= 2.0
        t1 += t2
        t3 *= 2.0
        t1 += t3
        t1 += t4
        t1 *= dt / 6.0
        return t1


def rhs(u: TorusField, b: float, dealias: bool = True) -> TorusField:
    """Right-hand side -u u_x - (p') * (b/2 u^2 + (3-b)/2 u_x^2)."""
    check_b(b)
    stepper = _Stepper(u.n, b, dealias)
    t = stepper.tendency(stepper.fields(u.spectrum()[stepper.band]))
    return TorusField(values=-np.fft.irfft(t, u.n), time=u.time)


def step(u: TorusField, b: float, dt: float, dealias: bool = True) -> TorusField:
    """One RK4 step of size dt (dt < 0 steps backward)."""
    check_b(b)
    stepper = _Stepper(u.n, b, dealias)
    spec = u.spectrum()[stepper.band]
    # The negated increment is subtracted on the grid, so u itself makes no
    # FFT round trip.
    du = np.fft.irfft(stepper.increment(spec, dt, stepper.fields(spec)), u.n)
    return TorusField(values=u.values - du, time=u.time + dt)


# Huge data overflow in the transform and the squares, as in ``integrate``:
# these two diagnostics, and ``lifespan_bound`` through ``check_criterion``,
# then return inf or nan, or no bound, without numpy warnings.
@np.errstate(over="ignore", invalid="ignore")
def conserved_quantities(u: TorusField, b: float) -> ConservedQuantities:
    """Spatial mean and the average of u^2 + u_x^2 (conserved only at b=2)."""
    check_b(b)
    ux = u.derivative_values()
    return ConservedQuantities(
        mean=float(u.values.mean()),
        h1_energy=float(np.mean(u.values**2 + ux**2)),
    )


@np.errstate(over="ignore", invalid="ignore")
def check_criterion(u0: TorusField, beta_b: float) -> list:
    """Grid points with u0'(x) < -beta_b |u0(x)|, with their margins.
    ``beta_b`` must be finite and > 0, or ValueError."""
    if not (math.isfinite(beta_b) and beta_b > 0.0):
        raise ValueError(f"beta_b must be finite and > 0 (got {beta_b})")
    du = u0.derivative_values()
    vals = u0.values
    margin = -du - beta_b * np.abs(vals)
    idx = np.flatnonzero(margin > 0.0)
    x = u0.x
    return [
        CriterionPoint(x=float(x[i]), u0=float(vals[i]), du0=float(du[i]),
                       margin=float(margin[i]))
        for i in idx
    ]


def lifespan_bound(u0: TorusField, b: float, beta_b: float) -> Optional[float]:
    """Upper bound 2 / ((b-1) sqrt((u0')^2 - beta_b^2 u0^2)) minimized over
    the criterion points; None without a qualifying point or beyond float range.
    ``beta_b`` is checked as in ``check_criterion``."""
    check_b(b)
    return _bound_over_points(check_criterion(u0, beta_b), b, beta_b)


def check_convolution_bound(u: TorusField, b: float, beta: float) -> ConvolutionBoundReport:
    """Slack of (p + beta*p') * (b/2 u^2 + (3-b)/2 u_x^2) >= J(b, beta) u^2 at
    the grid points of u, with u_x from its spectrum: its minimum, and where."""
    j = compute_j(b, beta).value
    vals, ux = u.values, u.derivative_values()
    g = 0.5 * b * vals * vals + 0.5 * (3.0 - b) * ux * ux
    lhs = np.fft.irfft(np.fft.rfft(g) * (_p_symbol(u.n) + beta * _dp_symbol(u.n)), u.n)
    slack = lhs - j * vals * vals
    i = int(np.argmin(slack))
    return ConvolutionBoundReport(min_slack=float(slack[i]), x_at_min=float(u.x[i]))


def _bound_over_points(points: list, b: float, beta_b: float) -> Optional[float]:
    # The root in its scale-free form |u0'| sqrt((1-r)(1+r)), r = beta_b |u0| / |u0'|
    # < 1 at a criterion point, so no square of the datum under- or overflows.
    if not points:
        return None
    root = 0.0
    for p in points:
        r = beta_b * abs(p.u0) / abs(p.du0)
        root = max(root, abs(p.du0) * math.sqrt((1.0 - r) * (1.0 + r)))
    scale = (b - 1.0) * root
    bound = 2.0 / scale if scale > 0.0 else math.inf
    return bound if 0.0 < bound < math.inf else None


def _classify_tail_stop(min_slope: float, initial_min_slope: float) -> bool:
    # Wave-breaking fingerprint once resolution is lost: the minimum slope
    # has collapsed well beyond its initial value.
    diverged = min_slope < -1.0
    if initial_min_slope < 0.0:
        diverged = diverged and (min_slope <= 10.0 * initial_min_slope)
    return diverged


# Huge data overflow in the transforms and squares; the overflow stop covers them.
@np.errstate(over="ignore", invalid="ignore")
def integrate(
    u0: TorusField,
    cfg: SimConfig,
    beta_b: Optional[float] = None,
) -> tuple[Trajectory, BlowupReport]:
    """March u0 to cfg.t_max or to a detected blow-up.

    When ``beta_b`` is given, the report also carries the criterion points of
    the initial datum and the resulting lifespan bound; ``beta_b`` is checked
    as in ``check_criterion`` before the first step.  On detection,
    ``t_detect`` is the stop time plus the remaining-time bound from the
    slope dynamics, so it estimates the breaking time itself and is stable
    under grid refinement; the raw stop time is kept in ``t_stop``.  The
    record and the stop tests see the evolving band only (``Trajectory``).
    """
    points = check_criterion(u0, beta_b) if beta_b is not None else []
    n = u0.n
    stepper = _Stepper(n, cfg.b, cfg.dealias)

    spec = u0.spectrum()
    above = spec.copy()
    above[stepper.band] = 0.0
    hi = np.fft.irfft(above, n)  # the modes above the band never evolve
    spec = spec[stepper.band]
    u, ux = uv = stepper.fields(spec)
    # The clock is the time since u0, so no step rounds away against a large
    # u0.time; rows are stamped with u0.time + elapsed.
    elapsed = 0.0

    k_lo = int(math.ceil(2.0 * stepper.k / 3.0))
    rows = []  # one tuple per recorded time, in SERIES_COLUMNS order

    def record():
        energy = np.abs(stepper.spectra[1, 1 : stepper.k + 1]) ** 2  # u_x spectrum
        total = float(energy.sum())
        tail = float(energy[k_lo - 1 :].sum()) / total if total > 0.0 else 0.0
        rows.append((u0.time + elapsed, float(ux.min()), float(u.mean()),
                     float(np.mean(u * u + ux * ux)), tail))

    record()
    stop_reason = "t_max"
    dts = []  # the step sizes taken
    while elapsed < cfg.t_max - 1e-14:
        amp = float(np.max(np.abs(u + hi)))
        if not math.isfinite(amp) or amp > _OVERFLOW_LIMIT:
            stop_reason = "overflow"
            break
        dt = min(cfg.cfl / (n * max(amp, 1e-12)), cfg.t_max - elapsed)
        spec -= stepper.increment(spec, dt, uv)
        u, ux = uv = stepper.fields(spec)
        elapsed += dt
        dts.append(dt)
        record()
        if rows[-1][1] < -cfg.blowup_slope_threshold:
            stop_reason = "slope_threshold"
            break
        if rows[-1][4] > _TAIL_LIMIT:
            stop_reason = "tail"
            break
        if len(dts) >= cfg.max_steps:
            stop_reason = "max_steps"
            break

    # A threshold crossing is breaking; a tail or overflow stop is breaking
    # only if the minimum slope has collapsed, and a resolution loss otherwise.
    min_slope = rows[-1][1]
    detected = stop_reason == "slope_threshold"
    resolution_loss = False
    if stop_reason in ("tail", "overflow"):
        detected = _classify_tail_stop(min_slope, rows[0][1])
        resolution_loss = not detected
        if stop_reason == "tail":
            stop_reason = "tail_breaking" if detected else "tail_resolution_loss"
    t_stop = t_detect = None
    if detected:
        t_stop = t_detect = rows[-1][0]
        if stop_reason != "overflow":
            t_detect += 2.0 / ((cfg.b - 1.0) * abs(min_slope))

    report = BlowupReport(
        detected=detected,
        t_detect=t_detect,
        criterion_points=points,
        lifespan_bound=_bound_over_points(points, cfg.b, beta_b),
        resolution_loss=resolution_loss,
        stop_reason=stop_reason,
        t_stop=t_stop,
        steps=len(dts),
        dt_min=min(dts, default=None),
        dt_max=max(dts, default=None),
    )

    final = u + hi if dts else u0.values.copy()
    history = np.array(rows, dtype=[(name, np.float64) for name in SERIES_COLUMNS])
    return Trajectory(history=history, final=TorusField(values=final, time=rows[-1][0])), report
