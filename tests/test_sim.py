import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from bfamily import (
    BOutOfRange,
    SimConfig,
    TorusField,
    check_convolution_bound,
    check_criterion,
    compute_beta_b,
    compute_j,
    conserved_quantities,
    integrate,
    lifespan_bound,
    rhs,
    step,
)
from bfamily import sim
from bfamily.sim import _MAX_N, CRITERION_COLUMNS, SERIES_COLUMNS, _dp_symbol

TWO_SINH_HALF = 2.0 * math.sinh(0.5)


def p_closed(s):
    return np.cosh(s - 0.5) / TWO_SINH_HALF


def dp_closed(s):
    return np.sinh(s - 0.5) / TWO_SINH_HALF


def gauss_convolve(kernel, f, xs, order=96):
    # (kernel * f)(x) by Gauss-Legendre on the two pieces separated by the kink.
    nodes, weights = np.polynomial.legendre.leggauss(order)
    out = np.empty_like(xs)
    for i, x in enumerate(xs):
        acc = 0.0
        for a, b in ((0.0, x), (x, 1.0)):
            if b - a < 1e-15:
                continue
            y = 0.5 * (b - a) * nodes + 0.5 * (a + b)
            s = x - y
            s = s - np.floor(s)
            acc += 0.5 * (b - a) * np.sum(weights * kernel(s) * f(y))
        out[i] = acc
    return out


class TestSimConfig:
    @pytest.mark.parametrize("b", [1.0, 3.5])
    def test_b_outside_domain(self, b):
        with pytest.raises(BOutOfRange):
            SimConfig(b=b, t_max=1.0)

    # cfl must also be finite: at inf the first step spans the whole horizon.
    # The other three may be infinite, meaning "run until another stop".
    @pytest.mark.parametrize("name, value", [
        (name, value)
        for name in ["t_max", "cfl", "blowup_slope_threshold", "max_steps"]
        for value in [0.0, -1.0, float("nan")]
    ] + [("cfl", math.inf)])
    def test_run_parameters_positive(self, name, value):
        with pytest.raises(ValueError):
            SimConfig(**{"b": 2.0, "t_max": 1.0, name: value})


@pytest.mark.parametrize("b", [math.nan, 5.0])
@pytest.mark.parametrize("call", [
    lambda u, b: rhs(u, b),
    lambda u, b: step(u, b, 1e-3),
    lambda u, b: lifespan_bound(u, b, 0.5),
], ids=["rhs", "step", "lifespan_bound"])
def test_public_calls_check_b(call, b):
    # As SimConfig does for integrate: NaN used to give an all-NaN field
    # from rhs and step, and no bound from lifespan_bound.
    with pytest.raises(BOutOfRange):
        call(TorusField.cosine(1.0, 64), b)


@pytest.mark.parametrize("beta_b", [-1.0, -0.1, 0.0, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call", [
    lambda u, beta_b: check_criterion(u, beta_b),
    lambda u, beta_b: lifespan_bound(u, 2.0, beta_b),
    lambda u, beta_b: integrate(u, SimConfig(b=2.0, t_max=0.45), beta_b=beta_b),
], ids=["check_criterion", "lifespan_bound", "integrate"])
def test_beta_b_finite_positive(call, beta_b):
    # One rule for the threshold, kept in check_criterion; integrate applies
    # it before the first step.
    with pytest.raises(ValueError, match="beta_b must be finite and > 0"):
        call(TorusField.cosine(1.0, 64), beta_b)


class TestTorusField:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            TorusField(np.ones(100))  # not a power of two
        with pytest.raises(ValueError):
            TorusField(np.ones(4))
        with pytest.raises(ValueError):
            TorusField(5.0)  # 0-d: no grid at all

    @pytest.mark.parametrize("n", [2**40, 2 * _MAX_N])
    @pytest.mark.parametrize("build", [TorusField.cosine, TorusField.constant])
    def test_grid_cap_refused_before_any_array(self, build, n):
        # 2^40 points would ask for terabytes: the cap refuses them, and
        # twice the cap, before the samples are built.
        with pytest.raises(ValueError, match=rf"to 16777216 samples \(got {n}\)"):
            build(1.0, n)

    @pytest.mark.parametrize("build", [TorusField.cosine, TorusField.constant])
    def test_grid_size_must_be_an_integer(self, build):
        # The grid rule refuses a float n, whose power-of-two test needs an
        # integer; a numpy integer is a size.
        with pytest.raises(ValueError, match=r"samples \(got 8.0\)"):
            build(1.0, 8.0)
        assert build(1.0, np.int64(8)).n == 8

    @pytest.mark.parametrize("time", [math.nan, math.inf, -math.inf])
    def test_time_must_be_finite(self, time):
        with pytest.raises(ValueError, match="time must be finite"):
            TorusField(np.ones(8), time=time)

    def test_derivative_spectral(self):
        u = TorusField.cosine(1.0, 256)
        expected = -2.0 * np.pi * np.sin(2.0 * np.pi * u.x)
        assert np.allclose(u.derivative_values(), expected, atol=1e-12)

    def test_from_coefficients(self):
        u = TorusField.from_coefficients([0.5, 0.1], [0.0, -0.2], 64)
        x = u.x
        expected = 0.5 + 0.1 * np.cos(2 * np.pi * x) - 0.2 * np.sin(2 * np.pi * x)
        assert np.allclose(u.values, expected, atol=1e-14)

    @pytest.mark.parametrize("cos_coeffs, sin_coeffs", [
        ([0, 0, 0, 0, 0, 1], []),  # cos mode 5 would alias to mode 3
        ([], [0, 0, 0, 0, 1]),     # sin mode n/2 would vanish on the grid
    ])
    def test_from_coefficients_refuses_modes_beyond_the_grid(self, cos_coeffs, sin_coeffs):
        with pytest.raises(ValueError, match="8 grid points hold cosine modes up to 4"):
            TorusField.from_coefficients(cos_coeffs, sin_coeffs, 8)

    def test_from_coefficients_takes_every_mode_the_grid_holds(self):
        # cos mode n/2 is (-1)^j; zeros beyond the grid's modes ask for nothing.
        u = TorusField.from_coefficients([0, 0, 0, 0, 1, 0, 0], [0, 0, 0, 1, 0, 0], 8)
        x = u.x
        want = np.cos(2.0 * np.pi * 4 * x) + np.sin(2.0 * np.pi * 3 * x)
        assert np.allclose(u.values, want, atol=1e-14)

    @pytest.mark.parametrize("amp, n", [(1.0, 8), (0.1, 256), (-2.5, 1024), (1e-320, 64)])
    def test_presets_bit_for_bit(self, amp, n):
        # The presets are one term added to zeros, to the bit, so the golden
        # runs keep their bytes; the zero at x = 0 of odd_sine is +0.0.
        x = np.arange(n) / n
        for u, term in [(TorusField.cosine(amp, n), amp * np.cos(2.0 * np.pi * x)),
                        (TorusField.odd_sine(amp, n), -amp * np.sin(2.0 * np.pi * x))]:
            want = np.zeros(n) + term
            assert np.array_equal(u.values, want)
        assert not np.signbit(TorusField.odd_sine(amp, n).values[0])


class TestRhs:
    def test_constant_is_stationary(self):
        u = TorusField.constant(2.5, 128)
        out = rhs(u, 2.0)
        assert np.abs(out.values).max() < 1e-14

    def test_matches_quadrature_oracle(self):
        n = 8192
        u = TorusField.cosine(1.0, n)
        b = 2.0
        x = u.x

        def g(y):
            uy = np.cos(2.0 * np.pi * y)
            uxy = -2.0 * np.pi * np.sin(2.0 * np.pi * y)
            return 0.5 * b * uy**2 + 0.5 * (3.0 - b) * uxy**2

        # modest evaluation set: the oracle is O(points * order)
        idx = np.arange(0, n, 256)
        expected = (
            -u.values[idx] * u.derivative_values()[idx]
            - gauss_convolve(dp_closed, g, x[idx])
        )
        got = rhs(u, b).values[idx]
        assert np.abs(got - expected).max() < 1e-9

    def test_zero_mean_for_random_data(self):
        rng = np.random.default_rng(5)
        vals = rng.standard_normal(256)
        vals = np.fft.irfft(np.fft.rfft(vals) * (np.arange(129) < 20), 256)
        out = rhs(TorusField(vals), 2.5)
        assert abs(out.values.mean()) < 1e-12


def _rough_band_data(n):
    # Every band mode k <= n/3 with a seeded coefficient of size 1/k^2, so the
    # grid products fill the aliased modes, plus mode 100 n/256 above the band.
    rng = np.random.default_rng(0)
    k = np.arange(1, n // 3 + 1)
    spec = np.zeros(n // 2 + 1, dtype=np.complex128)
    spec[k] = (rng.standard_normal(k.size) - 1j * rng.standard_normal(k.size)) * n / (2 * k**2)
    x = np.arange(n) / n
    return np.fft.irfft(spec, n) + 1e-4 * np.cos(2.0 * np.pi * (100 * n // 256) * x)


class TestSquaresIdentity:
    # With dealiasing the stepper forms u u_x as (u^2)_x / 2, exact on the
    # alias-free band: it must match the products formed on the grid.
    @pytest.mark.parametrize("b", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("n", [256, 1024])
    def test_rhs_matches_product_form(self, n, b):
        vals = _rough_band_data(n)
        band = slice(0, n // 3 + 1)
        k = np.arange(n // 2 + 1)
        spec = np.fft.rfft(vals)[band]
        u = np.fft.irfft(spec, n)
        ux = np.fft.irfft(spec * 2j * np.pi * k[band], n)
        adv = np.fft.rfft(u * ux)[band]
        quad = np.fft.rfft(0.5 * b * u * u + 0.5 * (3.0 - b) * ux * ux)[band]
        want = -np.fft.irfft(adv + _dp_symbol(n)[band] * quad, n)
        got = rhs(TorusField(vals), b).values
        # Measured: 5.5e-15 to 6.3e-15 (n = 256) and 2.8e-14 to 3.0e-14
        # (n = 1024) of max|T| here; at most 8.3e-14 over 60 other seeded data.
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def _seeded_bound_data(count):
    # Seeded trigonometric polynomials of up to 8 modes, each with a b and a
    # beta_b, as (u0, b, beta_b).
    rng = np.random.default_rng(36)
    data = []
    for _ in range(count):
        k = rng.integers(1, 9)
        u0 = TorusField.from_coefficients(rng.standard_normal(k + 1),
                                          rng.standard_normal(k + 1), 1024)
        data.append((u0, float(rng.uniform(1.2, 3.0)), float(rng.uniform(0.1, 1.5))))
    return data


class TestCriterion:
    def test_cosine_has_quarter_point(self):
        u0 = TorusField.cosine(1.0, 1024)
        pts = check_criterion(u0, 1.0)
        assert pts.size
        best = pts[np.argmax(pts["du0"] ** 2 - pts["u0"] ** 2)]
        assert best["x"] == pytest.approx(0.25, abs=1.0 / 1024)
        assert best["margin"] == pytest.approx(2.0 * np.pi, abs=1e-9)

    def test_constant_has_no_points(self):
        assert check_criterion(TorusField.constant(1.0, 128), 1.0).size == 0

    def test_sine_against_direct_scan(self):
        u0 = TorusField.from_coefficients([0.0], [0.0, 1.0], 512)
        beta = 10.0
        pts = check_criterion(u0, beta)
        x = u0.x
        vals = np.sin(2.0 * np.pi * x)
        dvals = 2.0 * np.pi * np.cos(2.0 * np.pi * x)
        expected = {float(xx) for xx in x[-dvals - beta * np.abs(vals) > 0.0]}
        assert set(pts["x"].tolist()) == expected

    def test_lifespan_simple_substitution(self):
        # slope -1 at a zero of u0 dominates: bound = 2/(b-1)
        u0 = TorusField.from_coefficients([0.0], [0.0, -1.0 / (2.0 * np.pi)], 256)
        assert lifespan_bound(u0, 2.0, 0.5) == pytest.approx(2.0, abs=1e-10)

    def test_lifespan_cosine(self):
        u0 = TorusField.cosine(1.0, 1024)
        assert lifespan_bound(u0, 2.0, 0.51) == pytest.approx(1.0 / np.pi, abs=1e-10)

    def test_lifespan_none_without_points(self):
        assert lifespan_bound(TorusField.constant(1.0, 128), 2.0, 1.0) is None

    @pytest.mark.parametrize("scale", [1e-300, 1e150, 1e160])
    def test_lifespan_scale_free(self, scale):
        # bound(scale u0) = bound(u0) / scale; the squares of the datum
        # underflow to 0 at 1e-300 and overflow at 1e160.
        u0 = TorusField.cosine(1.0, 1024)
        scaled = lifespan_bound(TorusField(scale * u0.values), 2.0, 0.51)
        assert scale * scaled == pytest.approx(lifespan_bound(u0, 2.0, 0.51), rel=1e-12)

    def test_lifespan_none_beyond_float_range(self):
        # The points qualify, but 2 / ((b-1) |u0'|) exceeds the largest float.
        u0 = TorusField.cosine(1e-320, 64)
        assert check_criterion(u0, 0.5).size
        assert lifespan_bound(u0, 2.0, 0.5) is None

    @pytest.mark.parametrize("u0, b, beta_b", [
        (TorusField.cosine(1.0, 1024), 2.0, 0.51),
        (TorusField.odd_sine(0.1, 1024), 2.5, 0.66616),
        *((TorusField(scale * TorusField.cosine(1.0, 1024).values), 2.0, 0.51)
          for scale in (1e-300, 1e150, 1e160)),
        *_seeded_bound_data(8),
    ], ids=["cosine", "odd_sine", "scale1e-300", "scale1e150", "scale1e160",
            *(f"seeded{i}" for i in range(8))])
    def test_lifespan_bits_of_the_point_loop(self, u0, b, beta_b):
        want = _loop_bound(check_criterion(u0, beta_b), b, beta_b)
        assert want is not None
        assert lifespan_bound(u0, b, beta_b) == want

    def test_peak_grid_arrays(self):
        # Deterministic, unlike a timing: at n = 2^16 the cosine qualifies at
        # 31111 points, and the peak, the points included, stays within
        # eight n-float arrays (one Python object per point took 16).
        n = 2**16
        u0 = TorusField.cosine(1.0, n)
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            base = tracemalloc.get_traced_memory()[0]
            pts = check_criterion(u0, 0.5)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert pts.size == 31111
        assert peak / (8 * n) <= 8.0

    @pytest.mark.parametrize("amp", [1e154, 1e308])
    @pytest.mark.parametrize("call", [
        lambda u0: lifespan_bound(u0, 2.0, 0.5),
        lambda u0: check_criterion(u0, 0.5),
        lambda u0: conserved_quantities(u0),
        lambda u0: check_convolution_bound(u0, 2.0, 0.5),
    ], ids=["lifespan_bound", "check_criterion", "conserved_quantities",
            "check_convolution_bound"])
    def test_huge_data_quiet(self, call, amp):
        # The rfft overflows at 1e308 and u_x^2 at 1e154, quietly as in
        # integrate (the suite makes every warning an error); the caller's
        # numpy error state is left as it was.
        before = np.geterr()
        call(TorusField.cosine(amp, 64))
        assert np.geterr() == before


def _loop_bound(points, b, beta_b):
    # The per-point loop lifespan_bound once ran over its criterion points,
    # kept as the oracle of its bits.
    if not points.size:
        return None
    root = 0.0
    for _, u0, du0, _ in points.tolist():
        r = beta_b * abs(u0) / abs(du0)
        root = max(root, abs(du0) * math.sqrt((1.0 - r) * (1.0 + r)))
    scale = (b - 1.0) * root
    bound = 2.0 / scale if scale > 0.0 else math.inf
    return bound if 0.0 < bound < math.inf else None


def _trig(cos_c, sin_c):
    # The trigonometric polynomial of from_coefficients and its derivative,
    # as functions of y.
    def u(y):
        return sum(c * np.cos(2.0 * np.pi * k * y) for k, c in enumerate(cos_c)) + sum(
            c * np.sin(2.0 * np.pi * k * y) for k, c in enumerate(sin_c))

    def ux(y):
        return sum(-2.0 * np.pi * k * c * np.sin(2.0 * np.pi * k * y)
                   for k, c in enumerate(cos_c)) + sum(
            2.0 * np.pi * k * c * np.cos(2.0 * np.pi * k * y) for k, c in enumerate(sin_c))

    return u, ux


class TestConvolutionBound:
    def test_constant_field_slack(self):
        rep = check_convolution_bound(TorusField.constant(1.0, 4096), 2.0, 0.0)
        expected = 1.0 - compute_j(2.0, 0.0).value
        assert rep.min_slack == pytest.approx(expected, abs=1e-10)

    def test_cosine_field(self):
        rep = check_convolution_bound(TorusField.cosine(1.0, 4096), 2.0, 1.0)
        assert rep.min_slack >= -1e-8

    def test_random_sweep(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            k = rng.integers(1, 9)
            cos_c = rng.standard_normal(k + 1) * 0.5
            sin_c = rng.standard_normal(k + 1) * 0.5
            b = float(rng.choice([1.5, 2.0, 2.5, 3.0]))
            beta = float(rng.choice([0.0, 1.0]))
            u = TorusField.from_coefficients(cos_c, sin_c, 4096)
            rep = check_convolution_bound(u, b, beta)
            assert rep.min_slack >= -1e-8, (b, beta)

    @pytest.mark.parametrize("beta", [-1.0, 1.0])
    @pytest.mark.parametrize("b", [1.5, 2.5])
    @pytest.mark.parametrize("cos_c, sin_c", [
        ([0.3, 1.0], [0.0, 0.5]),
        ([0.0, 0.4, -0.3], [0.0, 0.2, 0.7]),
        ([-0.2, 0.0, 0.1, 0.25], [0.0, -0.6, 0.0, 0.15]),
    ])
    def test_against_quadrature_oracle(self, cos_c, sin_c, b, beta):
        # The slack from the analytic u and u_x and a Gauss-quadrature
        # convolution with the closed-form p + beta p'.
        u, ux = _trig(cos_c, sin_c)
        j = compute_j(b, beta).value

        def oracle(xs):
            g = lambda y: 0.5 * b * u(y) ** 2 + 0.5 * (3.0 - b) * ux(y) ** 2
            w = lambda s: p_closed(s) + beta * dp_closed(s)
            return gauss_convolve(w, g, xs) - j * u(xs) ** 2

        field = TorusField.from_coefficients(cos_c, sin_c, 256)
        rep = check_convolution_bound(field, b, beta)
        assert rep.min_slack == pytest.approx(oracle(np.array([rep.x_at_min]))[0], abs=1e-10)
        assert oracle(field.x[::8]).min() >= rep.min_slack - 1e-10

    def test_forty_modes(self):
        # Any number of modes: 40, with coefficients decaying as 1/k^2.
        rng = np.random.default_rng(40)
        k = np.arange(41)
        scale = 1.0 / np.maximum(k, 1) ** 2
        u = TorusField.from_coefficients(rng.standard_normal(41) * scale,
                                         rng.standard_normal(41) * scale, 1024)
        for beta in (-1.0, 0.0, 1.0):
            assert check_convolution_bound(u, 2.0, beta).min_slack >= -1e-8, beta

    @pytest.mark.parametrize("b", [1.5, 2.0, 2.5])
    def test_simulated_fields(self, b):
        # The lemma on the simulator's own field near breaking, at +-beta_b.
        beta_b = compute_beta_b(b).beta_b
        u0 = TorusField.cosine(1.0, 512)
        traj, _ = integrate(u0, SimConfig(b=b, t_max=0.2), beta_b=beta_b)
        assert traj.final.time > 0.18
        assert traj.history["min_slope"][-1] < -10.0  # steepened from -2 pi
        for beta in (beta_b, -beta_b):
            assert check_convolution_bound(traj.final, b, beta).min_slack >= -1e-8, beta


class TestIntegrate:
    def test_constant_data_flat(self):
        traj, rep = integrate(TorusField.constant(1.0, 256), SimConfig(b=2.0, t_max=1.0))
        assert not rep.detected
        assert rep.stop_reason == "t_max"
        assert np.abs(traj.final.values - 1.0).max() < 1e-12

    def test_zero_data_stays_zero(self):
        traj, rep = integrate(TorusField.constant(0.0, 128), SimConfig(b=2.0, t_max=1.0))
        assert np.abs(traj.final.values).max() <= 1e-15

    def test_mean_conserved(self):
        u0 = TorusField.from_coefficients([0.2, 0.05, 0.02], [0.0, 0.03], 512)
        traj, _ = integrate(u0, SimConfig(b=2.5, t_max=1.0))
        mean = traj.history["mean"]
        drift = np.abs(mean - mean[0]).max()
        assert drift < 1e-10

    def test_h1_conserved_at_b2_while_smooth(self):
        u0 = TorusField.cosine(1.0, 512)
        traj, _ = integrate(u0, SimConfig(b=2.0, t_max=0.2))
        h1 = traj.history["h1_energy"]
        rel = np.abs(h1 - h1[0]).max() / h1[0]
        assert rel < 1e-8

    def test_cosine_breaks_before_its_bound(self):
        u0 = TorusField.cosine(1.0, 1024)
        traj, rep = integrate(u0, SimConfig(b=2.0, t_max=0.45), beta_b=0.51)
        assert rep.detected and not rep.resolution_loss
        assert rep.lifespan_bound == pytest.approx(1.0 / np.pi, abs=1e-9)
        assert rep.t_detect <= rep.lifespan_bound * 1.05
        assert rep.t_stop <= rep.t_detect

    def test_odd_sine_breaks(self):
        u0 = TorusField.odd_sine(0.1, 1024)
        traj, rep = integrate(u0, SimConfig(b=2.5, t_max=50.0))
        assert rep.detected
        assert rep.t_detect < 50.0

    def test_resolution_loss_distinguished(self):
        # Rough data near the cutoff trips the tail monitor without any
        # slope collapse: reported as resolution loss, not breaking.
        n = 256
        k_active = n // 3
        x = np.arange(n) / n
        vals = 0.01 * np.cos(2.0 * np.pi * x) + 2e-3 * np.cos(
            2.0 * np.pi * (k_active - 2) * x
        )
        traj, rep = integrate(TorusField(vals), SimConfig(b=2.0, t_max=2.0))
        assert rep.resolution_loss
        assert not rep.detected
        assert rep.stop_reason == "tail_resolution_loss"

    def test_report_counts_steps_and_dt_range(self):
        traj, rep = integrate(TorusField.cosine(1.0, 256), SimConfig(b=2.0, t_max=0.5))
        dts = np.diff(traj.history["t"])
        assert rep.steps == len(traj.history) - 1
        assert rep.dt_min == pytest.approx(dts.min(), rel=1e-12)
        assert rep.dt_max == pytest.approx(dts.max(), rel=1e-12)
        assert rep.dt_min < rep.dt_max  # dt shrinks as the wave steepens

    def test_snapshot_bookkeeping(self):
        u0 = TorusField.cosine(0.2, 256)
        traj, rep = integrate(u0, SimConfig(b=2.0, t_max=0.1))
        assert traj.final.time == pytest.approx(0.1, abs=1e-12)
        assert len(traj.history) == rep.steps + 1
        # One step record, whose fields are the series header, and the final
        # state; the report's only array is its criterion points, whose
        # fields are the report keys.
        assert [f.name for f in dataclasses.fields(traj)] == ["history", "final"]
        assert traj.history.dtype.names == SERIES_COLUMNS
        assert all(traj.history.dtype[name] == np.float64 for name in SERIES_COLUMNS)
        assert [f.name for f in dataclasses.fields(rep)
                if isinstance(getattr(rep, f.name), np.ndarray)] == ["criterion_points"]
        assert rep.criterion_points.dtype.names == CRITERION_COLUMNS
        assert all(rep.criterion_points.dtype[name] == np.float64
                   for name in CRITERION_COLUMNS)

    def test_slope_threshold_stop(self):
        # With threshold 50 the tail monitor trips first; 20 is crossed at
        # step 138, while the spectrum is still resolved.
        cfg = SimConfig(b=2.0, t_max=1.0, blowup_slope_threshold=20.0)
        traj, rep = integrate(TorusField.cosine(1.0, 256), cfg)
        assert rep.stop_reason == "slope_threshold"
        assert rep.detected and not rep.resolution_loss
        last = traj.history[-1]
        assert last["min_slope"] < -20.0
        assert rep.t_stop == last["t"]
        assert rep.t_detect == rep.t_stop + 2.0 / ((cfg.b - 1.0) * abs(last["min_slope"]))

    def test_overflow_stop(self):
        # max|u0| exceeds the overflow limit, so the run stops before a step.
        u0 = TorusField.cosine(1e9, 128)
        traj, rep = integrate(u0, SimConfig(b=2.0, t_max=1.0))
        assert rep.stop_reason == "overflow"
        assert rep.steps == 0
        assert not rep.detected and rep.resolution_loss
        assert rep.t_stop is None and rep.t_detect is None
        assert np.array_equal(traj.final.values, u0.values)
        assert traj.final.values is not u0.values
        assert traj.final.time == u0.time

    @pytest.mark.parametrize("start", [1e12, 1e15, 1e300])
    def test_large_start_time_loses_no_time(self, start):
        # The clock is the elapsed time, so a run from a large start time
        # takes the steps of the same run from 0, none rounded away, and
        # stamps its rows with start + elapsed.
        cfg = SimConfig(b=2.0, t_max=0.5)
        u0 = TorusField.cosine(1.0, 256)
        ref, ref_rep = integrate(u0, cfg)
        traj, rep = integrate(TorusField(u0.values, time=start), cfg)
        assert (rep.steps, rep.stop_reason) == (ref_rep.steps, ref_rep.stop_reason)
        assert np.array_equal(traj.history["min_slope"], ref.history["min_slope"])
        assert np.array_equal(traj.history["t"], start + ref.history["t"])
        assert traj.final.time == start + ref.final.time

    def test_run_is_the_band_projection(self):
        # Mode 11 lies above the band n/3 = 10 of a 32-point grid: the run
        # drops it, so the start row, the first step and the final state
        # are those of the band projection P u0 = cos(2 pi x).
        u0 = TorusField.from_coefficients([0, 1] + [0] * 9 + [0.3], [0] * 12, 32)
        proj = TorusField(_band_projection(u0.values, True))
        cfg = SimConfig(b=2.0, t_max=0.05)
        traj, _ = integrate(u0, cfg)
        start = traj.history[0]
        assert start["min_slope"] == pytest.approx(proj.derivative_values().min(), rel=1e-12)
        assert start["h1_energy"] == pytest.approx(conserved_quantities(proj).h1_energy,
                                                   rel=1e-12)
        final = np.abs(np.fft.rfft(traj.final.values))
        assert final[11:].max() <= 1e-14 * final.max()
        first = cfg.cfl / (32 * np.abs(proj.values).max())
        assert traj.history["t"][1] == pytest.approx(first, rel=1e-12)

    def test_criterion_reads_the_band_projection(self):
        # The datum of test_run_is_the_band_projection: the report's points
        # and bound are those of P u0 = cos(2 pi x), bound 1/pi, where the
        # datum as given has 0.1047.
        u0 = TorusField.from_coefficients([0, 1] + [0] * 9 + [0.3], [0] * 12, 32)
        proj = TorusField(_band_projection(u0.values, True))
        beta_b = 0.51328
        _, rep = integrate(u0, SimConfig(b=2.0, t_max=0.05), beta_b=beta_b)
        assert rep.lifespan_bound == pytest.approx(lifespan_bound(proj, 2.0, beta_b),
                                                   rel=1e-12)
        assert rep.lifespan_bound == pytest.approx(1.0 / np.pi, rel=1e-12)
        got, want = rep.criterion_points, check_criterion(proj, beta_b)
        assert np.array_equal(got["x"], want["x"])
        for name in CRITERION_COLUMNS[1:]:
            assert np.allclose(got[name], want[name], rtol=0.0, atol=1e-13)

    def test_criterion_reads_the_start_row(self):
        # The points come from the u and u_x of the start row: the steepest
        # one is the row's min_slope, bit for bit.
        traj, rep = integrate(TorusField.cosine(1.0, 1024),
                              SimConfig(b=2.0, t_max=0.45, max_steps=1), beta_b=0.51328)
        assert rep.criterion_points["du0"].min() == traj.history["min_slope"][0]

    @pytest.mark.parametrize("amp", [1e154, 1e308])
    def test_huge_data_stop_on_overflow_quietly(self, amp):
        # The transforms of such data overflow (u_x^2 at 1e154, the first
        # rfft at 1e308); the overflow stop covers that, so no numpy warning
        # escapes, and the suite makes every warning an error.
        u0 = TorusField.cosine(amp, 64)
        traj, rep = integrate(u0, SimConfig(b=2.0, t_max=0.01), beta_b=0.5)
        assert rep.stop_reason == "overflow"
        assert rep.steps == 0
        assert np.array_equal(traj.final.values, u0.values)
        assert rep.lifespan_bound is None or 0.0 < rep.lifespan_bound < math.inf


def _physical_rk4(vals, b, cfl, steps, dealias):
    # The physical-space RK4 of the original solver, written out as an oracle:
    # every stage goes grid -> spectrum -> grid, modes above the band included.
    n = vals.size
    k = np.arange(n // 2 + 1)
    mask = (k <= (n // 3 if dealias else n // 2)).astype(float)
    deriv = 2j * np.pi * k
    deriv[-1] = 0.0
    dp = 2j * np.pi * k / (1.0 + (2.0 * np.pi * k) ** 2)

    def f(v):
        spec = np.fft.rfft(v) * mask
        u, ux = np.fft.irfft(spec, n), np.fft.irfft(spec * deriv, n)
        adv = np.fft.rfft(u * ux) * mask
        quad = np.fft.rfft(0.5 * b * u * u + 0.5 * (3.0 - b) * ux * ux) * mask
        return np.fft.irfft(-adv - dp * quad, n)

    times = [0.0]
    for _ in range(steps):
        dt = cfl / (n * np.abs(vals).max())
        k1 = f(vals)
        k2 = f(vals + 0.5 * dt * k1)
        k3 = f(vals + 0.5 * dt * k2)
        k4 = f(vals + dt * k3)
        vals = vals + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        times.append(times[-1] + dt)
    return np.array(times), vals


def _band_projection(vals, dealias):
    # P u: the modes k <= n/3 of u with dealiasing, every mode without.
    n = vals.size
    spec = np.fft.rfft(vals)
    spec[(n // 3 if dealias else n // 2) + 1 :] = 0.0
    return np.fft.irfft(spec, n)


class TestFourierStateOracle:
    @pytest.mark.parametrize("dealias", [True, False])
    @pytest.mark.parametrize("high_mode", [0.0, 1e-4])
    def test_integrate_matches_physical_rk4(self, dealias, high_mode):
        # k = 100 lies above n/3 = 85: with dealiasing the run drops it and
        # evolves the datum's band projection, so the oracle starts from
        # that; without, it evolves.
        n, steps = 256, 40
        x = np.arange(n) / n
        vals = 0.8 * np.cos(2.0 * np.pi * x) + high_mode * np.cos(2.0 * np.pi * 100 * x)
        times, want = _physical_rk4(_band_projection(vals, dealias), 2.5, 0.3, steps, dealias)
        cfg = SimConfig(b=2.5, t_max=1.0, dealias=dealias, max_steps=steps)
        traj, rep = integrate(TorusField(vals), cfg)
        assert rep.stop_reason == "max_steps"
        assert np.abs(traj.history["t"] - times).max() <= 1e-12 * times[-1]
        assert np.abs(traj.final.values - want).max() <= 1e-12 * np.abs(want).max()

    def test_fft_count_per_step(self, monkeypatch):
        rows = []  # rows transformed by each call of the stepper's transforms
        for name in ("_rfft", "_irfft"):
            fn = getattr(sim, name)

            def counted(a, out, _fn=fn):
                rows.append(np.shape(a)[0])
                return _fn(a, out)

            monkeypatch.setattr(sim, name, counted)
        traj, rep = integrate(TorusField.cosine(1.0, 256), SimConfig(b=2.0, t_max=0.5))
        steps = len(traj.history) - 1
        assert steps > 100
        # One batched call per direction and RK4 stage, and one pair for the
        # start; the physical-space RK4 made 27 single-row calls per step, one
        # call per row made 16.
        assert len(rows) == 8 * steps + 2
        assert sum(rows) == 16 * steps + 4


class _SingleTransformStepper:
    # The spectral RK4 with one transform per row, written out as the
    # reference for the paired transforms: 2 irfft + 2 rfft per stage.  With
    # dealiasing the tendency comes from the squares u^2 and u_x^2, as
    # u u_x = (u^2)_x / 2 on the alias-free band; without, from the products.
    def __init__(self, n, b, dealias):
        self.n, self.b, self.dealias = n, b, dealias
        self.band = slice(0, (n // 3 if dealias else n // 2) + 1)
        k = np.arange(n // 2 + 1, dtype=np.float64)
        deriv = 2.0j * np.pi * k
        deriv[-1] = 0.0
        self.deriv = deriv[self.band]
        self.dp_mult = _dp_symbol(n)[self.band]
        self.square_mult = 0.5 * self.deriv + (0.5 * b) * self.dp_mult
        self.slope_square_mult = (0.5 * (3.0 - b)) * self.dp_mult

    def fields(self, spec):
        return np.fft.irfft(spec, self.n), np.fft.irfft(spec * self.deriv, self.n)

    def tendency(self, u, ux):
        b = self.b
        if self.dealias:
            sq = np.fft.rfft(u * u)[self.band]
            slope_sq = np.fft.rfft(ux * ux)[self.band]
            return -(self.square_mult * sq + self.slope_square_mult * slope_sq)
        adv = np.fft.rfft(u * ux)[self.band]
        quad = np.fft.rfft(0.5 * b * u * u + 0.5 * (3.0 - b) * ux * ux)[self.band]
        return -adv - self.dp_mult * quad

    def increment(self, spec, dt, u, ux):
        k1 = self.tendency(u, ux)
        k2 = self.tendency(*self.fields(spec + 0.5 * dt * k1))
        k3 = self.tendency(*self.fields(spec + 0.5 * dt * k2))
        k4 = self.tendency(*self.fields(spec + dt * k3))
        return (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _with_high_mode(n, high_mode):
    # Mode 100 n/256 lies above the band n/3 with dealiasing.
    x = np.arange(n) / n
    return (0.8 * np.cos(2.0 * np.pi * x)
            + high_mode * np.cos(2.0 * np.pi * (100 * n // 256) * x))


def _single_transform_run(vals, b, cfl, steps, dealias):
    # integrate's loop and history rows on the single-transform stepper, for
    # a run that takes exactly ``steps`` steps.
    n = vals.size
    st = _SingleTransformStepper(n, b, dealias)
    spec = np.fft.rfft(vals)[st.band]
    u, ux = st.fields(spec)
    k_lo = int(math.ceil(2.0 * (st.band.stop - 1) / 3.0))
    t, rows = 0.0, []

    def record():
        energy = np.abs(spec[1:] * st.deriv[1:]) ** 2
        tail = float(energy[k_lo - 1 :].sum()) / float(energy.sum())
        if dealias:  # zero modes of the state and of the squares
            mean = spec[0].real / n
            h1 = (np.fft.rfft(u * u)[0].real + np.fft.rfft(ux * ux)[0].real) / n
        else:
            mean, h1 = u.mean(), np.mean(u * u + ux * ux)
        rows.append((t, float(ux.min()), float(mean), float(h1), tail))

    record()
    for _ in range(steps):
        dt = cfl / (n * float(np.max(np.abs(u))))
        spec = spec + st.increment(spec, dt, u, ux)
        u, ux = st.fields(spec)
        t += dt
        record()
    return np.asarray(rows), u


class TestPairedTransforms:
    # Batching the transforms two rows per call must not move a bit.
    @pytest.mark.parametrize("dealias", [True, False])
    @pytest.mark.parametrize("high_mode", [0.0, 1e-4])
    @pytest.mark.parametrize("n", [256, 512])
    def test_integrate_bit_identical(self, n, high_mode, dealias):
        steps = 40
        vals = _with_high_mode(n, high_mode)
        want_rows, want_final = _single_transform_run(vals, 2.5, 0.3, steps, dealias)
        cfg = SimConfig(b=2.5, t_max=1.0, dealias=dealias, max_steps=steps)
        traj, rep = integrate(TorusField(vals), cfg)
        assert rep.stop_reason == "max_steps"
        for col, name in enumerate(SERIES_COLUMNS):
            assert np.array_equal(traj.history[name], want_rows[:, col]), name
        assert np.array_equal(traj.final.values, want_final)

    @pytest.mark.parametrize("dealias", [True, False])
    @pytest.mark.parametrize("n", [256, 512])
    def test_step_and_rhs_bit_identical(self, n, dealias):
        vals = _with_high_mode(n, 1e-4)
        u = TorusField(vals, time=0.25)
        st = _SingleTransformStepper(n, 2.5, dealias)
        spec = u.spectrum()[st.band]
        dt = 1e-3
        want_step = vals + np.fft.irfft(st.increment(spec, dt, *st.fields(spec)), n)
        want_rhs = np.fft.irfft(st.tendency(*st.fields(spec)), n)
        stepped = step(u, 2.5, dt, dealias=dealias)
        assert np.array_equal(stepped.values, want_step)
        assert stepped.time == 0.25 + dt
        assert np.array_equal(rhs(u, 2.5, dealias=dealias).values, want_rhs)

    def test_results_share_no_memory(self):
        u = TorusField.cosine(0.5, 256)
        s1, s2 = step(u, 2.0, 1e-3), step(u, 2.0, 1e-3)
        r1, r2 = rhs(u, 2.0), rhs(u, 2.0)
        traj, _ = integrate(u, SimConfig(b=2.0, t_max=0.05))
        # The stepper's workspaces never reach a result: a second run at the
        # same n leaves the first run's arrays as they were.
        final, history = traj.final.values.copy(), traj.history.copy()
        again, _ = integrate(TorusField.cosine(0.7, 256), SimConfig(b=2.5, t_max=0.05))
        assert np.array_equal(traj.final.values, final)
        assert np.array_equal(traj.history, history)
        outs = [s1.values, s2.values, r1.values, r2.values, traj.final.values,
                traj.history, again.final.values, again.history, u.values]
        for i, a in enumerate(outs):
            assert a.flags.owndata  # no view of a workspace
            for other in outs[i + 1 :]:
                assert not np.shares_memory(a, other)


class TestTransformRoute:
    # The stepper calls pocketfft's gufuncs directly on numpy >= 2 and
    # numpy.fft before; both routes must give the same bits.
    def test_route_resolved(self):
        major = int(np.__version__.split(".")[0])
        if major >= 2:
            assert sim._FFT_ROUTE == "pocketfft gufuncs"
            assert sim._rfft is not sim._numpy_rfft
            assert sim._irfft is not sim._numpy_irfft
        else:
            assert sim._FFT_ROUTE == "numpy.fft"
            assert sim._rfft is sim._numpy_rfft
            assert sim._irfft is sim._numpy_irfft

    @pytest.mark.parametrize("dealias", [True, False])
    @pytest.mark.parametrize("n", [256, 512])
    def test_numpy_fft_route_bit_identical(self, monkeypatch, n, dealias):
        vals = _with_high_mode(n, 1e-4)
        cfg = SimConfig(b=2.5, t_max=1.0, dealias=dealias, max_steps=40)
        traj, _ = integrate(TorusField(vals), cfg)
        monkeypatch.setattr(sim, "_rfft", sim._numpy_rfft)
        monkeypatch.setattr(sim, "_irfft", sim._numpy_irfft)
        want, _ = integrate(TorusField(vals), cfg)
        assert traj.history.tobytes() == want.history.tobytes()
        assert traj.final.values.tobytes() == want.final.values.tobytes()


@pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf])
def test_step_refuses_non_finite_dt(monkeypatch, dt):
    # Refused before any transform, so no RK4 stage runs on it.
    u = TorusField.cosine(0.5, 64)

    def no_transform(*args, **kwargs):
        raise AssertionError("transform before the dt check")

    for name in ("_rfft", "_irfft"):
        monkeypatch.setattr(sim, name, no_transform)
    for name in ("rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, no_transform)
    with pytest.raises(ValueError, match="dt must be finite"):
        step(u, 2.0, dt)


class TestStepReversal:
    def test_time_reversal_fourth_order(self):
        u0 = TorusField.cosine(0.5, 256)

        def pair_error(dt):
            fwd = step(u0, 2.0, dt)
            back = step(fwd, 2.0, -dt)
            return np.abs(back.values - u0.values).max()

        e1, e2 = pair_error(1e-3), pair_error(5e-4)
        assert e1 < 1e-10
        assert e1 / e2 > 8.0  # at least fourth-order shrinkage

    def test_time_reversal_order_above_rounding(self):
        # At dt = 1e-3 and 5e-4 the forward-then-back error is a few ulp of
        # the 0.5 amplitude, so the ratio above compares rounding.  At 4e-3
        # and 2e-3 it is truncation (2.2e-12 and 3.4e-14), ~100x above the
        # rounding floor, and halving dt must shrink it by more than 2^3.
        u0 = TorusField.cosine(0.5, 256)

        def pair_error(dt):
            back = step(step(u0, 2.0, dt), 2.0, -dt)
            return np.abs(back.values - u0.values).max()

        e1, e2 = pair_error(4e-3), pair_error(2e-3)
        assert e2 > 100 * np.finfo(float).eps * 0.5  # truncation, not rounding
        assert e1 < 1e-10
        assert e1 / e2 > 8.0


class TestConservedQuantities:
    def test_constant_field(self):
        q = conserved_quantities(TorusField.constant(1.5, 128))
        assert q.mean == pytest.approx(1.5, abs=1e-15)
        assert q.h1_energy == pytest.approx(2.25, abs=1e-12)

    def test_cosine_field(self):
        q = conserved_quantities(TorusField.cosine(1.0, 512))
        assert q.mean == pytest.approx(0.0, abs=1e-15)
        assert q.h1_energy == pytest.approx(0.5 + 2.0 * np.pi**2, abs=1e-10)
