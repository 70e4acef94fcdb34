import math

import numpy as np
import pytest
from scipy.integrate import quad

from bfamily import (
    BETA_MAX,
    BetaOutOfRange,
    BOutOfRange,
    compute_j,
    estimate3,
    eval_dp,
    eval_p,
    unit_weight,
)
from bfamily.estimates import extreme_weight_j
from bfamily.kernel import check_b, check_beta, is_b3, is_degenerate
from bfamily.sim import _dp_symbol, _p_symbol

E = math.e


def gauss_convolve(kernel, f, xs, order=96):
    """Quadrature oracle for (kernel * f)(x): Gauss-Legendre on the two
    smooth pieces either side of the kernel's kink at x - y = 0."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    out = np.empty_like(xs)
    for i, x in enumerate(xs):
        acc = 0.0
        for a, b in ((0.0, x), (x, 1.0)):
            if b - a < 1e-15:
                continue
            y = 0.5 * (b - a) * nodes + 0.5 * (a + b)
            s = x - y
            s = s - np.floor(s)  # kernel argument in [0, 1); pieces avoid 0
            acc += 0.5 * (b - a) * np.sum(weights * kernel(s) * f(y))
        out[i] = acc
    return out


def p_closed(s):
    return np.cosh(s - 0.5) / (2.0 * math.sinh(0.5))


def dp_closed(s):
    return np.sinh(s - 0.5) / (2.0 * math.sinh(0.5))


class TestEvalP:
    def test_at_zero(self):
        assert eval_p(0.0) == pytest.approx(0.5 / math.tanh(0.5), abs=1e-15)

    def test_at_half(self):
        assert eval_p(0.5) == pytest.approx(1.0 / (2.0 * math.sinh(0.5)), abs=1e-15)

    def test_unit_mass(self):
        val, err = quad(lambda x: float(eval_p(x)), 0.0, 1.0, epsabs=1e-14)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_periodic_and_even(self):
        x = np.linspace(-3.0, 3.0, 401)
        assert np.allclose(eval_p(x), eval_p(x + 1.0), atol=1e-14)
        y = np.linspace(1e-3, 1.0 - 1e-3, 101)
        assert np.allclose(eval_p(y), eval_p(1.0 - y), atol=1e-14)

    def test_positive(self):
        x = np.linspace(0.0, 1.0, 1001)
        assert np.all(eval_p(x) > 0.0)


class TestUnitWeight:
    def test_extreme_beta_closed_form(self):
        # At beta = (e+1)/(e-1) the weight is 2e/(e-1)^2 * sinh(x) on (0, 1).
        x = np.linspace(1e-6, 1.0 - 1e-6, 57)
        expected = 2.0 * E / (E - 1.0) ** 2 * np.sinh(x)
        assert np.allclose(unit_weight(BETA_MAX, x), expected, atol=1e-13)

    def test_beta_zero_reduces_to_p(self):
        assert unit_weight(0.0, 0.5) == pytest.approx(float(eval_p(0.5)), abs=1e-15)

    def test_vanishes_at_degenerate_endpoint(self):
        assert unit_weight(BETA_MAX, 1e-12) == pytest.approx(0.0, abs=1e-11)

    def test_beta_out_of_range(self):
        with pytest.raises(BetaOutOfRange):
            unit_weight(BETA_MAX + 1e-6, 0.5)

    def test_unit_mass_for_beta_grid(self):
        for beta in np.linspace(-BETA_MAX, BETA_MAX, 9):
            val, _ = quad(lambda x: float(unit_weight(beta, x)), 0.0, 1.0, epsabs=1e-14)
            assert val == pytest.approx(1.0, abs=1e-12), beta

    def test_nonnegative_and_interior_positive(self):
        x = np.linspace(1e-9, 1.0 - 1e-9, 4001)
        for beta in np.linspace(-BETA_MAX, BETA_MAX, 11):
            w = unit_weight(beta, x)
            assert np.all(w >= -1e-13)
            if abs(beta) < BETA_MAX - 1e-9:
                assert np.all(w > 0.0)

    def test_mirror_identity(self):
        # (p + beta p')(1-x) = (p - beta p')(x) on (0, 1)
        x = np.linspace(1e-4, 1.0 - 1e-4, 301)
        beta = 1.3
        lhs = unit_weight(beta, 1.0 - x)
        rhs = eval_p(x) - beta * eval_dp(x)
        assert np.allclose(lhs, rhs, atol=1e-12)


class TestWeightProfile:
    # The weight on the unit interval, unit_weight.
    def test_distinguishes_endpoint_limits(self):
        left = unit_weight(1.0, 0.0)
        right = unit_weight(1.0, 1.0)
        assert left != pytest.approx(right, abs=1e-3)
        assert left == pytest.approx(float(unit_weight(1.0, 1e-14)), abs=1e-12)

    def test_degenerate_flag(self):
        assert is_degenerate(BETA_MAX)
        assert not is_degenerate(2.0)

    def test_rejects_bad_beta(self):
        with pytest.raises(BetaOutOfRange):
            unit_weight(-BETA_MAX - 1e-3, 0.5)

    def test_keeps_input_shape(self):
        # Built in place, but returned as a ufunc would: a scalar for a
        # scalar or a 0-d array, an array of the input's shape otherwise.
        for x in (0.25, np.float64(0.25), np.array(0.25)):
            w = unit_weight(0.5, x)
            assert type(w) is np.float64 and w == unit_weight(0.5, [0.25])[0]
        assert unit_weight(0.5, [0.0, 0.5, 1.0]).shape == (3,)
        grid = np.linspace(0.0, 1.0, 12).reshape(3, 4)
        kept = grid.copy()
        assert np.array_equal(unit_weight(0.5, grid).ravel(), unit_weight(0.5, kept.ravel()))
        assert np.array_equal(grid, kept)  # the input is not overwritten

    @pytest.mark.parametrize("beta, end", [(BETA_MAX, 0.0), (-BETA_MAX, 1.0),
                                           (BETA_MAX + 1e-12, 0.0)])
    def test_clipped_at_degenerate_endpoint(self, beta, end):
        # The unclipped formula rounds below zero at the vanishing end; the
        # weight is +0 there.
        y = end - 0.5
        assert (math.cosh(y) + beta * math.sinh(y)) / (2.0 * math.sinh(0.5)) < 0.0
        w = unit_weight(beta, end)
        assert w == 0.0 and math.copysign(1.0, w) == 1.0

    @pytest.mark.parametrize("beta", [-BETA_MAX, -1.3, 0.0, 0.5, 2.0, BETA_MAX])
    def test_bits_of_the_formula(self, beta):
        graded = 0.5 * (1.0 - np.cos(np.pi * np.arange(8193) / 8192))
        rng = np.random.default_rng(5)
        for x in (np.linspace(0.0, 1.0, 8193), graded, rng.uniform(0.0, 1.0, 1000)):
            y = x - 0.5
            want = np.maximum((np.cosh(y) + beta * np.sinh(y)) / (2.0 * math.sinh(0.5)), 0.0)
            assert np.array_equal(unit_weight(beta, x), want)


class TestDomain:
    def test_b_range(self):
        check_b(3.0)
        check_b(1.0 + 1e-12, open_top=True)
        for b, open_top in [(1.0, False), (3.0 + 1e-9, False), (3.0, True), (math.nan, False)]:
            with pytest.raises(BOutOfRange):
                check_b(b, open_top=open_top)

    def test_beta_range_tolerance(self):
        check_beta(-BETA_MAX - 1e-13)
        with pytest.raises(BetaOutOfRange):
            check_beta(BETA_MAX + 1e-11)

    def test_one_b3_rule(self):
        # J, L(b) and estimate 3 all take b within 1e-12 of 3 as 3.
        b = 3.0 - 1e-13
        assert is_b3(b) and not is_b3(3.0 - 1e-11)
        assert compute_j(b, 0.5).method == "SPECIAL_B3"
        assert extreme_weight_j(b) == 0.0
        res = estimate3(b)
        assert res.valid
        assert res.bound == pytest.approx(math.sqrt(b / (b - 1.0)), abs=1e-12)


def convolve_p(f):
    # p*f of a grid field by the simulator's symbol for p.
    return np.fft.irfft(np.fft.rfft(f) * _p_symbol(f.size), f.size)


def convolve_dp(f):
    # p'*f of a grid field by the simulator's symbol for p'.
    return np.fft.irfft(np.fft.rfft(f) * _dp_symbol(f.size), f.size)


class TestConvolutions:
    def test_constant_through_p(self):
        f = np.ones(64)
        assert np.allclose(convolve_p(f), 1.0, atol=1e-14)

    def test_constant_through_dp(self):
        f = np.full(64, 3.7)
        assert np.allclose(convolve_dp(f), 0.0, atol=1e-14)

    def test_cosine_eigenfunction(self):
        n = 256
        x = np.arange(n) / n
        f = np.cos(2.0 * np.pi * x)
        expected = f / (1.0 + 4.0 * np.pi**2)
        assert np.allclose(convolve_p(f), expected, atol=1e-14)

    def test_sine_mode_two(self):
        n = 256
        x = np.arange(n) / n
        f = np.sin(4.0 * np.pi * x)
        expected = f / (1.0 + 16.0 * np.pi**2)
        assert np.allclose(convolve_p(f), expected, atol=1e-14)

    def test_dp_on_cosine(self):
        n = 256
        x = np.arange(n) / n
        f = np.cos(2.0 * np.pi * x)
        expected = -2.0 * np.pi * np.sin(2.0 * np.pi * x) / (1.0 + 4.0 * np.pi**2)
        assert np.allclose(convolve_dp(f), expected, atol=1e-14)

    def test_dp_on_sine(self):
        n = 256
        x = np.arange(n) / n
        f = np.sin(2.0 * np.pi * x)
        expected = 2.0 * np.pi * np.cos(2.0 * np.pi * x) / (1.0 + 4.0 * np.pi**2)
        assert np.allclose(convolve_dp(f), expected, atol=1e-14)

    def test_against_quadrature_oracle(self):
        n = 64
        x = np.arange(n) / n

        def f(y):
            return 0.4 + np.cos(2.0 * np.pi * y) - 0.3 * np.sin(4.0 * np.pi * y)

        f_grid = f(x)
        assert np.allclose(convolve_p(f_grid), gauss_convolve(p_closed, f, x),
                           atol=1e-12)
        assert np.allclose(convolve_dp(f_grid), gauss_convolve(dp_closed, f, x),
                           atol=1e-12)

    def test_fundamental_solution_identity(self):
        # Applying 1 - d^2/dx^2 spectrally to p*f recovers f.
        rng = np.random.default_rng(3)
        n = 128
        f = rng.standard_normal(n)
        g = convolve_p(f)
        k = np.arange(n // 2 + 1)
        spec = np.fft.rfft(g) * (1.0 + (2.0 * np.pi * k) ** 2)
        assert np.allclose(np.fft.irfft(spec, n), f, atol=1e-10)
