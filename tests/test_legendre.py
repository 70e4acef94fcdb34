import math

import numpy as np
import pytest

from bfamily import (
    BOutOfRange,
    NoConvergence,
    degree_upsilon,
    legendre_p,
    legendre_ratio,
)

COSH1 = math.cosh(1.0)

# 64-term partial sum of F(-nu, nu+1; 1; (1-cosh 1)/2) at nu = 0.618034,
# evaluated with 50-digit arithmetic.
P_FRACTIONAL_ORACLE = 1.255456480494249876998925


class TestDegreeUpsilon:
    def test_b2_is_one(self):
        assert degree_upsilon(2.0) == pytest.approx(1.0, abs=1e-15)

    def test_b_three_halves(self):
        golden = (math.sqrt(5.0) - 1.0) / 2.0
        assert degree_upsilon(1.5) == pytest.approx(golden, abs=1e-15)

    def test_boundary_value_documented(self):
        # b = 1 itself is rejected, but the limit value is (sqrt(3)-1)/2.
        limit = (math.sqrt(3.0) - 1.0) / 2.0
        assert degree_upsilon(1.0 + 1e-12) == pytest.approx(limit, abs=1e-9)
        with pytest.raises(BOutOfRange):
            degree_upsilon(1.0)

    def test_singular_at_three(self):
        with pytest.raises(BOutOfRange):
            degree_upsilon(3.0)

    @pytest.mark.parametrize("b", [3.0 + 1e-9, 3.5, math.inf, math.nan])
    def test_refused_above_three(self, b):
        # The range is kernel.check_b's, with the top end open.
        with pytest.raises(BOutOfRange):
            degree_upsilon(b)

    def test_strictly_increasing_and_divergent(self):
        bs = np.linspace(1.01, 2.999, 200)
        nus = [degree_upsilon(float(b)) for b in bs]
        assert np.all(np.diff(nus) > 0.0)
        assert degree_upsilon(2.999) > 50.0


class TestLegendreP:
    def test_degree_zero(self):
        assert legendre_p(0.0, COSH1) == pytest.approx(1.0, abs=1e-15)

    def test_degree_one(self):
        assert legendre_p(1.0, COSH1) == pytest.approx(COSH1, abs=1e-14)

    def test_fractional_degree_oracle(self):
        assert legendre_p(0.618034, COSH1) == pytest.approx(
            P_FRACTIONAL_ORACLE, abs=1e-12
        )

    def test_integer_degrees_match_polynomials(self):
        # np.polynomial.legendre evaluates the classical polynomials directly.
        for n in range(2, 7):
            coeffs = np.zeros(n + 1)
            coeffs[n] = 1.0
            expected = np.polynomial.legendre.legval(COSH1, coeffs)
            assert legendre_p(float(n), COSH1) == pytest.approx(expected, rel=1e-12)

    def test_recurrence(self):
        # (2 nu + 1) z P_nu = (nu + 1) P_{nu+1} + nu P_{nu-1}
        z = COSH1
        for nu in range(1, 7):
            lhs = (2 * nu + 1) * z * legendre_p(nu, z)
            rhs = (nu + 1) * legendre_p(nu + 1.0, z) + nu * legendre_p(nu - 1.0, z)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_domain_errors(self):
        with pytest.raises(BOutOfRange):
            legendre_p(1.0, 1.0)
        with pytest.raises(BOutOfRange):
            legendre_p(-0.7, COSH1)
        with pytest.raises(BOutOfRange):
            legendre_p(math.nan, COSH1)

    def test_series_divergence_reported(self):
        # |1-z|/2 > 1 puts the series outside its disc of convergence.
        with pytest.raises(NoConvergence):
            legendre_p(0.7, 5.0)


class TestLegendreRatio:
    def test_degree_one(self):
        assert legendre_ratio(1.0, COSH1) == pytest.approx(1.0 / COSH1, abs=1e-14)

    def test_degree_zero(self):
        assert legendre_ratio(0.0, COSH1) == 0.0

    def test_degree_two_closed_form(self):
        z = COSH1
        expected = 3.0 * z / ((3.0 * z * z - 1.0) / 2.0)
        assert legendre_ratio(2.0, z) == pytest.approx(expected, abs=1e-13)

    @pytest.mark.parametrize("nu", [0.3, 0.618034, 1.0, 1.7, 2.4])
    def test_matches_log_derivative_finite_difference(self, nu):
        z = COSH1
        h = 1e-6
        fd = (math.log(legendre_p(nu, z + h)) - math.log(legendre_p(nu, z - h))) / (2 * h)
        assert legendre_ratio(nu, z) == pytest.approx(fd, abs=1e-6)

    def test_p_bounded_away_from_zero(self):
        # legendre_ratio divides by P_nu(z) unguarded.  For z > 1, P_nu(z) is
        # the mean over phi in (0, pi) of (z + sqrt(z^2-1) cos phi)^nu, so it
        # is positive; on the range the estimates reach (z in (1, 3), nu up
        # to the degree just below b = 3) every value the series returns is
        # at least 0.8.
        top = degree_upsilon(2.999999)
        assert top == pytest.approx(1731.55, abs=0.01)
        converged = {}
        for z in np.linspace(1.0, 3.0, 32)[1:-1]:
            for nu in np.linspace(-0.5, top, 40):
                try:
                    converged[nu, z] = legendre_p(float(nu), float(z))
                except NoConvergence:
                    continue
        assert len(converged) > 300
        assert max(nu for nu, _ in converged) == top
        assert min(converged.values()) >= 0.8
