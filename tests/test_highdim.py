import math

import numpy as np
import pytest
from scipy.special import betainc, beta as beta_fn

from kissbound import (
    DomainError,
    a_of_d,
    cap_area_d,
    f_d,
    g_profile,
    k_bound_highdim,
    profile_integral,
    sphere_area,
)
from kissbound.highdim import _sin_power_integral

SQRT3 = math.sqrt(3.0)

# exact closed forms of the bound a(d) (antiderivatives of t^((d-3)/2)/sqrt(1-t)),
# confirmed against 50-digit quadrature
A3_EXACT = 8.0 + 4.0 * SQRT3
A4_EXACT = math.pi / (math.pi / 6.0 - SQRT3 / 4.0)
A5_EXACT = (8.0 / 3.0) / (4.0 / 3.0 - 3.0 * SQRT3 / 4.0)
A6_EXACT = 24.0 * math.pi / (4.0 * math.pi - 7.0 * SQRT3)
A7_EXACT = 512.0 / (256.0 - 147.0 * SQRT3)
A8_EXACT = 788.6447520835473568


class TestProfileIntegral:
    def test_d3_closed_form(self):
        # I_3(u) = 2 (1 - sqrt(1 - u))
        for u in (0.0, 0.1, 0.25, 0.5, 0.9, 1.0):
            expected = 2.0 * (1.0 - math.sqrt(1.0 - u))
            assert profile_integral(3, u) == pytest.approx(expected, abs=1e-13)

    @pytest.mark.parametrize("d", [3, 4, 5, 8, 16, 33, 64])
    def test_incomplete_beta_oracle(self, d, rng):
        a = (d - 1) / 2.0
        for u in rng.uniform(0.01, 1.0, size=20):
            expected = betainc(a, 0.5, u) * beta_fn(a, 0.5)
            assert profile_integral(d, float(u)) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("d", [3, 4, 5, 6, 7, 8, 16, 64])
    def test_refinement_stability(self, d):
        # halving the panel width must not move the value
        for u in (0.1, 0.25, 1.0):
            theta_max = math.asin(math.sqrt(u))
            coarse = _sin_power_integral(d, theta_max, 12)
            fine = _sin_power_integral(d, theta_max, 24)
            assert abs(fine - coarse) <= 1e-11 * abs(fine)

    def test_domain(self):
        with pytest.raises(DomainError):
            profile_integral(2, 0.5)
        with pytest.raises(DomainError):
            profile_integral(3, 1.5)
        with pytest.raises(DomainError):
            profile_integral(3, -0.1)


class TestCapAreaD:
    @pytest.mark.parametrize("alpha", [0.3, 0.7, 1.2])
    def test_archimedes_d3(self, alpha):
        expected = 2.0 * math.pi * (1.0 - math.cos(alpha))
        assert cap_area_d(3, alpha) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("d", [3, 4, 5, 6, 7, 8])
    def test_hemisphere(self, d):
        assert cap_area_d(d, math.pi / 2.0) == pytest.approx(sphere_area(d) / 2.0, rel=1e-12)

    def test_monte_carlo_oracle_d4(self, rng):
        alpha = math.pi / 6.0
        exact_fraction = cap_area_d(4, alpha) / sphere_area(4)
        n = 10_000_000
        cos_alpha = math.cos(alpha)
        hits = 0
        for _ in range(10):
            v = rng.normal(size=(n // 10, 4))
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            hits += int(np.sum(v[:, 0] >= cos_alpha))
        estimate = hits / n
        se = math.sqrt(exact_fraction * (1.0 - exact_fraction) / n)
        assert abs(estimate - exact_fraction) <= 3.0 * se

    def test_zero_cap(self):
        assert cap_area_d(5, 0.0) == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            cap_area_d(2, 0.3)
        with pytest.raises(DomainError):
            cap_area_d(4, 2.0)


class TestGProfile:
    @pytest.mark.parametrize("C", [1.1, 1.5, 1.9])
    def test_constant_for_d3(self, C):
        xs = np.linspace(C - 1.0, 1.0, 100)
        values = [g_profile(3, C, float(x)) for x in xs]
        assert max(values) - min(values) < 1e-10

    @pytest.mark.parametrize("d", [4, 5, 6, 7, 8])
    def test_minimum_at_congruent_caps(self, d, rng):
        for _ in range(20):
            C = float(rng.uniform(1.01, 1.99))
            center = g_profile(d, C, C / 2.0)
            for x in rng.uniform(C - 1.0, 1.0, size=100):
                assert center <= g_profile(d, C, float(x)) + 1e-12

    def test_symmetry(self, rng):
        for _ in range(50):
            C = float(rng.uniform(1.05, 1.95))
            x = float(rng.uniform(C - 1.0, 1.0))
            assert g_profile(5, C, x) == pytest.approx(g_profile(5, C, C - x), rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            g_profile(4, 2.5, 0.9)
        with pytest.raises(DomainError):
            g_profile(4, 1.5, 0.1)


class TestFd:
    @pytest.mark.parametrize("rho", [1.2, SQRT3, 2.5])
    def test_d3_closed_form(self, rho):
        expected = (-rho * rho + 4.0 * rho - 3.0) / (4.0 * rho)
        assert f_d(3, rho) == pytest.approx(expected, abs=1e-10)

    def test_sqrt3_value(self):
        assert f_d(3, SQRT3) == pytest.approx((2.0 - SQRT3) / 2.0, abs=1e-12)

    @pytest.mark.parametrize("d", [3, 4, 5, 6, 7, 8])
    def test_maximized_at_sqrt3(self, d):
        grid = np.linspace(1.01, 2.99, 200)
        best = f_d(d, SQRT3)
        values = [f_d(d, float(r)) for r in grid]
        assert best >= max(values) - 1e-12

    @pytest.mark.parametrize("d", [3, 5, 8])
    def test_vanishes_at_interval_ends(self, d):
        assert 0.0 < f_d(d, 1.0 + 1e-5) < 1e-4
        assert 0.0 < f_d(d, 3.0 - 1e-5) < 1e-4

    def test_domain(self):
        with pytest.raises(DomainError):
            f_d(3, 1.0)
        with pytest.raises(DomainError):
            f_d(3, 3.0)


class TestAofD:
    def test_a3_exact(self):
        assert abs(a_of_d(3) - A3_EXACT) < 1e-9

    def test_a4_a5_reported_bounds(self):
        assert a_of_d(4) <= 34.681
        assert a_of_d(5) <= 77.757
        assert a_of_d(4) == pytest.approx(A4_EXACT, rel=1e-12)
        assert a_of_d(5) == pytest.approx(A5_EXACT, rel=1e-12)

    def test_a6_a7_a8_closed_forms(self):
        # the reported 3-decimal figures are 170.579, 368.736, 788.645;
        # the a(7) one is off its exact value by 1.06e-3 (see the
        # acceptance suite), so the primary assertion here is exactness
        assert a_of_d(6) == pytest.approx(A6_EXACT, rel=1e-12)
        assert a_of_d(7) == pytest.approx(A7_EXACT, rel=1e-12)
        assert a_of_d(8) == pytest.approx(A8_EXACT, rel=1e-10)
        assert abs(a_of_d(6) - 170.579) < 1e-3
        assert abs(a_of_d(8) - 788.645) < 1e-3
        assert abs(a_of_d(7) - 368.736) < 2e-3

    def test_strictly_increasing_in_d(self):
        values = [a_of_d(d) for d in range(3, 13)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            a_of_d(2)


class TestKBoundHighdim:
    def test_equals_a3_at_sqrt3(self):
        assert k_bound_highdim(3, SQRT3).bound == pytest.approx(A3_EXACT, abs=1e-9)

    def test_equals_a4_at_sqrt3(self):
        assert k_bound_highdim(4, SQRT3).bound == pytest.approx(a_of_d(4), rel=1e-12)

    def test_suboptimal_rho_is_larger(self):
        assert k_bound_highdim(4, 2.0).bound > a_of_d(4)

    @pytest.mark.parametrize("d, rho", [(64, 1.0 + 2.0**-34), (64, 1.0000000000000002),
                                        (3, 2.9999999999999996)])
    def test_vanishing_f_d_raises_domain_error(self, d, rho):
        assert f_d(d, rho) == 0.0
        with pytest.raises(DomainError, match="rounds to 0"):
            k_bound_highdim(d, rho)

    def test_result_invariants(self):
        result = k_bound_highdim(5, 1.8)
        assert 0.0 < result.f_d < 1.0
        assert result.bound == pytest.approx(2.0 / result.f_d, rel=1e-15)
        assert result.bound > 2.0
