import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kissbound import (
    DegenerateTriangleError,
    DomainError,
    aux_cap_radius,
    cap_area_K,
    cap_height,
    cap_radius_cos,
    coverage_fraction,
    pair_sum,
    pair_sum_value,
    rho_geometry,
    triangle_angles,
)
from kissbound.caps import RHO_MIN, aux_cap_threshold_radius, min_nonempty_radius

from conftest import sample_nonempty_pairs

SQRT3 = math.sqrt(3.0)

# frozen from a 50-digit evaluation of arccos(1/3) and 3*arccos(1/3) - pi
EQUILATERAL_ANGLE = 1.2309594173407747
EQUILATERAL_AREA = 0.5512855984325308


class TestRhoGeometry:
    def test_reference_values(self):
        g = rho_geometry(2.0)
        assert g.alpha_max == pytest.approx(math.acos(0.5), abs=1e-15)
        assert g.alpha_min == pytest.approx(math.acos(1.0 / 3.0) - math.acos(0.5), abs=1e-15)
        assert g.alpha_zero == pytest.approx(math.acos(13.0 / 14.0), abs=1e-15)

    @pytest.mark.parametrize("rho", [1.01, 1.3, SQRT3, 1.755, 2.2, 2.9, 2.999])
    def test_ordering_invariant(self, rho):
        g = rho_geometry(rho)
        assert 0.0 < g.alpha_min <= g.alpha_zero <= g.alpha_max < math.pi / 2.0

    def test_angles_vanish_as_rho_to_one(self):
        # at the floor alpha_max is about sqrt(2 (rho - 1)) and the other two
        # about (rho - 1)^(3/2)
        g = rho_geometry(RHO_MIN)
        assert g.alpha_max < 2e-2
        assert g.alpha_zero < 2e-6
        assert g.alpha_min < 2e-6

    @pytest.mark.parametrize("rho", [1.0 + 3e-8, 1.0 + 1e-6, math.nextafter(RHO_MIN, 1.0)])
    def test_ratios_below_the_floor_raise_domain_error(self, rho):
        # without the floor the first two gave alpha_zero = 0, below
        # alpha_min, and 2.1e-8, 30 times the exact value
        with pytest.raises(DomainError, match="too close to 1"):
            rho_geometry(rho)

    def test_ordering_invariant_from_the_floor(self):
        # the first ratio is RHO_MIN itself
        for rho in 1.0 + np.geomspace(RHO_MIN - 1.0, 2.0 - 1e-9, 400):
            g = rho_geometry(float(rho))
            assert 0.0 < g.alpha_min <= g.alpha_zero <= g.alpha_max < math.pi / 2.0

    @pytest.mark.parametrize("rho", [1.0, 3.0, 0.5, 3.5, float("nan")])
    def test_domain(self, rho):
        with pytest.raises(DomainError):
            rho_geometry(rho)

    def test_ratios_within_ulps_of_one_raise_domain_error(self):
        # every ratio below RHO_MIN is rejected, the ones whose cos(alpha_zero)
        # rounds above 1 or whose alpha_min rounds to 0 included
        for k in range(1, 20_000):
            with pytest.raises(DomainError, match="too close to 1"):
                rho_geometry(1.0 + k * 2.0**-52)


class TestCapRadiusCos:
    def test_equal_unit_balls_at_sqrt3(self):
        # pi/6 cap of a tangent unit ball on the sqrt(3) measuring sphere
        assert cap_radius_cos(SQRT3, 1.0, 1.0) == pytest.approx(SQRT3 / 2.0, abs=1e-15)

    def test_empty_intersection_boundary(self):
        # r2 = (rho - 1) r1 / 2 makes the cap a single point
        assert cap_radius_cos(2.0, 1.0, 0.5) == 1.0

    def test_law_of_cosines_value(self):
        # triangle sides 2, 4, 3: (4 + 16 - 9) / 16 = 11/16
        assert cap_radius_cos(2.0, 1.0, 3.0) == pytest.approx(11.0 / 16.0, abs=1e-15)

    def test_clamped_to_one(self):
        assert cap_radius_cos(2.5, 1.0, 0.01) == 1.0

    def test_overflowing_numerator_is_clamped(self):
        # (rho^2 + 1) r1 overflows but 2 rho (r1 + r2) does not: the cosine
        # is above 1, scalar or array, without an overflow warning
        assert cap_radius_cos(2.9, 2.5e307, 1.0) == 1.0
        values = cap_radius_cos(2.9, np.array([2.5e307, 1.0]), np.array([1.0, 3.0e307]))
        assert values[0] == 1.0 and values[1] == pytest.approx(1.0 / 2.9)

    @pytest.mark.parametrize(
        "args",
        [
            (1.0, 1.0, 1.0),
            (0.9, 1.0, 1.0),
            (2.0, 0.0, 1.0),
            (2.0, 1.0, -2.0),
            # rho in (1, 3), as check_rho and pair_sum take it
            (3.0, 1.0, 1.0),
            (3.5, 1.0, 1.0),
            # radii that are not finite, or that overflow 2 rho (r1 + r2):
            # the cosine came out NaN, or 0 where it is 0.3448...
            (1.5, math.inf, 1.0),
            (1.5, 1.0, math.inf),
            (1.5, 1e308, 1e308),
            (2.9, 1.0, 3.2e307),
        ],
    )
    def test_domain(self, args):
        with pytest.raises(DomainError):
            cap_radius_cos(*args)


class TestCapHeight:
    def test_unit_ball_cap_height_at_sqrt3(self):
        assert cap_height(SQRT3, 1.0, 1.0) == pytest.approx(SQRT3 - 1.5, abs=1e-15)

    def test_empty(self):
        assert cap_height(2.0, 1.0, 0.5) == 0.0

    def test_derived(self):
        assert cap_height(2.0, 1.0, 3.0) == pytest.approx(2.0 * (1.0 - 11.0 / 16.0), abs=1e-15)

    def test_height_identity(self, rng):
        rho, r1, r2 = sample_nonempty_pairs(rng, 10_000)
        h1 = np.array([cap_height(a, b, c) for a, b, c in zip(rho, r1, r2)])
        h2 = np.array([cap_height(a, c, b) for a, b, c in zip(rho, r1, r2)])
        lhs = h1 / (rho * r1) + h2 / (rho * r2)
        rhs = (-rho * rho + 4.0 * rho - 3.0) / (2.0 * rho)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestCoverageFraction:
    def test_archimedes_value(self):
        # cap area (6 - 3 sqrt(3)) pi over sphere area 12 pi
        expected = (6.0 - 3.0 * SQRT3) / 12.0
        assert coverage_fraction(SQRT3, 1.0, 1.0) == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(0.066987, abs=1e-6)

    def test_empty(self):
        assert coverage_fraction(2.0, 1.0, 0.5) == 0.0

    def test_both_orders_sum(self):
        total = coverage_fraction(2.0, 1.0, 1.0) + coverage_fraction(2.0, 1.0, 1.0)
        assert total == pytest.approx(1.0 / 8.0, abs=1e-15)

    def test_scalars_give_float_and_keep_domain_checks(self):
        assert type(coverage_fraction(1.755, 1.0, 0.8)) is float
        assert type(coverage_fraction(2.0, 1.0, 0.5)) is float
        assert type(cap_radius_cos(2.0, 1.0, 0.5)) is float
        bad = [(1.755, 0.0, 1.0), (1.755, 1.0, -1.0), (1.755, math.nan, 1.0), (1.0, 1.0, 1.0)]
        bad += [(1.5, math.inf, 1.0), (1.5, 1.0, math.inf), (1.5, 1e308, 1e308), (3.5, 1.0, 1.0)]
        for args in bad + [(math.nan, 1.0, 1.0), (math.inf, 1.0, 1.0)]:
            with pytest.raises(DomainError):
                coverage_fraction(*args)

    def test_arrays_match_scalars_bit_for_bit(self, rng):
        rho = 1.755
        r1 = 10.0 ** rng.uniform(-2.0, 2.0, 500)
        r2 = 10.0 ** rng.uniform(-2.0, 2.0, 500)
        values = coverage_fraction(rho, r1, r2)
        assert values.shape == (500,)
        # the spread of ratios reaches both empty caps and clamped cosines
        assert np.any(values == 0.0) and np.all(values >= 0.0)
        assert values.tolist() == [
            coverage_fraction(rho, a, b) for a, b in zip(r1.tolist(), r2.tolist())
        ]
        with pytest.raises(DomainError):
            coverage_fraction(rho, r1, np.append(r2[1:], 0.0))

    @given(
        st.floats(1.05, 2.95),
        st.floats(0.001, 1000.0),
        st.sampled_from([0.5, 2.0, 4.0, 2.0**-10, 2.0**7]),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_scale_invariance_power_of_two(self, rho, r1, scale):
        r2 = 0.8 * r1
        assert coverage_fraction(rho, scale * r1, scale * r2) == coverage_fraction(rho, r1, r2)

    def test_scale_invariance_generic(self, rng):
        for _ in range(200):
            rho = rng.uniform(1.05, 2.95)
            r1 = rng.uniform(0.01, 100.0)
            r2 = rng.uniform(0.01, 100.0)
            s = rng.uniform(1e-3, 1e3)
            assert coverage_fraction(rho, s * r1, s * r2) == pytest.approx(
                coverage_fraction(rho, r1, r2), abs=1e-14
            )

    def test_monte_carlo_oracle(self, rng):
        # membership sampling on the measuring sphere
        rho, r1, r2 = 1.755, 1.0, 0.8
        exact = coverage_fraction(rho, r1, r2)
        n = 1_000_000
        v = rng.normal(size=(n, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        points = rho * r1 * v
        center = np.array([r1 + r2, 0.0, 0.0])
        hits = np.sum(np.sum((points - center) ** 2, axis=1) <= r2 * r2)
        estimate = hits / n
        se = math.sqrt(exact * (1.0 - exact) / n)
        assert abs(estimate - exact) <= 3.0 * se


class TestPairSum:
    def test_one_sided_empty_large_r2(self):
        # rho r2 > r2 + 2 r1 empties the second cap; the first contributes
        # (1 - 19/32)/2 = 13/64 alone, exceeding the two-sided constant 1/8
        value = pair_sum(2.0, 1.0, 7.0)
        assert value == pytest.approx(13.0 / 64.0, abs=1e-15)
        assert value > pair_sum_value(2.0)

    def test_one_sided_empty_small_r2(self):
        assert pair_sum(2.0, 1.0, 0.25) > pair_sum_value(2.0)

    def test_scale_free_closed_form(self):
        assert pair_sum(SQRT3, 5.0, 5.0) == pytest.approx((2.0 - SQRT3) / 2.0, abs=1e-15)

    def test_identity_randomized(self, rng):
        rho, r1, r2 = sample_nonempty_pairs(rng, 10_000)
        values = np.array([pair_sum(a, b, c) for a, b, c in zip(rho, r1, r2)])
        expected = (-rho * rho + 4.0 * rho - 3.0) / (4.0 * rho)
        assert np.max(np.abs(values - expected)) < 1e-12

    def test_rho_domain(self):
        with pytest.raises(DomainError):
            pair_sum(3.0, 1.0, 1.0)


class TestAuxCapRadius:
    def test_branch_agreement_at_threshold(self):
        # r2 = (rho^2 - 1)/4: both branches give arccos(13/14) = alpha_zero
        value = aux_cap_radius(2.0, 1.0, 0.75)
        assert value == pytest.approx(math.acos(13.0 / 14.0), abs=1e-13)
        assert value == pytest.approx(rho_geometry(2.0).alpha_zero, abs=1e-13)
        cone = math.acos((1.0 - 0.75) / 1.75) - math.acos(0.5)
        assert value == pytest.approx(cone, abs=1e-13)

    def test_actual_cap_branch(self):
        assert aux_cap_radius(SQRT3, 1.0, 1.0) == pytest.approx(math.pi / 6.0, abs=1e-14)

    def test_large_ball_limit(self):
        g = rho_geometry(1.755)
        assert aux_cap_radius(1.755, 1.0, 1e9) == pytest.approx(g.alpha_max, rel=1e-8)

    def test_range_invariant(self, rng):
        for _ in range(2000):
            rho = rng.uniform(1.05, 2.95)
            g = rho_geometry(rho)
            r1 = rng.uniform(0.1, 10.0)
            r2 = rng.uniform(min_nonempty_radius(rho, r1), 20.0 * r1)
            value = aux_cap_radius(rho, r1, r2)
            assert g.alpha_min - 1e-12 <= value < g.alpha_max

    @given(
        st.floats(1.05, 2.95),
        st.floats(1.0, 2.0),
        st.floats(0.01, 40.0),
        st.integers(-498, 1023),
    )
    # cone branch with r1 + r2 = inf: arccos(0) would give pi/6, not 0.2108
    @example(2.0, 1.7, 0.9, 1023)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_range_invariant_at_any_scale(self, rho, r1, r2, k):
        # radii from 1e-152 to past the overflow limit: a radius pair scaled
        # by 2^k keeps its bits and its range, or raises DomainError because
        # it was out of range unscaled or its sum overflows
        g = rho_geometry(rho)
        big1, big2 = r1 * 2.0**k, r2 * 2.0**k
        try:
            value = aux_cap_radius(rho, big1, big2)
        except DomainError:
            if 2.0 * rho * (big1 + big2) < math.inf:
                with pytest.raises(DomainError):
                    aux_cap_radius(rho, r1, r2)
            return
        assert value == aux_cap_radius(rho, r1, r2)
        assert g.alpha_min - 1e-12 <= value < g.alpha_max

    def test_too_small_ball(self):
        with pytest.raises(DomainError):
            aux_cap_radius(2.0, 1.0, 0.49)

    def test_threshold_helper(self):
        assert aux_cap_threshold_radius(2.0, 1.0) == 0.75

    def test_radical_plane_separation(self, rng):
        # two non-overlapping tangent balls at the exact non-overlap
        # boundary: their auxiliary caps must still be disjoint
        worst = math.inf
        for _ in range(2000):
            rho = rng.uniform(1.05, 2.95)
            r_x = rng.uniform(min_nonempty_radius(rho, 1.0) * (1.0 + 1e-9), 50.0)
            r_y = rng.uniform(min_nonempty_radius(rho, 1.0) * (1.0 + 1e-9), 50.0)
            d_x, d_y = 1.0 + r_x, 1.0 + r_y
            cos_boundary = (d_x * d_x + d_y * d_y - (r_x + r_y) ** 2) / (2.0 * d_x * d_y)
            theta_boundary = math.acos(max(-1.0, min(1.0, cos_boundary)))
            total = aux_cap_radius(rho, 1.0, r_x) + aux_cap_radius(rho, 1.0, r_y)
            worst = min(worst, theta_boundary - total)
            assert theta_boundary >= total - 1e-9
            # any wider separation keeps them disjoint a fortiori
            theta = min(math.pi, theta_boundary + rng.uniform(0.0, 1.0))
            assert theta >= total - 1e-9
        # the tight case (smallest ball vs huge ball) comes within round-off
        assert worst < 1e-2

    def test_tight_case_small_vs_huge(self):
        rho = 2.0
        r_x = min_nonempty_radius(rho, 1.0)
        r_y = 1e7
        d_x, d_y = 1.0 + r_x, 1.0 + r_y
        cos_boundary = (d_x * d_x + d_y * d_y - (r_x + r_y) ** 2) / (2.0 * d_x * d_y)
        theta = math.acos(cos_boundary)
        total = aux_cap_radius(rho, 1.0, r_x) + aux_cap_radius(rho, 1.0, r_y)
        assert theta >= total - 1e-9
        assert theta == pytest.approx(total, abs=1e-5)


class TestCapAreaK:
    @pytest.mark.parametrize("rho", [1.1, 1.5, SQRT3, 1.755, 2.3, 2.9])
    def test_zero_at_alpha_min(self, rho):
        g = rho_geometry(rho)
        assert abs(cap_area_K(g, g.alpha_min)) < 1e-12

    @pytest.mark.parametrize("rho", [1.1, 1.5, SQRT3, 1.755, 2.3, 2.9])
    def test_branch_agreement_at_alpha_zero(self, rho):
        g = rho_geometry(rho)
        plain = 2.0 * math.pi * (1.0 - math.cos(g.alpha_zero))
        cone_cos = math.cos(g.alpha_zero) / rho - math.sqrt(1.0 - 1.0 / rho**2) * math.sin(g.alpha_zero)
        cone = 2.0 * math.pi * (1.0 - ((rho * rho - 1.0) * (cone_cos + 1.0) + 4.0) / (4.0 * rho))
        assert abs(plain - cone) < 1e-12
        assert cap_area_K(g, g.alpha_zero) == plain

    def test_value_at_alpha_max(self):
        g = rho_geometry(1.755)
        assert cap_area_K(g, g.alpha_max) == pytest.approx(
            2.0 * math.pi * (1.0 - 1.0 / 1.755), abs=1e-14
        )

    @pytest.mark.parametrize("rho", [1.2, 1.755, 2.6])
    def test_monotone_nondecreasing(self, rho):
        g = rho_geometry(rho)
        alphas = np.linspace(g.alpha_min, g.alpha_max, 10_000)
        values = np.array([cap_area_K(g, a) for a in alphas])
        assert np.all(np.diff(values) >= -1e-15)

    def test_coverage_consistency_both_branches(self, rng):
        for _ in range(1000):
            rho = rng.uniform(1.05, 2.95)
            g = rho_geometry(rho)
            r1 = 1.0
            # half the draws land below the cone/actual threshold
            if rng.uniform() < 0.5:
                r2 = rng.uniform(min_nonempty_radius(rho, r1), aux_cap_threshold_radius(rho, r1))
            else:
                r2 = rng.uniform(aux_cap_threshold_radius(rho, r1), 50.0)
            lhs = cap_area_K(g, aux_cap_radius(rho, r1, r2))
            rhs = 4.0 * math.pi * coverage_fraction(rho, r1, r2)
            assert abs(lhs - rhs) < 1e-12

    def test_domain(self):
        g = rho_geometry(2.0)
        with pytest.raises(DomainError):
            cap_area_K(g, g.alpha_min - 1e-3)
        with pytest.raises(DomainError):
            cap_area_K(g, g.alpha_max + 1e-3)


class TestTriangleAngles:
    def test_equilateral_pi_six(self):
        t = triangle_angles(math.pi / 6.0, math.pi / 6.0, math.pi / 6.0)
        for angle in (t.angle_x, t.angle_y, t.angle_z):
            assert angle == pytest.approx(EQUILATERAL_ANGLE, abs=1e-13)
            assert angle == pytest.approx(math.acos(1.0 / 3.0), abs=1e-13)
        assert t.area == pytest.approx(EQUILATERAL_AREA, abs=1e-13)

    @given(
        st.floats(0.1, 0.9),
        st.floats(0.1, 0.9),
        st.floats(0.1, 0.9),
    )
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_permutation_symmetry(self, x, y, z):
        t = triangle_angles(x, y, z)
        p = triangle_angles(z, x, y)
        assert p.angle_x == pytest.approx(t.angle_z, abs=1e-14)
        assert p.angle_y == pytest.approx(t.angle_x, abs=1e-14)
        assert p.angle_z == pytest.approx(t.angle_y, abs=1e-14)
        assert p.area == pytest.approx(t.area, abs=1e-13)

    @pytest.mark.parametrize("a", [0.1, 1e-2, 1e-3])
    def test_euclidean_limit(self, a):
        t = triangle_angles(a, a, a)
        assert t.area > 0.0
        for angle in (t.angle_x, t.angle_y, t.angle_z):
            assert angle == pytest.approx(math.pi / 3.0, abs=10.0 * a * a)
        # excess of the equilateral spherical triangle is ~ sqrt(3) a^2;
        # below a ~ 1e-3 the excess drowns in arccos cancellation noise
        assert t.area == pytest.approx(SQRT3 * a * a, rel=0.05)

    def test_positive_area_on_valid_interval(self, rng):
        # below rho = 2 the whole cube [alpha_min, alpha_max]^3 consists of
        # feasible triangles (3 alpha_max < pi); beyond it the top corner
        # has perimeter above 2 pi and stops being a spherical triangle
        for _ in range(500):
            rho = rng.uniform(1.05, 1.99)
            g = rho_geometry(rho)
            x, y, z = rng.uniform(g.alpha_min, g.alpha_max, size=3)
            assert triangle_angles(x, y, z).area > 0.0

    def test_infeasible_corner_above_rho_two(self):
        g = rho_geometry(2.95)
        with pytest.raises(DomainError):
            triangle_angles(g.alpha_max, g.alpha_max, g.alpha_max)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            triangle_angles(-0.1, 0.2, 0.2)
        with pytest.raises(DomainError):
            triangle_angles(1.6, 1.6, 0.2)
        # the sines of these sides underflow, so the arccos arguments are 0/0
        with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(DomainError):
            triangle_angles(1e-200, 1e-200, 1e-200)

    def test_noise_scale_triangle_clamps_or_raises(self):
        # at float-noise scale the excess may round either way; the
        # contract is: clamp to zero area within the guard, raise beyond it
        try:
            t = triangle_angles(1e-9, 1e-9, 1e-9)
        except DegenerateTriangleError:
            return
        assert t.area >= 0.0
