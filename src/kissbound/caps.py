"""Closed-form spherical cap geometry for tangent ball pairs.

Every ball B of a packing gets a concentric measuring sphere S_rho(B) whose
radius is rho times the radius of B, with the inflation ratio rho in (1, 3).
A ball tangent to B cuts a circular cap out of S_rho(B); this module provides

* the cap radius, height and area fraction of such a cap,
* the auxiliary (tangent cone) cap C_rho(B, X) that forbids arbitrarily
  small caps in the induced cap packing,
* the piecewise area function K(alpha) mapping an auxiliary cap radius to
  the area of the actual coverage cap,
* spherical triangle angles and area for triples of mutually tangent caps.

K and the triangle are evaluated by `_kernels`, on the expressions the
certifier and the density search run, so both give the same bits.  All
angles are radians, all areas are steradians on the unit sphere.  The
functions are pure and hold no shared state, so they are safe to call from
any number of threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DegenerateTriangleError, DomainError

__all__ = [
    "RhoGeometry",
    "TriangleAngles",
    "rho_geometry",
    "cap_radius_cos",
    "cap_height",
    "coverage_fraction",
    "pair_sum",
    "pair_sum_value",
    "objective_factor",
    "aux_cap_radius",
    "cap_area_K",
    "triangle_angles",
]

# arccos arguments may exceed [-1, 1] by round-off when a configuration is
# close to degenerate; anything beyond this guard is invalid geometry.
ACOS_GUARD = 1e-12

# The smallest ratio the cap geometry accepts.  Below about 1 + 1.1e-5,
# cos(alpha_zero) rounds to within a few ulps of 1, so alpha_zero is 0
# (below alpha_min) or about 2e-8, far from its exact value; below 1 + 5e-6
# the law of cosines rounds past 1.  At 1 + 2^-13 the largest box argument,
# at (alpha_max, alpha_min, alpha_min), is 1 - 1.8622e-9 (exactly 1 -
# 1.8625e-9, about 1 - (rho - 1)^2 / 8).
RHO_MIN = 1.0 + 2.0**-13


def _checked_acos_arg(value: float) -> float:
    # NaN fails the test too: it comes from sides whose sines underflow
    if not abs(value) <= 1.0 + ACOS_GUARD:
        raise DomainError(f"arccos argument {value!r} outside [-1, 1] beyond guard")
    return value


@dataclass(frozen=True)
class RhoGeometry:
    """All constants derived from one inflation ratio rho in (1, 3).

    alpha_max is the cap radius cut by an infinitely large tangent ball,
    alpha_min the auxiliary cap radius of the smallest tangent ball whose
    cap is non-empty, and alpha_zero the threshold radius at which the
    auxiliary cap stops being a tangent cone cap and coincides with the
    actual cap.  0 < alpha_min <= alpha_zero <= alpha_max < pi/2 holds for
    every rho in [RHO_MIN, 3), the ratios `rho_geometry` accepts, and all
    three angles tend to 0 as rho -> 1.
    """

    rho: float
    alpha_min: float
    alpha_zero: float
    alpha_max: float

    @property
    def interval_width(self) -> float:
        return self.alpha_max - self.alpha_min


def rho_geometry(rho: float) -> RhoGeometry:
    """Build the RhoGeometry constants for an inflation ratio rho in [RHO_MIN, 3)."""
    check_rho(rho)
    if rho < RHO_MIN:
        raise DomainError(f"inflation ratio {rho!r} is too close to 1: rho must be >= 1 + 2^-13")
    alpha_max = math.acos(1.0 / rho)
    alpha_min = math.acos((3.0 - rho) / (1.0 + rho)) - alpha_max
    alpha_zero = math.acos((3.0 * rho * rho + 1.0) / (rho * (rho * rho + 3.0)))
    return RhoGeometry(rho, alpha_min, alpha_zero, alpha_max)


def check_rho(rho: float) -> None:
    """Raise DomainError unless 1 < rho < 3, which also rejects NaN and inf."""
    if not (1.0 < rho < 3.0):
        raise DomainError(f"inflation ratio must lie in (1, 3), got {rho!r}")


def _check_pair_args(rho: float, r1: float, r2: float) -> None:
    check_rho(rho)
    if not (np.all((0.0 < r1) & (r1 < math.inf)) and np.all((0.0 < r2) & (r2 < math.inf))):
        raise DomainError(f"ball radii must be positive and finite, got r1={r1!r}, r2={r2!r}")


def cap_radius_cos(rho: float, r1: float, r2: float) -> float:
    """Cosine of the angular radius of the cap S_rho(B1) cut by tangent B2.

    Law of cosines in the triangle (center of B1, center of B2, cap
    boundary point) gives

        cos(alpha) = ((rho^2 + 1) r1 + 2 r2) / (2 rho (r1 + r2)).

    Values above 1 mean the measuring sphere passes beyond B2 entirely
    (empty intersection); they are clamped to exactly 1 so that heights
    and areas degrade to 0 rather than go negative.  Radius arrays give an
    array of the same values, elementwise; scalars give a float.
    """
    _check_pair_args(rho, r1, r2)
    # an overflowing numerator means a cosine above 1, which is clamped; an
    # overflowing denominator would give NaN or a false 0
    with np.errstate(over="ignore"):
        scale = 2.0 * rho * (r1 + r2)
        if not np.all(scale < math.inf):
            raise DomainError(f"ball radii overflow 2 rho (r1 + r2), got r1={r1!r}, r2={r2!r}")
        value = np.minimum(((rho * rho + 1.0) * r1 + 2.0 * r2) / scale, 1.0)
    return value if value.ndim else float(value)


def cap_height(rho: float, r1: float, r2: float) -> float:
    """Height of the cap S_rho(B1) cut by B2; 0 when the cap is empty."""
    return rho * r1 * (1.0 - cap_radius_cos(rho, r1, r2))


def coverage_fraction(rho: float, r1: float, r2: float) -> float:
    """Fraction of the area of S_rho(B1) covered by the tangent ball B2.

    By the spherical cap area formula the fraction equals (1 - cos alpha)/2
    in three dimensions.  Scale invariant: only rho and r1/r2 matter.
    Accepts radius arrays, like cap_radius_cos.
    """
    return 0.5 * (1.0 - cap_radius_cos(rho, r1, r2))


def pair_sum_value(rho: float) -> float:
    """Value of a(B1,B2) + a(B2,B1) when both caps are non-empty.

    Depends on rho alone: (-rho^2 + 4 rho - 3) / (4 rho).
    """
    check_rho(rho)
    return (-rho * rho + 4.0 * rho - 3.0) / (4.0 * rho)


def objective_factor(rho: float) -> float:
    """Max density to average degree: 8 rho / (-rho^2 + 4 rho - 3) = 2 / pair_sum_value."""
    check_rho(rho)
    denominator = -rho * rho + 4.0 * rho - 3.0
    if not denominator > 0.0:
        raise DomainError(
            f"inflation ratio {rho!r} is too close to 1 or 3: -rho^2 + 4 rho - 3 rounds to 0"
        )
    return 8.0 * rho / denominator


def pair_sum(rho: float, r1: float, r2: float) -> float:
    """Two-sided coverage a(B1,B2) + a(B2,B1) for a tangent pair.

    Equals pair_sum_value(rho) exactly when both intersections are
    non-empty and exceeds it when one cap is empty.
    """
    return coverage_fraction(rho, r1, r2) + coverage_fraction(rho, r2, r1)


def min_nonempty_radius(rho: float, r1: float) -> float:
    """Smallest tangent ball radius whose cap on S_rho(B1) is non-empty."""
    _check_pair_args(rho, r1, r1)
    return 0.5 * (rho - 1.0) * r1


def aux_cap_threshold_radius(rho: float, r1: float) -> float:
    """Tangent ball radius at which the cone tangency point sits on S_rho(B1).

    Below (rho^2 - 1) r1 / 4 the auxiliary cap is the tangent cone cap;
    at and above it the auxiliary cap coincides with the actual cap.
    """
    _check_pair_args(rho, r1, r1)
    return 0.25 * (rho * rho - 1.0) * r1


def aux_cap_radius(rho: float, r1: float, r2: float) -> float:
    """Angular radius of the auxiliary cap C_rho(B1, B2) on S_rho(B1).

    For a large tangent ball (r2 >= (rho^2 - 1) r1 / 4) the tangency points
    of the common tangent cone lie on or outside S_rho(B1) and the
    auxiliary cap is simply the actual cap, of radius arccos(cap_radius_cos).
    For a smaller ball the cone cuts the larger cap

        arccos((r1 - r2) / (r1 + r2)) - arccos(1 / rho),

    which still contains the actual cap.  Both arccos arguments lie in
    [-1, 1] unclamped: cap_radius_cos is positive and clamped to at most 1,
    and |fl(r1 - r2)| <= fl(r1 + r2) because rounding is monotone.
    The result lies in [alpha_min, alpha_max).  A tangent ball too small to
    reach S_rho(B1) at all, and radii whose sum overflows, raise DomainError.
    """
    _check_pair_args(rho, r1, r2)
    if r2 < min_nonempty_radius(rho, r1):
        raise DomainError(
            f"tangent ball of radius {r2!r} does not reach the measuring sphere "
            f"(needs at least {min_nonempty_radius(rho, r1)!r})"
        )
    if r2 >= aux_cap_threshold_radius(rho, r1):
        return math.acos(cap_radius_cos(rho, r1, r2))
    if not r1 + r2 < math.inf:
        raise DomainError(f"ball radii overflow r1 + r2, got r1={r1!r}, r2={r2!r}")
    return math.acos((r1 - r2) / (r1 + r2)) - math.acos(1.0 / rho)


def cap_area_K(geom: RhoGeometry, alpha: float) -> float:
    """Area of the actual coverage cap given its auxiliary cap radius alpha.

    On [alpha_zero, alpha_max] auxiliary and actual caps coincide, so the
    area is the plain cap area 2 pi (1 - cos alpha).  On [alpha_min,
    alpha_zero) the auxiliary cap is a tangent cone cap; inverting the cone
    construction recovers the tangent ball and with it the actual cap area

        2 pi (1 - ((rho^2 - 1)(cos(alpha)/rho
                   - sqrt(1 - 1/rho^2) sin(alpha) + 1) + 4) / (4 rho)).

    K is continuous and non-decreasing on [alpha_min, alpha_max], with
    K(alpha_min) = 0.
    """
    check_cap_radius(geom, alpha)
    return float(_kernels.K_vec(geom, alpha))


def check_cap_radius(geom: RhoGeometry, alpha: float) -> None:
    """Raise DomainError unless alpha lies in [alpha_min, alpha_max], within ACOS_GUARD."""
    if not (geom.alpha_min - ACOS_GUARD <= alpha <= geom.alpha_max + ACOS_GUARD):
        raise DomainError(
            f"cap radius {alpha!r} outside [{geom.alpha_min!r}, {geom.alpha_max!r}]"
        )


@dataclass(frozen=True)
class TriangleAngles:
    """Vertex angles and area of a spherical triangle of tangent caps.

    The triangle has vertices at the centers of three pairwise tangent
    caps of radii x, y, z, hence side lengths y+z, x+z, x+y opposite to
    the respective vertices.  The area is the angular excess.
    """

    x: float
    y: float
    z: float
    angle_x: float
    angle_y: float
    angle_z: float
    area: float


def triangle_angles(x: float, y: float, z: float) -> TriangleAngles:
    """Spherical law of cosines angles for cap radii (x, y, z).

    Requires positive radii with all pairwise side sums below pi, and
    arccos arguments within the round-off guard of [-1, 1].  Raises
    DegenerateTriangleError when the angular excess is not positive beyond
    the guard, and clamps it to zero within the guard.
    """
    if not (x > 0.0 and y > 0.0 and z > 0.0):
        raise DomainError(f"cap radii must be positive, got {(x, y, z)!r}")
    sides = (y + z, x + z, x + y)
    if max(sides) >= math.pi:
        raise DomainError(f"triangle sides must stay below pi, got {sides!r}")
    args = [_checked_acos_arg(float(arg)) for arg in _kernels.triangle_args_vec(x, y, z)]
    angles, valid = _kernels.angles_of_args(args)
    excess = float(_kernels.excess_vec(angles, valid))
    if excess <= 0.0:
        if excess < -ACOS_GUARD:
            raise DegenerateTriangleError(
                f"triangle {(x, y, z)!r} has non-positive excess {excess!r}"
            )
        excess = 0.0
    return TriangleAngles(x, y, z, *map(float, angles), excess)
