"""Vectorized numpy kernels: the single implementation of the cap geometry.

Each stage of the density D and of its box bound is written once here:
the law-of-cosines arguments, their arccos (checked in `angles_of_args`,
clipped in `angle_upper_at`), the angular excess, the cap area K, the
2x + y + z vs pi corner rule and the quotient (`_density_quotient`).
Every path runs on them: the grid scan, the `Box` API, the density search
(through `density_vec`) and the scalar API (`caps.triangle_angles`,
`caps.cap_area_K`, `density.density`), which adds its domain checks on
top.  The kernels see corners only through providers: `pair(u, v)` gives
cos and sin of the side u + v, `coord(u)` the cap radius and `k_of(u)` the
cap area K at u.  The defaults compute all three from radii; the grid scan
passes grid indices with table lookups, so both paths share every
expression.  A box bound reads 12 sides per box (the three low corners'
angles and the lower corner's area) and 3 more, the all-high triangle,
only on the boxes where the corner rule can pick that corner.

Invalid spherical-triangle configurations are handled in the direction
that keeps box bounds sound: an angle argument below -1 clips to pi, area
lower bounds degrade to NaN, which the box bound turns into +inf; no box
of a ratio `caps.rho_geometry` accepts reads an argument above 1.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .caps import RhoGeometry

ANGLE_GUARD = 1e-9

PI = math.pi
TWO_PI = 2.0 * math.pi


def _trig_of_sum(u, v):
    """cos and sin of the triangle side u + v, for cap radii u and v."""
    side = np.add(u, v, dtype=np.float64)
    return np.cos(side), np.sin(side)


def _radius(u):
    return np.asarray(u, dtype=np.float64)


def _angle_arg(cos_opp, cos_s2, cos_s3, sin_s2, sin_s3, out=None):
    return np.divide(cos_opp - cos_s2 * cos_s3, sin_s2 * sin_s3, out=out)


def triangle_args_vec(x, y, z, pair=_trig_of_sum):
    """Law-of-cosines arccos arguments at the vertices x, y, z, unclipped,
    stacked as one (3, ...) array, row v for vertex v."""
    cos_yz, sin_yz = pair(y, z)
    cos_xz, sin_xz = pair(x, z)
    cos_xy, sin_xy = pair(x, y)
    # written in place: stacking three finished rows copies every scan
    # batch once more, which cost the grid scan measurable time
    args = np.empty((3, *np.broadcast(cos_yz, cos_xz, cos_xy).shape))
    _angle_arg(cos_yz, cos_xz, cos_xy, sin_xz, sin_xy, out=args[0, ...])
    _angle_arg(cos_xz, cos_xy, cos_yz, sin_xy, sin_yz, out=args[1, ...])
    _angle_arg(cos_xy, cos_xz, cos_yz, sin_xz, sin_yz, out=args[2, ...])
    return args


def angles_of_args(args):
    """Vertex angles from the raw arguments of `triangle_args_vec`.

    Arguments (stacked, one row per vertex) are clipped into [-1, 1] and
    the angles come back stacked the same way; entries whose raw argument
    lies beyond the guard are reported through the validity mask (second
    return value) instead of being silently repaired.
    """
    args = np.asarray(args, dtype=np.float64)
    valid = (np.abs(args) <= 1.0 + ANGLE_GUARD).all(axis=0)
    # arccos in place: one (3, N) temporary fewer per grid-scan batch
    angles = args.clip(-1.0, 1.0)
    return np.arccos(angles, out=angles), valid


def triangle_angles_vec(x, y, z, pair=_trig_of_sum):
    """Vertex angles (stacked, 3 x ...) of the tangent-cap triangle with
    radii (x, y, z), and validity."""
    return angles_of_args(triangle_args_vec(x, y, z, pair))


def excess_vec(angles, valid):
    """Angular excess (triangle area) of vertex angles; NaN where invalid."""
    ax, ay, az = angles
    return np.where(valid, ax + ay + az - PI, np.nan)


def triangle_excess_vec(x, y, z, pair=_trig_of_sum):
    """Angular excess (triangle area); NaN where the geometry is invalid."""
    return excess_vec(*triangle_angles_vec(x, y, z, pair))


def K_vec(geom: RhoGeometry, alpha):
    """Piecewise coverage-cap area K(alpha), vectorized over alpha.

    The fields of geom may be arrays broadcasting against alpha, which
    gives every lane its own ratio; np.sqrt rounds as math.sqrt does, so a
    lane's value has the same bits as with a scalar geometry.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    rho = geom.rho
    cos_alpha = np.cos(alpha)
    cone_cos = cos_alpha / rho - np.sqrt(1.0 - 1.0 / (rho * rho)) * np.sin(alpha)
    cone_area = TWO_PI * (1.0 - ((rho * rho - 1.0) * (cone_cos + 1.0) + 4.0) / (4.0 * rho))
    plain_area = TWO_PI * (1.0 - cos_alpha)
    return np.where(alpha >= geom.alpha_zero, plain_area, cone_area)


def _density_quotient(k, angles, area, fill):
    """(K_x angle_x + K_y angle_y + K_z angle_z) / (2 pi area) from rows per
    vertex, summed in vertex order; `fill` where the area is not positive."""
    terms = k * angles
    out = np.full(np.broadcast(terms[0], area).shape, fill)
    return np.divide(terms[0] + terms[1] + terms[2], TWO_PI * area, out=out, where=area > 0.0)


def density_vec(geom: RhoGeometry, x, y, z):
    """Cap-triangle density D(x, y, z); NaN where degenerate or invalid.

    The stages after the sides run once on the vertices stacked as rows:
    one clip and arccos, one validity test, one K.
    """
    angles, valid = triangle_angles_vec(x, y, z)
    radii = np.empty(angles.shape)
    radii[0], radii[1], radii[2] = x, y, z
    return _density_quotient(K_vec(geom, radii), angles, excess_vec(angles, valid), np.nan)


def angle_upper_at(x, y, z, pair=_trig_of_sum):
    """Vertex angle at the cap of radius x, for upper bounds: an argument
    below -1 clips to the worst case pi.  Exactly, no argument exceeds 1
    (sides in (0, pi), y + z >= |z - y|), and at ratios from `caps.RHO_MIN`
    up none rounds past it."""
    cos_yz, _ = pair(y, z)
    cos_xz, sin_xz = pair(x, z)
    cos_xy, sin_xy = pair(x, y)
    return np.arccos(np.clip(_angle_arg(cos_yz, cos_xz, cos_xy, sin_xz, sin_xy), -1.0, 1.0))


def _doubled_sums(x, y, z):
    # 2x + y + z, 2y + x + z, 2z + x + y as written: a regrouped sum such as
    # (x + y + z) + x rounds differently and can flip a corner choice
    return np.array([2.0 * x + y + z, 2.0 * y + x + z, 2.0 * z + x + y])


def box_angles_upper_vec(a, b, c, ua, ub, uc, pair=_trig_of_sum, coord=_radius):
    """Upper bounds on the vertex angles over boxes [a,ua] x [b,ub] x [c,uc],
    stacked as one (3, ...) array, row v for vertex v.

    With 2x + y + z <= pi throughout the box the angle at x is decreasing
    in x and increasing in y, z, so the maximum sits at (x low, y and z
    high); with 2x + y + z >= pi throughout it sits at the all-high
    corner; otherwise both corners are evaluated and the larger is taken.
    y and z follow with 2y + x + z and 2z + x + y.  The low corners are
    evaluated on every box; the all-high corners of the three vertices are
    the one triangle (ua, ub, uc), evaluated only on the boxes where some
    upper-corner sum exceeds pi (about 0.5% of the boxes the certificate's
    scan evaluates).  Each element gets the bits of evaluating both everywhere.
    """
    a, b, c, ua, ub, uc = np.broadcast_arrays(a, b, c, ua, ub, uc)
    low_only = _doubled_sums(*map(coord, (ua, ub, uc))) <= PI
    angles = np.array([
        angle_upper_at(a, ub, uc, pair),
        angle_upper_at(b, ua, uc, pair),
        angle_upper_at(c, ua, ub, pair),
    ])
    rest = np.flatnonzero(~low_only.all(axis=0))
    if rest.size:
        a, b, c, ua, ub, uc = (np.take(v, rest) for v in (a, b, c, ua, ub, uc))
        high_only = _doubled_sums(*map(coord, (a, b, c))) >= PI
        high, _ = triangle_angles_vec(ua, ub, uc, pair)
        flat, low_only = angles.reshape(3, -1), low_only.reshape(3, -1)[:, rest]
        low = flat[:, rest]
        flat[:, rest] = np.where(low_only, low, np.where(high_only, high, np.maximum(low, high)))
    return angles


def box_density_upper_vec(
    geom: RhoGeometry, a, b, c, ua, ub, uc, pair=_trig_of_sum, coord=_radius, k_of=None
):
    """Upper bound on D over boxes [a,ua] x [b,ub] x [c,uc], vectorized.

    Corner rules: minimum area at the lower corner, maximum K at the upper
    edges, the maximum vertex angles from `box_angles_upper_vec`.  Boxes
    whose lower-corner area is not positive (or whose geometry is invalid)
    get +inf.
    """
    angles = box_angles_upper_vec(a, b, c, ua, ub, uc, pair, coord)
    min_area = triangle_excess_vec(a, b, c, pair)
    # K last, so its (3, ...) gathers are not held while the angles are built
    k_of = k_of or functools.partial(K_vec, geom)
    k = k_of(np.array(np.broadcast_arrays(ua, ub, uc)))
    return _density_quotient(k, angles, min_area, np.inf)
