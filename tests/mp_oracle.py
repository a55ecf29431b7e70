"""60-digit mpmath evaluation of the cap geometry, the oracle for the kernels.

Each function takes floats (converted exactly, bit for bit), mpf values or
decimal strings, and returns an mpf evaluated at 60 significant digits:
the cap area K, the vertex angle of the tangent-cap triangle, the density
D and the corner bound of a box.  The formulas are written out here from
the paper's definitions, independently of `kissbound._kernels`.
"""

import mpmath as mp

DPS = 60

_at_dps = mp.workdps(DPS)


@_at_dps
def alpha_zero(rho):
    """Cap radius at which the auxiliary cap stops being a cone cap."""
    rho = mp.mpf(rho)
    return mp.acos((3 * rho**2 + 1) / (rho * (rho**2 + 3)))


@_at_dps
def K(rho, alpha):
    """Area of the coverage cap whose auxiliary cap has radius alpha."""
    if mp.mpf(alpha) >= alpha_zero(rho):
        return K_plain(alpha)
    return K_cone(rho, alpha)


@_at_dps
def K_plain(alpha):
    """K's branch from alpha_zero up: the area of the auxiliary cap itself."""
    return 2 * mp.pi * (1 - mp.cos(mp.mpf(alpha)))


@_at_dps
def K_cone(rho, alpha):
    """K's branch below alpha_zero, where the auxiliary cap is a cone cap."""
    rho, alpha = mp.mpf(rho), mp.mpf(alpha)
    cone_cos = mp.cos(alpha) / rho - mp.sqrt(1 - 1 / rho**2) * mp.sin(alpha)
    return 2 * mp.pi * (1 - ((rho**2 - 1) * (cone_cos + 1) + 4) / (4 * rho))


@_at_dps
def vertex_angle(x, y, z):
    """Angle at the cap of radius x in the triangle of tangent caps x, y, z."""
    x, y, z = mp.mpf(x), mp.mpf(y), mp.mpf(z)
    opposite, left, right = y + z, x + z, x + y
    return mp.acos(
        (mp.cos(opposite) - mp.cos(left) * mp.cos(right)) / (mp.sin(left) * mp.sin(right))
    )


@_at_dps
def area(x, y, z):
    """Angular excess of the triangle of tangent caps x, y, z."""
    return vertex_angle(x, y, z) + vertex_angle(y, x, z) + vertex_angle(z, x, y) - mp.pi


@_at_dps
def density(rho, x, y, z):
    """Cap-triangle density D(x, y, z)."""
    num = (
        K(rho, x) * vertex_angle(x, y, z)
        + K(rho, y) * vertex_angle(y, x, z)
        + K(rho, z) * vertex_angle(z, x, y)
    )
    return num / (2 * mp.pi * area(x, y, z))


@_at_dps
def _angle_upper(lo_own, lo_o1, lo_o2, up_own, up_o1, up_o2):
    low_corner = vertex_angle(lo_own, up_o1, up_o2)
    high_corner = vertex_angle(up_own, up_o1, up_o2)
    if 2 * mp.mpf(up_own) + up_o1 + up_o2 <= mp.pi:
        return low_corner
    if 2 * mp.mpf(lo_own) + lo_o1 + lo_o2 >= mp.pi:
        return high_corner
    return max(low_corner, high_corner)


@_at_dps
def box_bound(rho, lower, upper):
    """Corner bound on D over the box from corner `lower` to corner `upper`:
    K at the upper edges, each angle at the corner its 2x + y + z vs pi
    rule selects, and the area at the lower corner."""
    (a, b, c), (ua, ub, uc) = lower, upper
    num = (
        K(rho, ua) * _angle_upper(a, b, c, ua, ub, uc)
        + K(rho, ub) * _angle_upper(b, a, c, ub, ua, uc)
        + K(rho, uc) * _angle_upper(c, a, b, uc, ua, ub)
    )
    return num / (2 * mp.pi * area(a, b, c))


@_at_dps
def rel_error(value, exact):
    """|value - exact| / |exact| for a float value, as a float."""
    return float(abs((mp.mpf(value) - exact) / exact))
