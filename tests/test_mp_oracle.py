"""60-digit checks of the identities behind the certifier's corner rules.

The oracle's vertex angle, area and K (`mp_oracle`) are compared with
independent closed forms at random points of I_rho^3 with s = x + y + z < pi,
the condition for the three tangent caps to bound a triangle: the half-angle
form of the angle, L'Huilier's form of the area, the derivative of
sin x sin s behind the angle's 2x + y + z vs pi rule, and K's two branches
at alpha_zero.  Each identity must hold to DIGITS significant digits; each
test prints its worst gap (`pytest -rP`).  The worst gaps over the three
ratios are 3.7e-60 (angle), 1.0e-58 (area), 1.8e-59 (K), relative, and 0
for the derivative, absolute: mp.diff works at raised precision and rounds
to the same 60 digits as sin(2x + y + z).
"""

import math

import mpmath as mp
import pytest

from kissbound import rho_geometry

import mp_oracle

RHOS = [1.3, 1.755, 2.5]
DIGITS = 40
POINTS = 40


def sample(rng, rho):
    """POINTS random (x, y, z) of I_rho^3 with x + y + z < pi, as floats."""
    geom = rho_geometry(rho)
    x, y, z = rng.uniform(geom.alpha_min, geom.alpha_max, size=(3, 4 * POINTS))
    keep = x + y + z < math.pi
    points = list(zip(x[keep].tolist(), y[keep].tolist(), z[keep].tolist()))
    assert len(points) >= POINTS
    return points[:POINTS]


def check_digits(pairs, relative=True):
    """Each (value, exact) pair agrees to DIGITS digits, relative to exact
    or, where exact may vanish, absolutely."""
    with mp.workdps(mp_oracle.DPS):
        worst = max(abs(value - exact) / (abs(exact) if relative else 1) for value, exact in pairs)
    print(f"worst gap {mp.nstr(worst, 3)}")
    assert worst <= mp.mpf(10) ** -DIGITS, f"worst gap {mp.nstr(worst, 3)}"


@pytest.mark.parametrize("rho", RHOS)
def test_vertex_angle_is_the_half_angle_form(rng, rho):
    pairs = []
    with mp.workdps(mp_oracle.DPS):
        for x, y, z in sample(rng, rho):
            s = mp.mpf(x) + y + z
            half_angle = 2 * mp.atan(mp.sqrt(mp.sin(y) * mp.sin(z) / (mp.sin(x) * mp.sin(s))))
            pairs.append((mp_oracle.vertex_angle(x, y, z), half_angle))
    check_digits(pairs)


@pytest.mark.parametrize("rho", RHOS)
def test_area_is_lhuiliers_form(rng, rho):
    pairs = []
    with mp.workdps(mp_oracle.DPS):
        for x, y, z in sample(rng, rho):
            x, y, z = map(mp.mpf, (x, y, z))
            tans = mp.tan((x + y + z) / 2) * mp.tan(x / 2) * mp.tan(y / 2) * mp.tan(z / 2)
            pairs.append((mp_oracle.area(x, y, z), 4 * mp.atan(mp.sqrt(tans))))
    check_digits(pairs)


@pytest.mark.parametrize("rho", RHOS)
def test_derivative_of_the_angle_denominator(rng, rho):
    # d/dx (sin x sin s) = sin(2x + y + z): the angle at x falls while
    # 2x + y + z < pi and rises after; the derivative vanishes at pi
    pairs = []
    with mp.workdps(mp_oracle.DPS):
        for x, y, z in sample(rng, rho):
            rest = mp.mpf(y) + z
            derivative = mp.diff(lambda t: mp.sin(t) * mp.sin(t + rest), x)
            pairs.append((derivative, mp.sin(2 * mp.mpf(x) + rest)))
    check_digits(pairs, relative=False)


@pytest.mark.parametrize("rho", RHOS)
def test_K_branches(rng, rho):
    # the cone branch is the cos(alpha + arccos(1/rho)) form, and it meets
    # the plain branch at alpha_zero
    geom = rho_geometry(rho)
    pairs = []
    with mp.workdps(mp_oracle.DPS):
        a0 = mp_oracle.alpha_zero(rho)
        pairs.append((mp_oracle.K_cone(rho, a0), mp_oracle.K_plain(a0)))
        r = mp.mpf(rho)
        for alpha in rng.uniform(geom.alpha_min, geom.alpha_zero, size=POINTS).tolist():
            c = mp.cos(alpha + mp.acos(1 / r))
            cone = 2 * mp.pi * (1 - ((r**2 - 1) * (c + 1) + 4) / (4 * r))
            pairs.append((mp_oracle.K_cone(rho, alpha), cone))
    check_digits(pairs)
