"""Dimension-general cap area bounds on average kissing numbers.

The d-dimensional analogue of the coverage argument rests on one radial
profile integral

    I_d(u) = integral_0^u t^((d-3)/2) (1 - t)^(-1/2) dt,

which gives cap areas via A(alpha) ~ I_d(sin^2 alpha) and turns the
two-sided coverage of a tangent pair into a function of cos(alpha) alone.
The minimum pair coverage f_d(rho) and the resulting upper bound
2 / f_d(rho) on the average degree k_d are computed here, including the
optimal-ratio bound a(d) = 2 / f_d(sqrt(3)).

The raw integrand is singular at t = 1; substituting t = sin^2(theta)
yields the smooth integrand 2 sin^(d-2)(theta), which is integrated by a
composite Gauss-Legendre rule.  All reported quantities are ratios of
profile integrals, so no gamma function enters them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .caps import check_rho
from .errors import DomainError

__all__ = [
    "DimBoundResult",
    "profile_integral",
    "cap_area_d",
    "sphere_area",
    "g_profile",
    "f_d",
    "a_of_d",
    "k_bound_highdim",
]

MIN_DIMENSION = 3
MAX_DIMENSION = 64


@lru_cache(maxsize=None)
def _gl_nodes() -> tuple[np.ndarray, np.ndarray]:
    # built on first use: numpy.polynomial is not loaded by `import numpy`
    return np.polynomial.legendre.leggauss(16)


def _check_dimension(d: int) -> None:
    if not isinstance(d, (int, np.integer)) or isinstance(d, bool):
        raise DomainError(f"dimension must be an integer, got {d!r}")
    if not (MIN_DIMENSION <= d <= MAX_DIMENSION):
        raise DomainError(
            f"dimension must lie in [{MIN_DIMENSION}, {MAX_DIMENSION}], got {d}"
        )


def profile_integral(d: int, upper: float) -> float:
    """I_d(upper) = integral_0^upper t^((d-3)/2) (1-t)^(-1/2) dt.

    Evaluated after t = sin^2(theta) as integral of 2 sin^(d-2)(theta)
    over [0, arcsin(sqrt(upper))] with a composite Gauss-Legendre rule of
    8 + d // 4 equal panels (16 points each).
    """
    _check_dimension(d)
    if not (0.0 <= upper <= 1.0):
        raise DomainError(f"integration limit must lie in [0, 1], got {upper!r}")
    theta_max = math.asin(math.sqrt(upper))
    return _sin_power_integral(d, theta_max)


def _sin_power_integral(d: int, theta_max: float) -> float:
    nodes, weights = _gl_nodes()
    # sin^(d-2) concentrates near pi/2 as d grows; a few extra panels keep
    # the composite rule at machine precision through d = 64
    edges = np.linspace(0.0, theta_max, 8 + d // 4 + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    theta = mid[:, None] + half[:, None] * nodes[None, :]
    values = 2.0 * np.sin(theta) ** (d - 2)
    return float(np.sum(half[:, None] * weights[None, :] * values))


def cap_area_d(d: int, alpha: float) -> float:
    """(d-1)-dimensional area of a spherical cap of radius alpha, unit sphere.

    A(alpha) = (pi^((d-1)/2) / Gamma((d-1)/2)) I_d(sin^2 alpha); for d = 3
    this reduces to Archimedes' 2 pi (1 - cos alpha).
    """
    _check_dimension(d)
    if not (0.0 <= alpha <= math.pi / 2.0 + 1e-15):
        raise DomainError(f"cap radius must lie in [0, pi/2], got {alpha!r}")
    prefactor = math.pi ** ((d - 1) / 2.0) / math.gamma((d - 1) / 2.0)
    theta_max = min(alpha, math.pi / 2.0)
    return prefactor * _sin_power_integral(d, theta_max)


def sphere_area(d: int) -> float:
    """Total (d-1)-dimensional area of the unit sphere in R^d."""
    _check_dimension(d)
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def g_profile(d: int, C: float, x: float) -> float:
    """Two-cap profile sum g(x) = I_d(1 - x^2) + I_d(1 - (C - x)^2).

    Here C = cos(alpha) + cos(beta) is the tangency constraint constant in
    (1, 2) and x = cos(alpha) ranges over [C - 1, 1].  g is symmetric about
    C/2, attains its minimum there (congruent caps), and is constant in x
    for d = 3.
    """
    _check_dimension(d)
    if not (1.0 < C < 2.0):
        raise DomainError(f"cosine sum constant must lie in (1, 2), got {C!r}")
    if not (C - 1.0 <= x <= 1.0):
        raise DomainError(f"cosine value must lie in [{C - 1.0!r}, 1], got {x!r}")
    return profile_integral(d, 1.0 - x * x) + profile_integral(d, 1.0 - (C - x) * (C - x))


def f_d(d: int, rho: float) -> float:
    """Minimum two-sided coverage fraction of a tangent pair in dimension d.

    The minimum over radius ratios is attained by congruent balls, where
    both caps have cosine (rho^2 + 3) / (4 rho):

        f_d(rho) = I_d(1 - ((rho^2 + 3) / (4 rho))^2) / I_d(1).

    Maximal over rho at rho = sqrt(3); tends to 0 at both ends of (1, 3).
    """
    _check_dimension(d)
    check_rho(rho)
    cos_cap = (rho * rho + 3.0) / (4.0 * rho)
    upper = 1.0 - cos_cap * cos_cap
    return profile_integral(d, upper) / profile_integral(d, 1.0)


def a_of_d(d: int) -> float:
    """Area-argument upper bound a(d) = 2 I_d(1) / I_d(1/4) on k_d.

    Equals 2 / f_d(sqrt(3)); a(3) = 8 + 4 sqrt(3).
    """
    return 2.0 * profile_integral(d, 1.0) / profile_integral(d, 0.25)


@dataclass(frozen=True)
class DimBoundResult:
    """Upper bound on the average degree k_d at one inflation ratio.

    With the covered-area proportion bounded by 1, the bound is 2 / f_d.
    """

    d: int
    rho: float
    f_d: float
    bound: float


def k_bound_highdim(d: int, rho: float) -> DimBoundResult:
    """Average-degree bound 2 / f_d(rho) in dimension d."""
    minimum = f_d(d, rho)
    if not minimum > 0.0:
        raise DomainError(f"f_{d}({rho!r}) rounds to 0, so the bound 2 / f_{d} is infinite")
    return DimBoundResult(d=d, rho=rho, f_d=minimum, bound=2.0 / minimum)
