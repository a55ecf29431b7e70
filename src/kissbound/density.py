"""Cap-triangle density D and its maximization over the cap-radius cube.

For an inflation ratio rho the caps induced on a measuring sphere by
tangent balls have auxiliary radii in I_rho = [alpha_min, alpha_max], and
the packing density of those caps is bounded by the maximum over
I_rho^3 of

    D(x, y, z) = (K(x) angle_x + K(y) angle_y + K(z) angle_z)
                 / (2 pi (angle_x + angle_y + angle_z - pi)),

the density of three mutually tangent caps in their center triangle.
Multiplying by 8 rho / (-rho^2 + 4 rho - 3) turns the maximum into an
upper bound on the average degree of a ball packing's contact graph; the
sweep over rho locates the inflation ratio minimizing that objective.

The maximization is a heuristic multistart simplex search and carries no
rigor guarantee; the certifier owns the rigorous statement.
"""

from __future__ import annotations

import math
import multiprocessing
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .caps import RhoGeometry, TriangleAngles, cap_area_K, rho_geometry, triangle_angles
from .certifier import _resolve_workers, objective_factor
from .errors import DegenerateTriangleError, DomainError, KissboundError

__all__ = [
    "SearchConfig",
    "TriangleDensity",
    "SweepResult",
    "density",
    "max_density",
    "sweep_rho",
    "pruning_objective",
    "pruning_interval",
    "sweep_to_csv",
    "SWEEP_CSV_HEADER",
]


@dataclass(frozen=True)
class SearchConfig:
    """Deterministic settings for the multistart density search.

    grid_step spaces the start points over the symmetry-reduced wedge
    {alpha_min <= x <= y <= z <= alpha_max}; tol bounds both the simplex
    size and the value change at convergence.
    """

    grid_step: float = 0.05
    tol: float = 1e-10
    max_iterations: int = 2000


@dataclass(frozen=True)
class TriangleDensity:
    """Density value of one triple of cap radii, with its triangle."""

    x: float
    y: float
    z: float
    angles: TriangleAngles
    density: float


@dataclass(frozen=True)
class SweepResult:
    """Outcome of maximizing D at one inflation ratio.

    objective = max_density * 8 rho / (-rho^2 + 4 rho - 3).  For pruned
    rows (sweeps run with a pruning threshold) max_density and objective
    hold the equilateral lower-bound values that justified exclusion.
    """

    rho: float
    max_density: float
    argmax: tuple[float, float, float]
    objective: float
    pruned: bool = False
    failed_starts: int = field(default=0, compare=False)


def density(geom: RhoGeometry, x: float, y: float, z: float) -> TriangleDensity:
    """Cap-triangle density D(x, y, z) for radii in [alpha_min, alpha_max].

    Evaluated in canonical sorted order so that permutations of the
    arguments produce bit-identical density values; the returned angles
    follow the argument order.
    """
    for value in (x, y, z):
        if not (geom.alpha_min - 1e-12 <= value <= geom.alpha_max + 1e-12):
            raise DomainError(
                f"cap radius {value!r} outside "
                f"[{geom.alpha_min!r}, {geom.alpha_max!r}]"
            )
    order = sorted(range(3), key=(x, y, z).__getitem__)
    sx, sy, sz = ((x, y, z)[i] for i in order)
    canonical = triangle_angles(sx, sy, sz)
    if canonical.area <= 0.0:
        raise DomainError(f"triangle {(x, y, z)!r} has zero area")
    num = (
        cap_area_K(geom, sx) * canonical.angle_x
        + cap_area_K(geom, sy) * canonical.angle_y
        + cap_area_K(geom, sz) * canonical.angle_z
    )
    value = num / (2.0 * math.pi * canonical.area)
    sorted_angles = (canonical.angle_x, canonical.angle_y, canonical.angle_z)
    unsorted = [0.0, 0.0, 0.0]
    for position, index in enumerate(order):
        unsorted[index] = sorted_angles[position]
    angles = TriangleAngles(
        x, y, z, unsorted[0], unsorted[1], unsorted[2], canonical.area
    )
    return TriangleDensity(x, y, z, angles, value)


def _wedge_grid(geom: RhoGeometry, step: float) -> list[tuple[float, float, float]]:
    """Start points covering {alpha_min <= x <= y <= z <= alpha_max}."""
    if step <= 0.0:
        raise DomainError(f"grid step must be positive, got {step!r}")
    values = [geom.alpha_min + i * step for i in range(int(geom.interval_width / step) + 1)]
    if values[-1] < geom.alpha_max - 1e-9:
        values.append(geom.alpha_max)
    starts = []
    for ix, x in enumerate(values):
        for iy in range(ix, len(values)):
            for iz in range(iy, len(values)):
                starts.append((x, values[iy], values[iz]))
    return starts


def _density_value(geom: RhoGeometry, x: float, y: float, z: float) -> float:
    """Density without dataclass packaging; -inf where undefined."""
    x, y, z = sorted((x, y, z))
    side_yz, side_xz, side_xy = y + z, x + z, x + y
    if max(side_yz, side_xz, side_xy) >= math.pi:
        return -math.inf
    cos_yz, sin_yz = math.cos(side_yz), math.sin(side_yz)
    cos_xz, sin_xz = math.cos(side_xz), math.sin(side_xz)
    cos_xy, sin_xy = math.cos(side_xy), math.sin(side_xy)
    arg_x = (cos_yz - cos_xz * cos_xy) / (sin_xz * sin_xy)
    arg_y = (cos_xz - cos_xy * cos_yz) / (sin_xy * sin_yz)
    arg_z = (cos_xy - cos_xz * cos_yz) / (sin_xz * sin_yz)
    if max(abs(arg_x), abs(arg_y), abs(arg_z)) > 1.0:
        return -math.inf
    area = math.acos(arg_x) + math.acos(arg_y) + math.acos(arg_z) - math.pi
    if area <= 0.0:
        return -math.inf
    num = (
        cap_area_K(geom, x) * math.acos(arg_x)
        + cap_area_K(geom, y) * math.acos(arg_y)
        + cap_area_K(geom, z) * math.acos(arg_z)
    )
    return num / (2.0 * math.pi * area)


def max_density(
    geom: RhoGeometry,
    cfg: SearchConfig | None = None,
    starts: list[tuple[float, float, float]] | None = None,
) -> SweepResult:
    """Best local maximum of D found by multistart Nelder-Mead.

    Starts from every point of the symmetry-reduced grid (or from the
    given `starts`, e.g. to probe order independence); the search itself
    roams the full cube (out-of-domain trial points are rejected with an
    infinite penalty) and the reported argmax is sorted into x <= y <= z.
    Deterministic given cfg: the reduction over starts is a max with ties
    broken toward the lexicographically smallest triple, so the result
    does not depend on start order.  Failed starts (searches ending on a
    non-finite value) are skipped and counted.
    """
    cfg = cfg or SearchConfig()
    lo, hi = geom.alpha_min, geom.alpha_max

    def neg_density(v) -> float:
        x, y, z = v
        if not (lo <= x <= hi and lo <= y <= hi and lo <= z <= hi):
            return math.inf
        return -_density_value(geom, x, y, z)

    best_value = -math.inf
    best_triple: tuple[float, float, float] | None = None
    failed = 0
    if starts is None:
        starts = _wedge_grid(geom, cfg.grid_step)
    for start in starts:
        # infeasible start (e.g. the cube corner beyond rho = 2): nothing
        # to descend from, and an all-inf simplex trips the optimizer
        if not math.isfinite(neg_density(start)):
            failed += 1
            continue
        result = minimize(
            neg_density,
            np.asarray(start, dtype=np.float64),
            method="Nelder-Mead",
            options=dict(
                xatol=cfg.tol, fatol=cfg.tol, maxiter=cfg.max_iterations
            ),
        )
        value = -float(result.fun)
        if not math.isfinite(value):
            failed += 1
            continue
        triple = tuple(sorted(float(v) for v in result.x))
        if value > best_value or (value == best_value and triple < best_triple):
            best_value = value
            best_triple = triple
    if best_triple is None:
        raise KissboundError("no start point produced a finite density")
    return SweepResult(
        rho=geom.rho,
        max_density=best_value,
        argmax=best_triple,
        objective=best_value * objective_factor(geom.rho),
        failed_starts=failed,
    )


def pruning_objective(rho: float) -> float:
    """Objective at the equilateral point (alpha_zero^3), a lower bound.

    Used to exclude inflation ratios: where even this value reaches the
    pruning threshold, the true objective cannot be smaller.
    """
    geom = rho_geometry(rho)
    a0 = geom.alpha_zero
    return density(geom, a0, a0, a0).density * objective_factor(rho)


def pruning_interval(
    threshold: float = 14.0,
    lo: float = 1.001,
    hi: float = 2.999,
    tol: float = 1e-9,
) -> tuple[float, float]:
    """Interval of rho where pruning_objective stays below the threshold.

    The objective blows up toward both ends of (1, 3) and dips below the
    threshold on one middle interval; both crossings are located by
    bisection to tol.
    """

    def objective(rho: float) -> float:
        # the equilateral triangle degenerates numerically as rho -> 1;
        # the objective blows up there anyway
        try:
            return pruning_objective(rho)
        except DegenerateTriangleError:
            return math.inf

    values = np.linspace(lo, hi, 400)
    below = [r for r in values if objective(float(r)) < threshold]
    if not below:
        raise DomainError(f"pruning objective never drops below {threshold!r}")

    def crossing(outside: float, inside: float) -> float:
        # invariant: objective(outside) >= threshold > objective(inside)
        while abs(inside - outside) > tol:
            mid = 0.5 * (inside + outside)
            if objective(mid) < threshold:
                inside = mid
            else:
                outside = mid
        return 0.5 * (inside + outside)

    left_in, right_in = float(below[0]), float(below[-1])
    if objective(lo) < threshold or objective(hi) < threshold:
        raise DomainError("threshold interval is not interior to the scan range")
    return crossing(lo, left_in), crossing(hi, right_in)


def _rho_grid(rho_lo: float, rho_hi: float, step: float) -> list[float]:
    if not (1.0 < rho_lo <= rho_hi < 3.0):
        raise DomainError(
            f"sweep interval must satisfy 1 < lo <= hi < 3, got {(rho_lo, rho_hi)!r}"
        )
    if step <= 0.0:
        raise DomainError(f"sweep step must be positive, got {step!r}")
    count = int(math.floor((rho_hi - rho_lo) / step + 1e-9)) + 1
    return [rho_lo + i * step for i in range(count)]


def _sweep_one(args) -> SweepResult:
    rho, cfg, prune_threshold = args
    geom = rho_geometry(rho)
    if prune_threshold is not None:
        a0 = geom.alpha_zero
        equilateral = density(geom, a0, a0, a0)
        lower_bound = equilateral.density * objective_factor(rho)
        if lower_bound >= prune_threshold:
            return SweepResult(
                rho=rho,
                max_density=equilateral.density,
                argmax=(a0, a0, a0),
                objective=lower_bound,
                pruned=True,
            )
    return max_density(geom, cfg)


def sweep_rho(
    rho_lo: float,
    rho_hi: float,
    step: float,
    cfg: SearchConfig | None = None,
    prune_threshold: float | None = None,
    workers: int | None = 1,
) -> list[SweepResult]:
    """Maximize D on a grid of inflation ratios.

    Results come back in grid order and are identical for any worker
    count (None: KISSBOUND_THREADS, else all cores).  With
    prune_threshold set, ratios whose equilateral lower bound already
    reaches the threshold are skipped (marked pruned) instead of
    searched; without it the full interval is searched.
    """
    cfg = cfg or SearchConfig()
    grid = _rho_grid(rho_lo, rho_hi, step)
    jobs = [(rho, cfg, prune_threshold) for rho in grid]
    workers = _resolve_workers(workers)
    if workers == 1 or len(jobs) == 1:
        return [_sweep_one(job) for job in jobs]
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(processes=min(workers, len(jobs))) as pool:
        return list(pool.imap(_sweep_one, jobs, chunksize=1))


SWEEP_CSV_HEADER = "rho,max_density,x,y,z,objective"


def sweep_to_csv(results: list[SweepResult], include_pruned: bool = False) -> str:
    """CSV rows with 12 significant digits per value."""
    header = SWEEP_CSV_HEADER + (",pruned" if include_pruned else "")
    lines = [header]
    for r in results:
        x, y, z = r.argmax
        row = (
            f"{r.rho:.12g},{r.max_density:.12g},{x:.12g},{y:.12g},{z:.12g},"
            f"{r.objective:.12g}"
        )
        if include_pruned:
            row += f",{'true' if r.pruned else 'false'}"
        lines.append(row)
    return "\n".join(lines) + "\n"
