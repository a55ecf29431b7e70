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

The maximization is a heuristic multistart Nelder-Mead search: every start
point gets its own simplex, and one lockstep loop advances all of them
together on the vectorized kernel `_kernels.density_vec`.  It carries no
rigor guarantee; the certifier owns the rigorous statement.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
from dataclasses import dataclass, field

import numpy as np

from ._kernels import density_vec
from .caps import RhoGeometry, TriangleAngles, rho_geometry, triangle_angles
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

    def __post_init__(self):
        if not 0.0 < self.grid_step < math.inf:
            raise DomainError(f"grid step must be positive and finite, got {self.grid_step!r}")
        if not 0.0 <= self.tol < math.inf:
            raise DomainError(f"tol must be non-negative and finite, got {self.tol!r}")
        if not self.max_iterations >= 1:
            raise DomainError(f"max_iterations must be at least 1, got {self.max_iterations!r}")


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
                f"cap radius {value!r} outside [{geom.alpha_min!r}, {geom.alpha_max!r}]"
            )
    order = sorted(range(3), key=(x, y, z).__getitem__)
    sx, sy, sz = ((x, y, z)[i] for i in order)
    canonical = triangle_angles(sx, sy, sz)
    if canonical.area <= 0.0:
        raise DomainError(f"triangle {(x, y, z)!r} has zero area")
    value = float(density_vec(geom, sx, sy, sz))
    angle = dict(zip(order, (canonical.angle_x, canonical.angle_y, canonical.angle_z)))
    angles = TriangleAngles(x, y, z, angle[0], angle[1], angle[2], canonical.area)
    return TriangleDensity(x, y, z, angles, value)


def _wedge_grid(geom: RhoGeometry, step: float) -> list[tuple[float, float, float]]:
    """Start points covering {alpha_min <= x <= y <= z <= alpha_max}."""
    values = [geom.alpha_min + i * step for i in range(int(geom.interval_width / step) + 1)]
    if values[-1] < geom.alpha_max - 1e-9:
        values.append(geom.alpha_max)
    return list(itertools.combinations_with_replacement(values, 3))


# the standard Nelder-Mead coefficients, and 5% steps for the initial simplex
REFLECT, EXPAND, CONTRACT, SHRINK, INITIAL_SCALE = 1.0, 2.0, 0.5, 0.5, 1.05


def _neg_density(geom: RhoGeometry, points: np.ndarray) -> np.ndarray:
    """-D at points (..., 3), each sorted first; +inf outside I_rho^3 or where D is NaN."""
    inside = np.all((points >= geom.alpha_min) & (points <= geom.alpha_max), axis=-1)
    x, y, z = np.sort(points, axis=-1).reshape(-1, 3).T.copy()
    value = -density_vec(geom, x, y, z).reshape(inside.shape)
    return np.where(inside & ~np.isnan(value), value, np.inf)


def max_density(
    geom: RhoGeometry,
    cfg: SearchConfig | None = None,
    starts: list[tuple[float, float, float]] | None = None,
) -> SweepResult:
    """Best local maximum of D found by multistart Nelder-Mead.

    One lockstep loop advances a simplex per start (every point of the
    symmetry-reduced grid, or the given `starts`) as an (S, 4, 3) array
    with (S, 4) values; a lane stops once its simplex size and value
    spread are both within cfg.tol, or after cfg.max_iterations.  Per-lane
    masks choose reflection, expansion, contraction or shrink.  Points
    outside I_rho^3 get an infinite penalty.  Lanes never mix and the max
    over starts breaks ties toward the lexicographically smallest sorted
    triple, so start order does not matter.  Failed starts (infeasible,
    or ending non-finite) are skipped and counted.
    """
    cfg = cfg or SearchConfig()
    if starts is None:
        starts = _wedge_grid(geom, cfg.grid_step)
    start = np.asarray(starts, dtype=np.float64).reshape(-1, 3)
    # vertex k + 1 of a start's simplex scales its coordinate k
    sim = start[:, None, :] * np.where(np.eye(4, 3, k=-1, dtype=bool), INITIAL_SCALE, 1.0)
    fsim = _neg_density(geom, sim)
    best_x, best_f = start.copy(), np.full(len(start), np.inf)
    lanes = np.flatnonzero(np.isfinite(fsim[:, 0]))
    sim, fsim = sim[lanes], fsim[lanes]
    for iteration in itertools.count(1):
        order = np.argsort(fsim, axis=1, kind="stable")
        sim = np.take_along_axis(sim, order[:, :, None], axis=1)
        fsim = np.take_along_axis(fsim, order, axis=1)
        size = np.abs(sim[:, 1:] - sim[:, :1]).max(axis=(1, 2))
        spread = np.abs(fsim[:, 1:] - fsim[:, :1]).max(axis=1)
        done = ((size <= cfg.tol) & (spread <= cfg.tol)) | (iteration >= cfg.max_iterations)
        best_x[lanes[done]], best_f[lanes[done]] = sim[done, 0], fsim[done, 0]
        lanes, sim, fsim = lanes[~done], sim[~done], fsim[~done]
        if not lanes.size:
            break

        xbar, worst = (sim[:, 0] + sim[:, 1] + sim[:, 2]) / 3.0, sim[:, 3]
        xr = (1.0 + REFLECT) * xbar - REFLECT * worst
        fxr = _neg_density(geom, xr)
        expand = fxr < fsim[:, 0]
        accept = ~expand & (fxr < fsim[:, 2])
        outside = ~expand & ~accept & (fxr < fsim[:, 3])
        inside = ~(expand | accept | outside)
        # where the reflection alone does not decide, one more trial point
        # (1 + c) xbar - c worst: expansion, outside or inside contraction
        c = np.where(expand, REFLECT * EXPAND, np.where(outside, CONTRACT * REFLECT, -CONTRACT))
        trial = (1.0 + c[:, None]) * xbar - c[:, None] * worst
        f_trial = _neg_density(geom, trial)
        take_trial = (
            (expand & (f_trial < fxr))
            | (outside & (f_trial <= fxr))
            | (inside & (f_trial < fsim[:, 3]))
        )
        keep = take_trial | accept | expand
        sim[keep, 3] = np.where(take_trial[:, None], trial, xr)[keep]
        fsim[keep, 3] = np.where(take_trial, f_trial, fxr)[keep]
        anchor = sim[~keep, :1]
        sim[~keep, 1:] = anchor + SHRINK * (sim[~keep, 1:] - anchor)
        fsim[~keep, 1:] = _neg_density(geom, sim[~keep, 1:])

    finite = np.isfinite(best_f)
    if not finite.any():
        raise KissboundError("no start point produced a finite density")
    best_value = -float(best_f.min())
    best_triple = min(map(tuple, np.sort(best_x[best_f == -best_value], axis=1).tolist()))
    return SweepResult(
        rho=geom.rho,
        max_density=best_value,
        argmax=best_triple,
        objective=best_value * objective_factor(geom.rho),
        failed_starts=int(np.count_nonzero(~finite)),
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


# the most inflation ratios one sweep may search
MAX_RHO_RATIOS = 10**6


def _rho_grid(rho_lo: float, rho_hi: float, step: float) -> list[float]:
    if not (1.0 < rho_lo <= rho_hi < 3.0):
        raise DomainError(
            f"sweep interval must satisfy 1 < lo <= hi < 3, got {(rho_lo, rho_hi)!r}"
        )
    if not 0.0 < step < math.inf:
        raise DomainError(f"sweep step must be positive and finite, got {step!r}")
    # floor(cells) + 1 ratios, so at most MAX_RHO_RATIOS exactly when cells is below it
    cells = (rho_hi - rho_lo) / step + 1e-9
    if not cells < MAX_RHO_RATIOS:
        raise DomainError(f"sweep step {step!r} gives more than {MAX_RHO_RATIOS} ratios")
    count = int(math.floor(cells)) + 1
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
    if prune_threshold is not None and not math.isfinite(prune_threshold):
        raise DomainError(f"prune threshold must be finite, got {prune_threshold!r}")
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
