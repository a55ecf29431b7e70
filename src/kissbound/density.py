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

The maximization is a heuristic multistart Nelder-Mead search carrying no
rigor guarantee; the certifier owns the rigorous statement.  Every start
point gets its own simplex, a lane, and one lockstep loop advances the
lanes together: all of a `max_density` call, or a run of consecutive
ratios of a `sweep_rho` call, each lane looking up its own ratio's
geometry.  The loop's numpy calls are then shared by every lane, and the
objective `_kernels.density_vec` runs its arccos and K stages once on the
three vertices stacked.  The lanes are the last axis of every array the
loop carries, contiguous in memory, so each of those calls runs on
contiguous rows.  An iteration costs a fixed part (its numpy calls and
two objective calls, three when some lane shrinks) plus a part per live
lane, and the loop runs as many iterations as its slowest lane: at
the `sweep` benchmark's 880 lanes, 786, though half the lanes are done by
iteration 289.  A run holds at most MAX_LOOP_LANES lanes, and a
ratio at most MAX_STARTS.  `sweep_rho` hands runs to worker processes
through `_parallel.ordered_map`, but only as many processes as get at
least MIN_PROCESS_LANES lanes each, since every extra loop pays the fixed
part again: the `sweep` benchmark's 880 lanes run in this process.
Lanes never mix, so a ratio's result has the same bits whichever ratios
share its loop and whichever worker runs it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from ._kernels import density_vec
from ._parallel import ordered_map, resolve_workers
from .caps import (
    RhoGeometry, TriangleAngles, check_cap_radius, objective_factor, rho_geometry, triangle_angles,
)
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
        count = self.max_iterations
        if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or not count >= 1:
            raise DomainError(f"max_iterations must be an integer of at least 1, got {count!r}")


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
    The search's counts stay out of comparisons: iterations is the most
    simplex updates any start made, evaluations the points at which D
    was evaluated, capped the starts that cfg.max_iterations stopped with
    their simplex size or value spread above cfg.tol (all 0 on pruned rows).
    """

    rho: float
    max_density: float
    argmax: tuple[float, float, float]
    objective: float
    pruned: bool = False
    failed_starts: int = field(default=0, compare=False)
    iterations: int = field(default=0, compare=False)
    evaluations: int = field(default=0, compare=False)
    capped: int = field(default=0, compare=False)


def density(geom: RhoGeometry, x: float, y: float, z: float) -> TriangleDensity:
    """Cap-triangle density D(x, y, z) for radii in [alpha_min, alpha_max].

    Evaluated in canonical sorted order so that permutations of the
    arguments produce bit-identical density values; the returned angles
    follow the argument order.
    """
    for value in (x, y, z):
        check_cap_radius(geom, value)
    order = sorted(range(3), key=(x, y, z).__getitem__)
    sx, sy, sz = ((x, y, z)[i] for i in order)
    canonical = triangle_angles(sx, sy, sz)
    if canonical.area <= 0.0:
        raise DomainError(f"triangle {(x, y, z)!r} has zero area")
    value = float(density_vec(geom, sx, sy, sz))
    angle = dict(zip(order, (canonical.angle_x, canonical.angle_y, canonical.angle_z)))
    angles = TriangleAngles(x, y, z, angle[0], angle[1], angle[2], canonical.area)
    return TriangleDensity(x, y, z, angles, value)


def _wedge_values(geom: RhoGeometry, step: float) -> list[float]:
    """The start grid's coordinates: alpha_min, alpha_min + step, ..., alpha_max.

    DomainError, before any is built, when they give over MAX_STARTS starts.
    """
    cells = geom.interval_width / step
    # v values give comb(v + 2, 3) >= v starts, so cells is bounded (inf too) first
    count = int(cells) + 1 if cells < MAX_STARTS else MAX_STARTS
    short = geom.alpha_min + (count - 1) * step < geom.alpha_max - 1e-9
    if math.comb(count + short + 2, 3) > MAX_STARTS:
        raise DomainError(
            f"grid step {step!r} gives more than {MAX_STARTS} start points at rho {geom.rho!r}"
        )
    return [geom.alpha_min + i * step for i in range(count)] + [geom.alpha_max] * short


def _wedge_grid(geom: RhoGeometry, step: float) -> list[tuple[float, float, float]]:
    """Start points covering {alpha_min <= x <= y <= z <= alpha_max}."""
    return list(itertools.combinations_with_replacement(_wedge_values(geom, step), 3))


def _wedge_size(geom: RhoGeometry, step: float) -> int:
    """len(_wedge_grid(geom, step)), without building the grid."""
    return math.comb(len(_wedge_values(geom, step)) + 2, 3)


# the standard Nelder-Mead coefficients, and 5% steps for the initial simplex
REFLECT, EXPAND, CONTRACT, SHRINK, INITIAL_SCALE = 1.0, 2.0, 0.5, 0.5, 1.05


def _neg_density(geom: RhoGeometry, points: np.ndarray) -> np.ndarray:
    """-D at points (3, ...), coordinates first, each sorted first; +inf
    outside I_rho^3 or where D is NaN.  The fields of geom are scalars, or
    arrays over the last axis of points that give each lane its own ratio."""
    x, y, z = _sort3(*points)
    # a NaN coordinate makes z NaN, so such a point is outside too
    inside = (x >= geom.alpha_min) & (z <= geom.alpha_max)
    value = -density_vec(geom, x, y, z)
    return np.where(inside & ~np.isnan(value), value, np.inf)


def _sort3(x, y, z):
    """Points (x, y, z) sorted by a min/max network: np.sort's bits, but for
    points with a NaN (z is then NaN too) or 0.0 and -0.0, all outside I_rho^3."""
    lo, hi = np.minimum(x, y), np.maximum(x, y)
    mid = np.minimum(hi, z)
    return np.minimum(lo, mid), np.maximum(lo, mid), np.maximum(hi, z)


def _search(
    geoms: list[RhoGeometry],
    cfg: SearchConfig,
    starts: list[list[tuple[float, float, float]]] | None = None,
) -> list[SweepResult]:
    """Multistart Nelder-Mead at every ratio of `geoms` in one lockstep loop.

    A lane is one (ratio, start) pair: the last axis of a (3, 4, S) array
    of simplices (coordinate, vertex, lane) with (4, S) values, so each
    step runs on rows over the lanes.  `owner` names each lane's ratio, and
    the objective gets that ratio's column of the geometry table.  Every
    array the loop carries or hands the objective (simplices, values,
    geometry columns, lane ids, points) stays contiguous along the lanes:
    lanes are selected, sorted and dropped by gathers along one axis
    (np.take, np.compress), never by a fancy index mixed with slices, whose
    result numpy lays out lane-major, and kept points are written in place
    (np.copyto).  These only move data, so the layout changes no bit.  A lane
    stops once its simplex size and value spread are both within cfg.tol,
    or after cfg.max_iterations passes.  Per-lane masks choose reflection,
    expansion, contraction or shrink.  Points outside I_rho^3 get an
    infinite penalty.  Lanes never mix, so a ratio's result does not
    depend on the ratios searched beside it.
    """
    if starts is None:
        starts = [_wedge_grid(g, cfg.grid_step) for g in geoms]
    owner = np.repeat(np.arange(len(geoms)), [len(s) for s in starts])
    start = np.asarray([p for s in starts for p in s], dtype=np.float64).reshape(-1, 3)
    table = np.array([(g.rho, g.alpha_min, g.alpha_zero, g.alpha_max) for g in geoms]).T
    # vertex k + 1 of a start's simplex scales its coordinate k
    scale = np.where(np.eye(3, 4, k=1, dtype=bool), INITIAL_SCALE, 1.0)
    sim = np.ascontiguousarray(start.T)[:, None] * scale[..., None]
    fsim = _neg_density(RhoGeometry(*np.take(table, owner, axis=-1)), sim)
    best_x, best_f = start.copy(), np.full(len(start), np.inf)
    # per lane: simplex updates made, how many of them shrank the simplex,
    # and whether the iteration cap stopped it unconverged
    steps, shrinks = np.zeros(len(start), np.int64), np.zeros(len(start), np.int64)
    capped = np.zeros(len(start), bool)
    lanes = np.flatnonzero(np.isfinite(fsim[0]))
    sim, fsim = np.take(sim, lanes, axis=-1), np.take(fsim, lanes, axis=-1)
    cols = np.take(table, owner[lanes], axis=-1)
    geom = RhoGeometry(*cols)
    for iteration in itertools.count(1):
        # vertex order[k, l] of lane l is its k-th: flat indices into (vertex, lane)
        order = np.argsort(fsim, axis=0, kind="stable") * lanes.size + np.arange(lanes.size)
        sim, fsim = np.take(sim.reshape(3, -1), order, axis=1), np.take(fsim, order)
        size = np.abs((sim[:, 1:] - sim[:, :1]).reshape(9, -1)).max(axis=0)
        # the values are sorted, so the largest |f_k - f_0| is f_3 - f_0
        spread = fsim[3] - fsim[0]
        converged = (size <= cfg.tol) & (spread <= cfg.tol)
        done = converged | (iteration >= cfg.max_iterations)
        if done.any():
            best_x[lanes[done]], best_f[lanes[done]] = sim[:, 0, done].T, fsim[0, done]
            steps[lanes[done]] = iteration - 1
            capped[lanes[done]] = ~converged[done]
            live = ~done
            lanes, sim, fsim, cols = (np.compress(live, v, -1) for v in (lanes, sim, fsim, cols))
            geom = RhoGeometry(*cols)
        if not lanes.size:
            break

        xbar, worst = (sim[:, 0] + sim[:, 1] + sim[:, 2]) / 3.0, sim[:, 3]
        xr = (1.0 + REFLECT) * xbar - REFLECT * worst
        fxr = _neg_density(geom, xr)
        expand = fxr < fsim[0]
        accept = ~expand & (fxr < fsim[2])
        outside = ~expand & ~accept & (fxr < fsim[3])
        inside = ~(expand | accept | outside)
        # where the reflection alone does not decide, one more trial point
        # (1 + c) xbar - c worst: expansion, outside or inside contraction
        c = np.where(expand, REFLECT * EXPAND, np.where(outside, CONTRACT * REFLECT, -CONTRACT))
        trial = (1.0 + c) * xbar - c * worst
        f_trial = _neg_density(geom, trial)
        take_trial = (
            (expand & (f_trial < fxr))
            | (outside & (f_trial <= fxr))
            | (inside & (f_trial < fsim[3]))
        )
        keep = take_trial | accept | expand
        np.copyto(sim[:, 3], np.where(take_trial, trial, xr), where=keep)
        np.copyto(fsim[3], np.where(take_trial, f_trial, fxr), where=keep)
        if not keep.all():
            shrink = ~keep
            part = np.compress(shrink, sim, axis=-1)
            moved = part[:, :1] + SHRINK * (part[:, 1:] - part[:, :1])
            sim[:, 1:, shrink] = moved
            fsim[1:, shrink] = _neg_density(RhoGeometry(*np.compress(shrink, cols, axis=-1)), moved)
            shrinks[lanes[shrink]] += 1

    # a start evaluates its 4 vertices, an update 2 points, a shrink 3 more
    evaluations = 4 + 2 * steps + 3 * shrinks
    results = []
    for r, g in enumerate(geoms):
        mine = owner == r
        f = best_f[mine]
        finite = np.isfinite(f)
        if not finite.any():
            raise KissboundError(f"no start point produced a finite density at rho {g.rho!r}")
        best_value = -float(f.min())
        best_triple = min(map(tuple, np.sort(best_x[mine][f == -best_value], axis=1).tolist()))
        results.append(
            SweepResult(
                rho=g.rho,
                max_density=best_value,
                argmax=best_triple,
                objective=best_value * objective_factor(g.rho),
                failed_starts=int(np.count_nonzero(~finite)),
                iterations=int(steps[mine].max()),
                evaluations=int(evaluations[mine].sum()),
                capped=int(np.count_nonzero(capped[mine])),
            )
        )
    return results


def max_density(
    geom: RhoGeometry,
    cfg: SearchConfig | None = None,
    starts: list[tuple[float, float, float]] | None = None,
) -> SweepResult:
    """Best local maximum of D found by multistart Nelder-Mead.

    The one-ratio call of the lockstep loop that `sweep_rho` runs: a
    simplex per start (every point of the symmetry-reduced grid, or the
    given `starts`), advanced together until each converges within
    cfg.tol or cfg.max_iterations is reached.  The max over starts breaks
    ties toward the lexicographically smallest sorted triple, so start
    order does not matter.  Failed starts (infeasible, or ending
    non-finite) are skipped and counted.
    """
    cfg = cfg or SearchConfig()
    return _search([geom], cfg, None if starts is None else [starts])[0]


def pruning_objective(rho: float) -> float:
    """Objective at the equilateral point (alpha_zero^3), a lower bound.

    Used to exclude inflation ratios: where even this value reaches the
    pruning threshold, the true objective cannot be smaller.
    """
    # every ratio's lower bound reaches a threshold of -inf
    return _pruned_result(rho, -math.inf).objective


# pruning_interval scans rho over [lo, hi] and bisects each crossing to tol
_PRUNING_LO, _PRUNING_HI, _PRUNING_TOL = 1.001, 2.999, 1e-9


def pruning_interval(threshold: float = 14.0) -> tuple[float, float]:
    """Interval of rho where pruning_objective stays below the threshold.

    The objective blows up toward both ends of (1, 3) and dips below the
    threshold on one middle interval; both crossings are located by
    bisection to 1e-9.
    """
    lo, hi, tol = _PRUNING_LO, _PRUNING_HI, _PRUNING_TOL

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

# the most start points one ratio's search may hold, at about 1.2 KB each
MAX_STARTS = 10**6

# the most (ratio, start) lanes one sweep loop holds, so that a worker's
# memory does not grow with the sweep's length (a ratio with more starts
# runs alone, as in max_density)
MAX_LOOP_LANES = 16384

# the fewest lanes worth a process of their own: a loop's iteration costs
# mostly a fixed part per numpy call, which every extra loop pays again.
# Medians of 5-7 in-process sweeps on 2 cores (BENCH_sweep_fanout.json),
# wall time on one process against two: 880 lanes 0.50 against 0.62 s;
# 1,320 and 1,360 lanes tie (1.29/1.35 s, 0.76/0.80 s); from 1,760 lanes
# (1.70 against 1.43 s) up to 9,120 two processes win.
MIN_PROCESS_LANES = 768


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


def _pruned_result(rho: float, prune_threshold: float | None) -> SweepResult | None:
    """The pruned row of rho if its equilateral lower bound reaches the
    threshold, else None: rho has to be searched."""
    if prune_threshold is None:
        return None
    geom = rho_geometry(rho)
    a0 = geom.alpha_zero
    value = density(geom, a0, a0, a0).density
    lower_bound = value * objective_factor(rho)
    if lower_bound < prune_threshold:
        return None
    return SweepResult(
        rho=rho, max_density=value, argmax=(a0, a0, a0), objective=lower_bound, pruned=True
    )


def _sweep_loops(
    geoms: list[RhoGeometry], cfg: SearchConfig, workers: int
) -> tuple[list[list[RhoGeometry]], int]:
    """Split geoms into runs of consecutive ratios, one lockstep loop each,
    and count the processes to run them on.

    The processes are `workers`, but no more than give each at least
    MIN_PROCESS_LANES lanes and no more than ratios; 1 means in this
    process.  The run count is a multiple of the process count, or one run
    per ratio, and runs differ by at most one ratio.  A run holds at most
    MAX_LOOP_LANES starts, unless a single ratio has more and runs alone.
    """
    sizes = [_wedge_size(g, cfg.grid_step) for g in geoms]
    n = len(geoms)
    processes = max(1, min(workers, n, sum(sizes) // MIN_PROCESS_LANES))
    per_loop = max(1, MAX_LOOP_LANES // max(sizes, default=1))
    count = min(n, processes * -(-n // (processes * per_loop)))
    return [geoms[n * i // count : n * (i + 1) // count] for i in range(count)], processes


def _sweep(
    rho_lo: float,
    rho_hi: float,
    step: float,
    cfg: SearchConfig | None,
    prune_threshold: float | None,
    workers: int | None,
) -> tuple[list[SweepResult], int]:
    """sweep_rho's results, and the processes they were searched on."""
    if prune_threshold is not None and not math.isfinite(prune_threshold):
        raise DomainError(f"prune threshold must be finite, got {prune_threshold!r}")
    cfg = cfg or SearchConfig()
    grid = _rho_grid(rho_lo, rho_hi, step)
    results = [_pruned_result(rho, prune_threshold) for rho in grid]
    todo = [rho_geometry(rho) for rho, r in zip(grid, results) if r is None]
    loops, processes = _sweep_loops(todo, cfg, resolve_workers(workers))
    with ordered_map(functools.partial(_search, cfg=cfg), loops, processes) as searched:
        found = itertools.chain.from_iterable(searched)
        return [r if r is not None else next(found) for r in results], processes


def sweep_rho(
    rho_lo: float,
    rho_hi: float,
    step: float,
    cfg: SearchConfig | None = None,
    prune_threshold: float | None = None,
    workers: int | None = 1,
) -> list[SweepResult]:
    """Maximize D on a grid of inflation ratios.

    With prune_threshold set, ratios whose equilateral lower bound already
    reaches the threshold are skipped (marked pruned) instead of searched;
    without it the full interval is searched.  The ratios left are split
    into runs of consecutive ratios, as many for each process, and each
    run is searched in one lockstep loop, which pays its per-iteration
    cost once per run instead of once per ratio.  The processes are at
    most `workers` (None: KISSBOUND_THREADS, else all cores), but only as
    many as give each at least MIN_PROCESS_LANES starts: a shorter sweep
    runs in this process.  A run holds at most MAX_LOOP_LANES starts
    unless one ratio has more, which bounds a worker's memory on long
    sweeps; a ratio with more than MAX_STARTS starts raises DomainError.
    Lanes never mix, so results come back in grid order, are identical for
    any worker count, and each equals `max_density(rho_geometry(rho), cfg)`.
    """
    return _sweep(rho_lo, rho_hi, step, cfg, prune_threshold, workers)[0]


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
