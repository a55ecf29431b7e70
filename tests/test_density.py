import importlib
import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import kissbound
from kissbound import (
    DomainError,
    KissboundError,
    SearchConfig,
    density,
    max_density,
    objective_factor,
    pruning_interval,
    pruning_objective,
    rho_geometry,
    sweep_rho,
    sweep_to_csv,
)
from kissbound._kernels import density_vec
from kissbound.density import SWEEP_CSV_HEADER, _neg_density, _sort3, _wedge_grid

import mp_oracle

# the package exports the function `density` under the module's name
density_module = importlib.import_module("kissbound.density")

SQRT3 = math.sqrt(3.0)

# frozen from an independent 50-digit evaluation of the density formula
EQUILATERAL_DENSITY_1_755 = 0.9044281169171080631192492
EQUILATERAL_OBJECTIVE_1_755 = 13.50905158277209203031385
SIMPLEX_PI6_DENSITY = 0.8974511108119744974597311

REPORTED_OPTIMUM = 13.908778


def search_counts(result):
    """The fields of a SweepResult that `==` leaves out."""
    return result.failed_starts, result.iterations, result.evaluations


class TestDensity:
    def test_equilateral_golden_value(self):
        g = rho_geometry(1.755)
        a0 = g.alpha_zero
        result = density(g, a0, a0, a0)
        assert abs(result.density - EQUILATERAL_DENSITY_1_755) < 1e-12
        objective = result.density * objective_factor(1.755)
        assert abs(objective - EQUILATERAL_OBJECTIVE_1_755) < 1e-11

    def test_equilateral_golden_value_high_precision_oracle(self):
        rho = mp_oracle.mp.mpf("1.755")
        a0 = mp_oracle.alpha_zero(rho)
        oracle = mp_oracle.density(rho, a0, a0, a0)
        assert abs(float(oracle) - EQUILATERAL_DENSITY_1_755) < 1e-15

        g = rho_geometry(1.755)
        value = density(g, g.alpha_zero, g.alpha_zero, g.alpha_zero).density
        assert abs(value - float(oracle)) < 1e-12

    def test_permutation_invariance(self, rng):
        g = rho_geometry(1.755)
        for _ in range(200):
            x, y, z = rng.uniform(g.alpha_min, g.alpha_max, size=3)
            base = density(g, x, y, z).density
            for triple in ((y, z, x), (z, x, y), (y, x, z), (x, z, y), (z, y, x)):
                assert abs(density(g, *triple).density - base) <= 1e-15 * max(1.0, base)

    def test_simplex_configuration_value(self):
        # pi/6 caps at rho = sqrt(3) sit above alpha_zero, so K is the plain
        # cap area and D reduces to the classical three-cap triangle density
        g = rho_geometry(SQRT3)
        assert g.alpha_zero < math.pi / 6.0
        value = density(g, math.pi / 6.0, math.pi / 6.0, math.pi / 6.0).density
        angle = math.acos(1.0 / 3.0)
        closed_form = 3.0 * (1.0 - SQRT3 / 2.0) * angle / (3.0 * angle - math.pi)
        assert value == pytest.approx(closed_form, abs=1e-14)
        assert value == pytest.approx(SIMPLEX_PI6_DENSITY, abs=1e-12)

    def test_simplex_configuration_monte_carlo(self, rng):
        # brute-force spherical integration: fraction of the triangle
        # covered by the three vertex caps
        radius = math.pi / 6.0
        cos_theta = math.sqrt(2.0 / 3.0)
        sin_theta = math.sqrt(1.0 / 3.0)
        verts = np.array(
            [
                [sin_theta * math.cos(p), sin_theta * math.sin(p), cos_theta]
                for p in (0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0)
            ]
        )
        normals = np.array(
            [np.cross(verts[i], verts[(i + 1) % 3]) for i in range(3)]
        )
        # orient inward
        centroid = verts.mean(axis=0)
        normals *= np.sign(normals @ centroid)[:, None]
        cos_cap = math.cos(radius)
        in_triangle = 0
        in_caps = 0
        for _ in range(10):
            p = rng.normal(size=(2_000_000, 3))
            p /= np.linalg.norm(p, axis=1, keepdims=True)
            inside = np.all(p @ normals.T >= 0.0, axis=1)
            covered = inside & np.any(p @ verts.T >= cos_cap, axis=1)
            in_triangle += int(np.sum(inside))
            in_caps += int(np.sum(covered))
        estimate = in_caps / in_triangle
        se = math.sqrt(estimate * (1.0 - estimate) / in_triangle)
        assert abs(estimate - SIMPLEX_PI6_DENSITY) <= 3.0 * se

    def test_vector_kernel_matches_scalar(self, rng):
        # density() evaluates the sorted triple on the kernel
        g = rho_geometry(1.755)
        x, y, z = np.sort(rng.uniform(g.alpha_min, g.alpha_max, size=(3, 500)), axis=0)
        vec = density_vec(g, x, y, z)
        for i in range(0, 500, 17):
            assert vec[i] == density(g, x[i], y[i], z[i]).density

    def test_domain(self):
        g = rho_geometry(1.755)
        with pytest.raises(DomainError):
            density(g, g.alpha_min - 0.01, g.alpha_zero, g.alpha_zero)


class TestMaxDensity:
    def test_reproduces_reported_optimum(self):
        result = max_density(rho_geometry(1.755))
        assert abs(result.objective - REPORTED_OPTIMUM) < 1e-3
        assert result.max_density <= 1.02
        assert result.objective >= 12.0
        assert result.failed_starts == 0
        x, y, z = result.argmax
        assert x <= y <= z

    def test_max_density_matches_dataclass_path(self):
        g = rho_geometry(1.755)
        result = max_density(g, SearchConfig(grid_step=0.1))
        assert result.max_density == density(g, *result.argmax).density

    @pytest.mark.parametrize("max_iterations, atol", [(40, 1e-12), (2000, 1e-6)])
    def test_each_lane_matches_scalar_nelder_mead(self, rng, max_iterations, atol):
        # the per-start scipy search this loop replaced, on the same objective:
        # mid-search the simplices agree; a converged search may end a few ulps
        # apart where tied vertex values sort in another order
        from scipy.optimize import minimize

        g = rho_geometry(1.755)
        cfg = SearchConfig(max_iterations=max_iterations)
        options = dict(xatol=cfg.tol, fatol=cfg.tol, maxiter=cfg.max_iterations)
        # corner starts put simplex vertices outside the cube, on the penalty
        corners = [(g.alpha_max,) * 3, (g.alpha_min, g.alpha_zero, g.alpha_max)]
        for start in [*rng.uniform(g.alpha_min, g.alpha_max, size=(10, 3)), *corners]:
            reference = minimize(
                lambda v: float(_neg_density(g, v)), start, method="Nelder-Mead", options=options
            )
            result = max_density(g, cfg, starts=[tuple(start)])
            assert result.failed_starts == 0
            assert result.max_density == pytest.approx(-reference.fun, rel=1e-14)
            assert np.allclose(result.argmax, np.sort(reference.x), rtol=0.0, atol=atol)

    def test_infeasible_start_counted_and_skipped(self):
        g = rho_geometry(1.755)
        cfg = SearchConfig(grid_step=0.15)
        starts = _wedge_grid(g, cfg.grid_step)
        reference = max_density(g, cfg, starts=starts)
        outside = (g.alpha_min, g.alpha_zero, g.alpha_max + 0.1)
        result = max_density(g, cfg, starts=starts + [outside])
        assert reference.failed_starts == 0
        assert result.failed_starts == 1
        assert result.max_density == reference.max_density
        assert result.argmax == reference.argmax

    def test_no_finite_start_raises(self):
        g = rho_geometry(1.755)
        with pytest.raises(KissboundError):
            max_density(g, starts=[(g.alpha_max + 0.1,) * 3])

    @pytest.mark.parametrize(
        "field, value",
        [
            ("grid_step", math.nan),
            ("grid_step", 0.0),
            ("grid_step", math.inf),
            ("tol", math.nan),
            ("tol", -1e-10),
            ("tol", math.inf),
            ("max_iterations", 0),
            ("max_iterations", -1),
            # with tol 0 a lane may never converge, so an uncapped loop never ends
            ("max_iterations", math.inf),
            ("max_iterations", math.nan),
            ("max_iterations", 2.5),
            ("max_iterations", 2000.0),
            ("max_iterations", True),
            ("max_iterations", "2000"),
        ],
    )
    def test_config_rejects_invalid_settings(self, field, value):
        with pytest.raises(DomainError):
            SearchConfig(**{field: value})

    def test_config_accepts_numpy_integer_iterations(self):
        g = rho_geometry(1.755)
        cfg = SearchConfig(max_iterations=np.int64(5))
        reference = max_density(g, SearchConfig(max_iterations=5), [(0.3,) * 3])
        assert max_density(g, cfg, [(0.3,) * 3]) == reference

    def test_grid_robustness(self):
        g = rho_geometry(1.755)
        coarse = max_density(g, SearchConfig(grid_step=0.1))
        fine = max_density(g, SearchConfig(grid_step=0.02))
        assert abs(coarse.max_density - fine.max_density) < 1e-6

    def test_start_order_independence(self, rng):
        g = rho_geometry(1.755)
        cfg = SearchConfig(grid_step=0.1)
        starts = _wedge_grid(g, cfg.grid_step)
        reference = max_density(g, cfg, starts=starts)
        shuffled = list(starts)
        rng.shuffle(shuffled)
        other = max_density(g, cfg, starts=shuffled)
        assert other.max_density == reference.max_density
        assert np.allclose(other.argmax, reference.argmax, atol=1e-6)

    def test_no_missed_maxima_spot_check(self, rng):
        g = rho_geometry(1.755)
        result = max_density(g, SearchConfig(grid_step=0.1))
        x, y, z = rng.uniform(g.alpha_min, g.alpha_max, size=(3, 100_000))
        values = density_vec(g, x, y, z)
        assert np.nanmax(values) <= result.max_density + 1e-9

    def test_search_counts_match_objective_calls(self, monkeypatch):
        evaluated = []

        def counting(geom, points):
            evaluated.append(points.size // 3)
            return _neg_density(geom, points)

        monkeypatch.setattr(density_module, "_neg_density", counting)
        cfg = SearchConfig(grid_step=0.15)
        result = max_density(rho_geometry(1.755), cfg)
        assert result.evaluations == sum(evaluated)
        assert 0 < result.iterations < cfg.max_iterations
        # a capped lane stops at its last pass: max_iterations - 1 updates
        capped = max_density(rho_geometry(1.755), SearchConfig(max_iterations=5), [(0.3,) * 3])
        assert capped.iterations == 4

    def test_area_bound_reduction(self):
        # with the density maximum replaced by 1 the objective collapses
        # to the plain area bound: 8 sqrt(3) / (4 sqrt(3) - 6) = 8 + 4 sqrt(3)
        assert objective_factor(SQRT3) == pytest.approx(8.0 + 4.0 * SQRT3, rel=1e-9)


class TestSweep:
    def test_argmin_near_interval_center(self):
        results = sweep_rho(1.74, 1.77, 0.005, SearchConfig(grid_step=0.1))
        assert len(results) == 7
        best = min(results, key=lambda r: r.objective)
        assert best.rho == pytest.approx(1.755, abs=0.005)
        assert abs(best.objective - REPORTED_OPTIMUM) < 1e-3

    def test_degenerate_interval(self):
        results = sweep_rho(1.755, 1.755, 0.01, SearchConfig(grid_step=0.1))
        assert len(results) == 1
        assert results[0].rho == 1.755

    def test_worker_independence(self, monkeypatch):
        # 5 ratios: 2 and 3 workers split them into uneven groups; the
        # iteration cap keeps it quick and stops some lanes unconverged
        monkeypatch.setattr(density_module, "MIN_PROCESS_LANES", 1)
        cfg = SearchConfig(grid_step=0.15, max_iterations=400)
        runs = [sweep_rho(1.74, 1.78, 0.01, cfg, workers=w) for w in (1, 2, 3)]
        assert len(runs[0]) == 5
        for other in runs[1:]:
            assert other == runs[0]
            assert [search_counts(r) for r in other] == [search_counts(r) for r in runs[0]]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "lo, hi, step, threshold", [(1.74, 1.78, 0.01, None), (1.45, 1.65, 0.05, 14.0)]
    )
    def test_each_ratio_equals_standalone_search(
        self, monkeypatch, lo, hi, step, threshold, workers
    ):
        # searching a ratio beside others in one loop changes none of its bits
        monkeypatch.setattr(density_module, "MIN_PROCESS_LANES", 1)
        cfg = SearchConfig(grid_step=0.15, max_iterations=400)
        results = sweep_rho(lo, hi, step, cfg, prune_threshold=threshold, workers=workers)
        searched = [r for r in results if not r.pruned]
        if threshold is not None:
            assert 1 < len(searched) < len(results) - 1
        for r in searched:
            alone = max_density(rho_geometry(r.rho), cfg)
            assert r == alone
            assert search_counts(r) == search_counts(alone)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("cap", [1, 2, 3])
    def test_sweep_loops_bound_lanes_and_balance(self, monkeypatch, workers, cap):
        cfg = SearchConfig(grid_step=0.15)
        geoms = [rho_geometry(1.70 + 0.01 * i) for i in range(11)]
        sizes = [len(_wedge_grid(g, cfg.grid_step)) for g in geoms]
        # room for `cap` of the widest ratios; cap 1 leaves one ratio per loop
        monkeypatch.setattr(density_module, "MAX_LOOP_LANES", cap * max(sizes) + 1)
        # the lanes a process needs: 1, a third and a half of the sweep's, and more than all
        for share in (1, sum(sizes) // 3, sum(sizes) // 2, sum(sizes) + 1):
            monkeypatch.setattr(density_module, "MIN_PROCESS_LANES", share)
            loops, processes = density_module._sweep_loops(geoms, cfg, workers)
            assert processes == min(workers, max(1, sum(sizes) // share))
            assert [g for loop in loops for g in loop] == geoms
            assert len(loops) % processes == 0 or len(loops) == len(geoms)
            assert max(map(len, loops)) - min(map(len, loops)) <= 1
            for loop in loops:
                lanes = sum(sizes[geoms.index(g)] for g in loop)
                assert lanes <= density_module.MAX_LOOP_LANES
                assert lanes == sum(density_module._wedge_size(g, cfg.grid_step) for g in loop)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_long_sweep_runs_in_bounded_loops(self, monkeypatch, workers):
        # with room for two ratios per loop, a 7-ratio sweep runs in 4
        # loops, and every ratio still equals its standalone search
        cfg = SearchConfig(grid_step=0.15, max_iterations=400)
        widest = max(len(_wedge_grid(rho_geometry(1.74 + 0.005 * i), 0.15)) for i in range(7))
        monkeypatch.setattr(density_module, "MAX_LOOP_LANES", 2 * widest)
        monkeypatch.setattr(density_module, "MIN_PROCESS_LANES", 1)
        searched = []
        search = density_module._search

        def recording(geoms, cfg, starts=None):
            searched.append([g.rho for g in geoms])
            return search(geoms, cfg, starts)

        if workers == 1:
            # pool workers would record in their own copies of the list
            monkeypatch.setattr(density_module, "_search", recording)
        results = sweep_rho(1.74, 1.77, 0.005, cfg, workers=workers)
        assert len(results) == 7
        if workers == 1:
            assert [len(loop) for loop in searched] == [1, 2, 2, 2]
        for r in results:
            alone = max_density(rho_geometry(r.rho), cfg)
            assert r == alone
            assert search_counts(r) == search_counts(alone)

    def test_pruning_marks_excluded_ratios(self):
        results = sweep_rho(1.50, 1.60, 0.05, SearchConfig(grid_step=0.1), prune_threshold=14.0)
        by_rho = {round(r.rho, 3): r for r in results}
        assert by_rho[1.50].pruned
        assert by_rho[1.55].pruned
        assert not by_rho[1.60].pruned
        assert by_rho[1.50].objective >= 14.0
        for r in results:
            if r.pruned:
                assert r.objective == pruning_objective(r.rho)

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
    def test_non_finite_prune_threshold_rejected(self, threshold):
        with pytest.raises(DomainError):
            sweep_rho(1.755, 1.755, 0.01, SearchConfig(grid_step=0.15), prune_threshold=threshold)

    def test_objective_continuity(self):
        cfg = SearchConfig(grid_step=0.1)
        for rho in (1.60, 1.755, 1.90):
            a = max_density(rho_geometry(rho), cfg).objective
            b = max_density(rho_geometry(rho + 1e-4), cfg).objective
            assert abs(a - b) < 0.01

    def test_empty_grid(self):
        with pytest.raises(DomainError):
            sweep_rho(1.8, 1.7, 0.01)
        with pytest.raises(DomainError):
            sweep_rho(1.7, 1.8, -0.01)
        with pytest.raises(DomainError):
            sweep_rho(1.7, 1.8, math.nan)
        with pytest.raises(DomainError, match="finite"):
            sweep_rho(1.7, 1.8, math.inf)

    @pytest.mark.parametrize("step", [1e-300, 5e-324])
    def test_oversized_grid_rejected_before_building(self, step):
        # a list of ~1e299 ratios could never be built: the count is checked first
        with pytest.raises(DomainError, match="ratios"):
            sweep_rho(1.7, 1.8, step)

    def test_grid_size_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(density_module, "MAX_RHO_RATIOS", 3)
        assert len(density_module._rho_grid(1.7, 1.8, 0.05)) == 3
        with pytest.raises(DomainError, match="ratios"):
            density_module._rho_grid(1.7, 1.8, 0.025)

    @pytest.mark.parametrize("grid_step", [5e-324, 1e-6])
    def test_oversized_start_grid_rejected_before_building(self, grid_step):
        # 5e-324 makes width / step infinite; 1e-6 gives ~9.4e16 start triples
        cfg = SearchConfig(grid_step=grid_step)
        with pytest.raises(DomainError, match="start points"):
            max_density(rho_geometry(1.75), cfg)
        with pytest.raises(DomainError, match="start points"):
            sweep_rho(1.75, 1.76, 0.01, cfg, workers=2)

    @pytest.mark.parametrize("workers", [1.5, True])
    def test_worker_count_must_be_an_integer(self, workers):
        with pytest.raises(DomainError, match="worker count"):
            sweep_rho(1.75, 1.76, 0.005, SearchConfig(grid_step=0.2), workers=workers)

    def test_start_limit_is_inclusive(self, monkeypatch):
        geom = rho_geometry(1.755)
        starts = len(_wedge_grid(geom, 0.1))
        monkeypatch.setattr(density_module, "MAX_STARTS", starts)
        assert density_module._wedge_size(geom, 0.1) == starts
        monkeypatch.setattr(density_module, "MAX_STARTS", starts - 1)
        with pytest.raises(DomainError, match="start points"):
            _wedge_grid(geom, 0.1)


class TestPruning:
    def test_predicate_values_bracket_threshold(self):
        # the below-14 region is [1.5625..., 1.9279...]; the rounded
        # interval [1.562, 1.928] brackets it from outside on the left
        assert pruning_objective(1.561) >= 14.0
        assert pruning_objective(1.929) >= 14.0
        assert pruning_objective(1.60) < 14.0
        assert pruning_objective(1.755) < 14.0
        assert pruning_objective(1.90) < 14.0

    def test_bisection_crossings(self):
        lo, hi = pruning_interval(14.0)
        assert 1.562 < lo < 1.563
        assert 1.927 < hi < 1.928
        for crossing in (lo, hi):
            assert pruning_objective(crossing - 1e-4 if crossing == lo else crossing + 1e-4) >= 14.0
            assert pruning_objective(crossing + 1e-4 if crossing == lo else crossing - 1e-4) < 14.0


# max_density at grid step 0.15 as the search gave it on lane-major (S, 4, 3)
# simplices, before its iterations were made cheaper: (case, max_density,
# argmax, objective, iterations, evaluations, failed_starts), floats as hex
PINNED_SEARCHES = [
    (
        "rho 1.3",
        "0x1.ebd47788267bcp-1",
        ("0x1.d3f46a79da6afp-5", "0x1.62e5dafbd9f3cp-1", "0x1.62e5dafbe18bcp-1"),
        "0x1.396bc9a99603cp+4",
        568, 32685, 0,
    ),
    (
        "rho 1.755",
        "0x1.dcc4e60d99695p-1",
        ("0x1.0d665e3becc04p-2", "0x1.0d665f032b70ep-2", "0x1.edd74aba492b7p-1"),
        "0x1.bd14b5ac29695p+3",
        679, 51216, 0,
    ),
    (
        "rho 2.5",
        "0x1.ceef1c19dbd31p-1",
        ("0x1.013a430d970bfp-1", "0x1.013a431473d40p-1", "0x1.28c68a40a5e63p+0"),
        "0x1.81c742158c854p+4",
        600, 47844, 4,
    ),
    (
        "infeasible start",
        "0x1.dcc4e60d99695p-1",
        ("0x1.0d665e3becc04p-2", "0x1.0d665f032b70ep-2", "0x1.edd74aba492b7p-1"),
        "0x1.bd14b5ac29695p+3",
        679, 51220, 1,
    ),
]
# sweep_rho(1.745, 1.76, 0.005) at grid step 0.15 with max_iterations 400,
# where every ratio has lanes stopped by the cap, pinned the same way
PINNED_CAPPED_SWEEP = [
    (
        "capped rho 1.745",
        "0x1.dd008d9359ea7p-1",
        ("0x1.098630c2def5ap-2", "0x1.098631435fdd7p-2", "0x1.ebcdc29091464p-1"),
        "0x1.bd20feffb159ap+3",
        399, 50606, 0,
    ),
    (
        "capped rho 1.75",
        "0x1.dce2a6e40ee54p-1",
        ("0x1.0b76acba639a5p-2", "0x1.0b76ad756c9d6p-2", "0x1.ecd3739dcf613p-1"),
        "0x1.bd17cef6fcd60p+3",
        399, 49239, 0,
    ),
    (
        "capped rho 1.755",
        "0x1.dcc4e60d99693p-1",
        ("0x1.0d665f7ff27e6p-2", "0x1.0d665fdf8eea9p-2", "0x1.edd74aba49298p-1"),
        "0x1.bd14b5ac29694p+3",
        399, 48400, 0,
    ),
    (
        "capped rho 1.76",
        "0x1.dca74a826016ap-1",
        ("0x1.0f5542f7e641ep-2", "0x1.0f5543947292ap-2", "0x1.eed94d5b23d80p-1"),
        "0x1.bd17a67fd3dbbp+3",
        399, 48488, 0,
    ),
]


def pinned_form(case, result):
    """A SweepResult in the form of PINNED_SEARCHES rows."""
    return (
        case,
        result.max_density.hex(),
        tuple(v.hex() for v in result.argmax),
        result.objective.hex(),
        result.iterations,
        result.evaluations,
        result.failed_starts,
    )


class TestSearchBits:
    """The lockstep loop gives every bit and count it gave before it was
    made leaner; equality only, never a tolerance."""

    @pytest.mark.parametrize("pinned", PINNED_SEARCHES, ids=[p[0] for p in PINNED_SEARCHES])
    def test_max_density_keeps_its_bits(self, pinned):
        case = pinned[0]
        g = rho_geometry(1.755 if case == "infeasible start" else float(case.split()[1]))
        cfg = SearchConfig(grid_step=0.15)
        starts = None
        if case == "infeasible start":
            outside = (g.alpha_min, g.alpha_zero, g.alpha_max + 0.1)
            starts = _wedge_grid(g, cfg.grid_step) + [outside]
        assert pinned_form(case, max_density(g, cfg, starts)) == pinned

    def test_capped_sweep_keeps_its_bits(self):
        cfg = SearchConfig(grid_step=0.15, max_iterations=400)
        results = sweep_rho(1.745, 1.76, 0.005, cfg, workers=1)
        got = [pinned_form(f"capped rho {r.rho:.12g}", r) for r in results]
        assert got == PINNED_CAPPED_SWEEP

    def test_coordinate_sort_gives_np_sort_bits(self, rng):
        g = rho_geometry(1.755)
        values = [g.alpha_min, g.alpha_zero, g.alpha_max, 0.3, -0.5, 2.0, math.inf, -math.inf]
        triples = list(itertools.product(values, repeat=3))  # permutations and ties
        triples += list(rng.uniform(-1.0, 2.0, size=(200, 3)))
        points = np.array(triples).T
        expected = np.sort(points, axis=0)
        sorted_rows = np.array(_sort3(*points))
        assert sorted_rows.tobytes() == expected.tobytes()
        # a scalar point, and the shrink's (3, 3, N) coordinate-first shape
        for point in np.array(triples[:40]):
            assert np.array(_sort3(*point)).tobytes() == np.sort(point).tobytes()
        shrink = rng.uniform(0.0, 1.0, size=(3, 3, 50))
        assert np.array(_sort3(*shrink)).tobytes() == np.sort(shrink, axis=0).tobytes()

    def test_objective_matches_np_sort_objective(self, rng):
        # the objective of the sort it replaced, NaN and signed zeros
        # included: those points sort differently but are outside I_rho^3
        def reference(geom, points):
            coords = np.moveaxis(points, 0, -1)
            inside = ((points >= geom.alpha_min) & (points <= geom.alpha_max)).all(axis=0)
            value = -density_vec(geom, *np.moveaxis(np.sort(coords, axis=-1), -1, 0))
            return np.where(inside & ~np.isnan(value), value, np.inf)

        g = rho_geometry(1.755)
        values = [g.alpha_min, g.alpha_max, 0.3, 0.0, -0.0, math.nan, math.inf, 2.0]
        points = np.array(list(itertools.product(values, repeat=3))).T
        # the search never evaluates such points; here their sides are inf - inf
        with np.errstate(invalid="ignore"):
            assert _neg_density(g, points).tobytes() == reference(g, points).tobytes()
            for point in points.T[::17]:
                assert _neg_density(g, point).tobytes() == reference(g, point).tobytes()
        inside = rng.uniform(g.alpha_min, g.alpha_max, size=(3, 4, 100))
        assert _neg_density(g, inside).tobytes() == reference(g, inside).tobytes()
        assert np.isnan(_sort3(math.nan, 0.3, 0.4)[2]) and np.isnan(_sort3(0.3, 0.4, math.nan)[2])


class TestCsv:
    def test_header_and_digits(self):
        results = sweep_rho(1.755, 1.755, 0.01, SearchConfig(grid_step=0.15))
        text = sweep_to_csv(results)
        lines = text.strip().split("\n")
        assert lines[0] == SWEEP_CSV_HEADER
        fields = lines[1].split(",")
        assert len(fields) == 6
        assert float(fields[0]) == 1.755
        # 12 significant digits round-trip the objective to ~1e-11
        assert float(fields[5]) == pytest.approx(results[0].objective, rel=1e-11)

    def test_pruned_column(self):
        results = sweep_rho(1.50, 1.50, 0.01, SearchConfig(grid_step=0.15), prune_threshold=14.0)
        text = sweep_to_csv(results, include_pruned=True)
        lines = text.strip().split("\n")
        assert lines[0].endswith(",pruned")
        assert lines[1].endswith(",true")


def test_import_does_not_load_scipy():
    # scipy and mpmath are test dependencies only; importing the package
    # must not pay for them
    src = os.path.dirname(os.path.dirname(os.path.abspath(kissbound.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = "import sys, kissbound; print('scipy' in sys.modules, 'mpmath' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "False"]
