import json
import math
import os

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from kissbound import (
    Box,
    SearchConfig,
    Certificate,
    CertificateError,
    DomainError,
    box_angle_upper,
    box_density_upper,
    certify,
    emit_certificate,
    max_density,
    objective_factor,
    parse_certificate,
    rho_geometry,
    triangle_angles,
)
from kissbound._kernels import (
    K_vec,
    box_density_upper_vec,
    density_vec,
    triangle_args_vec,
    triangle_excess_vec,
    triangle_angles_vec,
)
from kissbound import _kernels
from kissbound import certifier as certifier_module
from kissbound.certifier import _Checkpoint, _GridScan, _emit, _parse

import mp_oracle

RHO = 1.755
GEOM = rho_geometry(RHO)


def random_boxes(rng, count, max_delta=0.02):
    width = GEOM.interval_width
    delta = rng.uniform(1e-5, max_delta, size=count)
    a = GEOM.alpha_min + rng.uniform(0.0, 1.0, size=count) * (width - delta)
    b = GEOM.alpha_min + rng.uniform(0.0, 1.0, size=count) * (width - delta)
    c = GEOM.alpha_min + rng.uniform(0.0, 1.0, size=count) * (width - delta)
    return a, b, c, delta


class TestBoxAngleUpper:
    def test_symmetric_box_contains_center(self):
        # in the 2x+y+z <= pi regime the angle decreases in its own axis:
        # the selected corner dominates both the all-high corner and every
        # interior value
        box = Box(a=0.3, b=0.3, c=0.3, delta=0.01)
        center = triangle_angles(0.305, 0.305, 0.305).angle_x
        bound = box_angle_upper(GEOM, box, "x")
        assert bound >= center
        from kissbound._kernels import angle_upper_at

        low = float(angle_upper_at(np.float64(0.3), np.float64(0.31), np.float64(0.31)))
        high = float(angle_upper_at(np.float64(0.31), np.float64(0.31), np.float64(0.31)))
        assert low >= high >= center
        assert bound == low

    def test_contains_interior_angles_near_argmax(self, rng):
        # box at the density argmax corner of the delta = 0.0005 grid
        delta = 0.0005
        box = Box(a=0.2628, b=0.2628, c=GEOM.alpha_max - delta, delta=delta)
        bounds = {axis: box_angle_upper(GEOM, box, axis) for axis in "xyz"}
        for _ in range(1000):
            x = rng.uniform(box.a, box.a + delta)
            y = rng.uniform(box.b, box.b + delta)
            z = rng.uniform(box.c, min(box.c + delta, GEOM.alpha_max))
            t = triangle_angles(x, y, z)
            assert bounds["x"] >= t.angle_x
            assert bounds["y"] >= t.angle_y
            assert bounds["z"] >= t.angle_z

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_pointwise_convergence(self, axis):
        corner = (0.4, 0.5, 0.6)
        exact = {
            "x": triangle_angles(*corner).angle_x,
            "y": triangle_angles(*corner).angle_y,
            "z": triangle_angles(*corner).angle_z,
        }[axis]
        diffs = []
        for delta in (0.01, 0.001, 0.0001):
            bound = box_angle_upper(GEOM, Box(*corner, delta=delta), axis)
            assert bound >= exact - 1e-13
            diffs.append(bound - exact)
        assert diffs[0] > diffs[1] > diffs[2]
        assert diffs[2] <= 5.0 * 0.0001

    def test_bad_axis(self):
        with pytest.raises(DomainError):
            box_angle_upper(GEOM, Box(0.3, 0.3, 0.3, 0.01), "w")

    def test_box_outside_domain(self):
        with pytest.raises(DomainError):
            box_angle_upper(GEOM, Box(0.01, 0.3, 0.3, 0.01), "x")

    @pytest.mark.parametrize("rho", [1.001, 1.05, 1.3, 1.755, 1.95, 2.0, 2.5, 2.9])
    def test_scan_arguments_stay_below_one(self, monkeypatch, rho):
        # every law-of-cosines argument of these scans stays below 1, so
        # _angle_upper's guard, which rounding trips below rho = 1 + 5e-6,
        # is not what bounds them; rho 1.001's grid takes 400 steps
        largest = []
        angle_arg = _kernels._angle_arg

        def recorded(*args, out=None):
            arg = angle_arg(*args, out=out)
            largest.append(np.max(arg, initial=-np.inf))
            return arg

        monkeypatch.setattr(_kernels, "_angle_arg", recorded)
        delta = rho_geometry(rho).interval_width / 400 if rho < 1.01 else 0.004
        certify(rho, delta, 1e9, workers=1)
        assert largest and all(value < 1.0 for value in largest)

    @pytest.mark.parametrize(
        "box",
        [
            Box(
                2.447194218417494e-04,
                3.4114029062308395e-08,
                2.436816898684815e-11,
                1.2738784573774427e-10,
            ),
            Box(
                2.448809625627691e-04,
                1.8013426081420334e-09,
                1.1530313415128685e-09,
                2.4552976181909917e-09,
            ),
        ],
    )
    def test_rounded_argument_past_guard_gives_pi(self, box):
        # at rho = 1 + 3e-8 the sides are tiny and the law of cosines rounds
        # this corner's argument past 1 + ANGLE_GUARD, though its true angle
        # is positive: the bound must be pi, not the clip's arccos(1) = 0
        geom = rho_geometry(1.0 + 3e-8)
        corner = [np.float64(v) for v in (box.a, box.b + box.delta, box.c + box.delta)]
        assert triangle_args_vec(*corner)[0] > 1.0 + _kernels.ANGLE_GUARD
        assert mp_oracle.vertex_angle(*corner) > 0.0
        assert box_angle_upper(geom, box, "x") == math.pi

    @pytest.mark.parametrize("side", [math.nan, 0.0, -0.01])
    def test_side_not_positive_rejected(self, side):
        box = Box(0.3, 0.3, 0.3, side)
        with pytest.raises(DomainError, match="side"):
            box_angle_upper(GEOM, box, "x")
        with pytest.raises(DomainError, match="side"):
            box_density_upper(GEOM, box)


class TestBoxDensityUpper:
    def test_bounds_center_and_corners(self, rng):
        from kissbound import density

        for _ in range(200):
            delta = float(rng.uniform(1e-4, 0.02))
            lo = GEOM.alpha_min
            hi = GEOM.alpha_max - delta
            a, b, c = (float(v) for v in rng.uniform(lo, hi, size=3))
            bound = box_density_upper(GEOM, Box(a, b, c, delta))
            for dx in (0.0, 0.5, 1.0):
                for dy in (0.0, 0.5, 1.0):
                    for dz in (0.0, 0.5, 1.0):
                        value = density(
                            GEOM, a + dx * delta, b + dy * delta, c + dz * delta
                        ).density
                        assert bound >= value

    def test_pointwise_convergence(self):
        from kissbound import density

        a, b, c = 0.3, 0.45, 0.7
        exact = density(GEOM, a, b, c).density
        bound = box_density_upper(GEOM, Box(a, b, c, 1e-8))
        assert bound >= exact
        assert bound - exact < 1e-6

    def test_soundness_sampling(self, rng):
        a, b, c, delta = random_boxes(rng, 100_000)
        bounds = box_density_upper_vec(
            GEOM, a, b, c, a + delta, b + delta, c + delta
        )
        for _ in range(10):
            px = a + rng.uniform(0.0, 1.0, size=a.size) * delta
            py = b + rng.uniform(0.0, 1.0, size=a.size) * delta
            pz = c + rng.uniform(0.0, 1.0, size=a.size) * delta
            values = density_vec(GEOM, px, py, pz)
            assert np.all(np.isfinite(values))
            assert np.all(bounds >= values)

    def test_grid_path_matches_general_path(self, rng):
        scan = _GridScan(GEOM, 0.01)
        n = scan.n
        i = np.asarray(rng.integers(0, n, size=2000), dtype=np.int64)
        j = np.asarray(rng.integers(0, n, size=2000), dtype=np.int64)
        j = np.maximum(i, j)
        k = np.asarray(rng.integers(0, n, size=2000), dtype=np.int64)
        k = np.maximum(j, k)
        g = scan.g
        general = box_density_upper_vec(
            GEOM, g[i], g[j], g[k], g[i + 1], g[j + 1], g[k + 1]
        )
        # one kernel serves both paths: table lookups change no bit
        assert np.array_equal(scan._batch_bounds(i, j, k), general)


class TestMonotonicityClaims:
    """Randomized finite-difference checks of the corner-rule hypotheses."""

    def test_area_increasing_in_each_variable(self, rng):
        count = 100_000
        h = 1e-6
        x, y, z = (
            rng.uniform(GEOM.alpha_min, GEOM.alpha_max - h, size=(3, count))
        )
        base = triangle_excess_vec(x, y, z)
        assert np.all(triangle_excess_vec(x + h, y, z) >= base)
        assert np.all(triangle_excess_vec(x, y + h, z) >= base)
        assert np.all(triangle_excess_vec(x, y, z + h) >= base)

    def test_K_nondecreasing(self, rng):
        alpha = rng.uniform(GEOM.alpha_min, GEOM.alpha_max - 1e-6, size=100_000)
        assert np.all(K_vec(GEOM, alpha + 1e-6) >= K_vec(GEOM, alpha) - 1e-15)

    def test_angle_monotonicity_below_pi(self, rng):
        # claims behind the single-corner rule, on 2x+y+z <= pi - 4 delta
        count = 100_000
        h = 1e-6
        margin = 0.02
        x = rng.uniform(GEOM.alpha_min, GEOM.alpha_max - h, size=count)
        y = rng.uniform(GEOM.alpha_min, GEOM.alpha_max - h, size=count)
        z = rng.uniform(GEOM.alpha_min, GEOM.alpha_max - h, size=count)
        keep = 2.0 * x + y + z <= math.pi - margin
        x, y, z = x[keep], y[keep], z[keep]
        (ax, _, _), _ = triangle_angles_vec(x, y, z)
        (ax_dx, _, _), _ = triangle_angles_vec(x + h, y, z)
        (ax_dy, _, _), _ = triangle_angles_vec(x, y + h, z)
        (ax_dz, _, _), _ = triangle_angles_vec(x, y, z + h)
        tol = 1e-12
        assert np.all(ax_dx <= ax + tol)
        assert np.all(ax_dy >= ax - tol)
        assert np.all(ax_dz >= ax - tol)

    def test_angle_monotonicity_above_pi(self, rng):
        # claim behind the all-high-corner rule: on 2x+y+z >= pi the angle
        # at x increases in each radius
        count = 200_000
        h = 1e-6
        margin = 0.02
        x, y, z = rng.uniform(GEOM.alpha_min, GEOM.alpha_max - h, size=(3, count))
        keep = 2.0 * x + y + z >= math.pi + margin
        x, y, z = x[keep], y[keep], z[keep]
        assert x.size > 5_000
        (ax, _, _), _ = triangle_angles_vec(x, y, z)
        (ax_dx, _, _), _ = triangle_angles_vec(x + h, y, z)
        (ax_dy, _, _), _ = triangle_angles_vec(x, y + h, z)
        (ax_dz, _, _), _ = triangle_angles_vec(x, y, z + h)
        tol = 1e-12
        assert np.all(ax_dx >= ax - tol)
        assert np.all(ax_dy >= ax - tol)
        assert np.all(ax_dz >= ax - tol)

    @pytest.mark.parametrize("delta", [0.004, 0.002])
    def test_grid_box_at_density_argmax(self, delta):
        # the grid box holding max_density's argmax (x = y ~ 0.26309,
        # z = alpha_max) bounds the maximum density from above
        result = max_density(GEOM, SearchConfig(grid_step=0.1))
        assert result.max_density >= 0.93118971
        scan = _GridScan(GEOM, delta)
        idx = np.minimum(np.searchsorted(scan.g, result.argmax, side="right") - 1, scan.n - 1)
        assert np.all(scan.g[idx] <= result.argmax)
        assert np.all(np.asarray(result.argmax) <= scan.g[idx + 1])
        bound = float(scan._batch_bounds(*idx))
        assert bound >= 0.93118972
        assert bound >= result.max_density


def _exhaustive_max(scan):
    """Max over every grid box i <= j <= k, one first index at a time, and
    the first box that holds it."""
    best, best_idx = -math.inf, None
    for i in range(scan.n):
        j, k = np.triu_indices(scan.n - i)
        bounds = scan._batch_bounds(i, j + i, k + i)
        pos = int(np.argmax(bounds))
        if bounds[pos] > best:
            best, best_idx = float(bounds[pos]), (i, int(j[pos] + i), int(k[pos] + i))
    return best, best_idx


def _certificate_text(delta, boxes, bound, certified, passed):
    return (
        f"rho: 1.7549999999999999\ndelta: {delta}\ntarget: 14.5\nboxes_checked: {boxes}\n"
        f"max_box_bound: {bound}\ncertified_bound: {certified}\n"
        f"fp_slack: 1.0000000000000001e-09\npassed: {passed}\n"
    )


# emitted at rho 1.755 and target 14.5 by the per-axis kernel that the
# stacked one replaced: the exhaustive scan shares the kernel, so only
# recorded bytes catch a change that moves every box's bits alike
PINNED_CERTIFICATES = {
    0.01: _certificate_text(
        "0.01", 98770, "0.99667124923267103", "14.886847366387368", "false"
    ),
    0.004: _certificate_text(
        "0.0040000000000000001", 1499784, "0.95620281807148078", "14.28238791366651", "true"
    ),
    0.002: _certificate_text(
        "0.002", 11912160, "0.94353667441980638", "14.093199204341962", "true"
    ),
}


class TestLevelScan:
    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_children_bounded_by_parent(self, m):
        # refinement monotonicity, the property pruning rests on: every
        # aligned child of side m / 2 is bounded by its parent of side m
        scan = _GridScan(GEOM, 0.004)
        n, half = scan.n, m // 2
        lows = np.arange(0, n, m)
        i, j, k = (v.ravel() for v in np.meshgrid(lows, lows, lows, indexing="ij"))
        sorted_ = (i <= j) & (j <= k)
        i, j, k = i[sorted_], j[sorted_], k[sorted_]
        parents = scan._batch_bounds(i, j, k, m)
        assert np.all(np.isfinite(parents))
        for di in (0, half):
            for dj in (0, half):
                for dk in (0, half):
                    ci, cj, ck = i + di, j + dj, k + dk
                    inside = np.maximum(np.maximum(ci, cj), ck) < n
                    children = scan._batch_bounds(ci[inside], cj[inside], ck[inside], half)
                    assert np.all(children <= parents[inside] * (1.0 + 1e-12))

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("delta", [0.01, 0.004])
    def test_matches_exhaustive_scan(self, delta, workers):
        scan = _GridScan(GEOM, delta)
        cert = certify(RHO, delta, 14.5, workers=workers)
        assert cert.max_box_bound.hex() == _exhaustive_max(scan)[0].hex()
        assert cert.boxes_checked == scan.boxes_before(scan.slabs)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("delta", sorted(PINNED_CERTIFICATES))
    def test_certificate_bytes_pinned(self, delta, workers):
        cert = certify(RHO, delta, 14.5, workers=workers)
        assert emit_certificate(cert) == PINNED_CERTIFICATES[delta]

    @pytest.mark.parametrize("delta", [0.004, 0.002])
    def test_floor_is_max_of_slab_probes(self, delta):
        # the one-batch probe against one batch of centre boxes per slab
        scan = _GridScan(GEOM, delta)
        probes = []
        for slab in range(scan.slabs):
            centres = (np.minimum(v + scan.top // 2, scan.n - 1) for v in scan._top_boxes(slab))
            probes.append(float(np.fmax.reduce(scan._batch_bounds(*centres), initial=-np.inf)))
        assert scan.slabs > 1
        assert scan.floor == max(probes)

    def test_box_at_threshold_is_refined(self):
        # a parent whose bound equals the pruning threshold is bisected, so
        # the grid box below it that holds the maximum is still found
        scan = _GridScan(GEOM, 0.004)
        best, (i, j, k) = _exhaustive_max(scan)
        scan.floor = float(scan._batch_bounds(i // 2 * 2, j // 2 * 2, k // 2 * 2, 2))
        assert scan.floor > best
        value, idx = scan.slab_max(i // scan.top)
        assert value == best
        assert idx == (i, j, k)


class TestCertify:
    def test_small_run_reproducible_fields(self):
        cert = certify(RHO, 0.01, 14.5, workers=1)
        scan = _GridScan(GEOM, 0.01)
        assert cert.boxes_checked == scan.boxes_before(scan.slabs)
        n = scan.n
        assert cert.boxes_checked == n * (n + 1) * (n + 2) // 6
        assert cert.certified_bound == pytest.approx(
            cert.max_box_bound * objective_factor(RHO) * (1.0 + cert.fp_slack),
            rel=1e-15,
        )
        assert cert.passed == (cert.certified_bound < cert.target)

    def test_symmetry_reduction_soundness(self):
        # reduced max equals the max over the full (unreduced) tiling
        cert = certify(RHO, 0.01, 14.5, workers=1)
        scan = _GridScan(GEOM, 0.01)
        n = scan.n
        idx = np.arange(n, dtype=np.int64)
        i, j, k = np.meshgrid(idx, idx, idx, indexing="ij")
        i, j, k = i.ravel(), j.ravel(), k.ravel()
        g = scan.g
        bounds = box_density_upper_vec(
            GEOM, g[i], g[j], g[k], g[i + 1], g[j + 1], g[k + 1]
        )
        assert float(np.max(bounds)) == pytest.approx(cert.max_box_bound, rel=1e-12)

    def test_worker_count_byte_identity(self):
        one = certify(RHO, 0.004, 14.5, workers=1)
        two = certify(RHO, 0.004, 14.5, workers=2)
        assert emit_certificate(one) == emit_certificate(two)

    def test_failing_target(self):
        cert = certify(RHO, 0.004, 13.90, workers=1)
        assert not cert.passed
        assert cert.certified_bound >= 13.90

    def test_refinement_monotonicity(self):
        coarse = certify(RHO, 0.008, 15.0, workers=2)
        mid = certify(RHO, 0.004, 15.0, workers=2)
        fine = certify(RHO, 0.002, 15.0, workers=2)
        assert fine.certified_bound <= mid.certified_bound + 1e-9
        assert mid.certified_bound <= coarse.certified_bound + 1e-9

    @staticmethod
    def _crash_and_resume(monkeypatch, path, workers, delta=0.01):
        monkeypatch.setattr(certifier_module, "CHECKPOINT_EVERY", 2_000)
        calls = [0]

        def interrupt(done, total):
            calls[0] += 1
            if calls[0] == 3:
                raise RuntimeError("simulated crash")

        with pytest.raises(RuntimeError):
            certify(
                RHO,
                delta,
                14.5,
                workers=workers,
                checkpoint_path=path,
                on_progress=interrupt,
            )
        assert os.path.exists(path)
        resumed = certify(RHO, delta, 14.5, workers=workers, checkpoint_path=path)
        assert not os.path.exists(path)
        return resumed

    def test_checkpoint_resume_identical(self, monkeypatch, tmp_path):
        reference = certify(RHO, 0.01, 14.5, workers=1)
        resumed = self._crash_and_resume(monkeypatch, str(tmp_path / "scan.ckpt"), workers=1)
        assert emit_certificate(resumed) == emit_certificate(reference)

    def test_checkpoint_resume_identical_pool(self, monkeypatch, tmp_path):
        reference = certify(RHO, 0.01, 14.5, workers=1)
        resumed = self._crash_and_resume(monkeypatch, str(tmp_path / "scan.ckpt"), workers=2)
        assert emit_certificate(resumed) == emit_certificate(reference)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_checkpoint_resume_identical_levels(self, monkeypatch, tmp_path, workers):
        # at delta 0.004 the slabs are four grid rows deep and pruned
        reference = certify(RHO, 0.004, 14.5, workers=1)
        resumed = self._crash_and_resume(
            monkeypatch, str(tmp_path / "scan.ckpt"), workers, delta=0.004
        )
        assert emit_certificate(resumed) == emit_certificate(reference)

    def test_checkpoint_parameter_mismatch(self, monkeypatch, tmp_path):
        monkeypatch.setattr(certifier_module, "CHECKPOINT_EVERY", 1_000)
        path = str(tmp_path / "scan.ckpt")

        def interrupt(done, total):
            raise RuntimeError("simulated crash")

        with pytest.raises(RuntimeError):
            certify(
                RHO,
                0.01,
                14.5,
                workers=1,
                checkpoint_path=path,
                on_progress=interrupt,
            )
        assert os.path.exists(path)
        with pytest.raises(CertificateError):
            certify(RHO, 0.02, 14.5, workers=1, checkpoint_path=path)

    @staticmethod
    def _checkpoint_bytes(kind):
        scan = _GridScan(GEOM, 0.01)
        record = _emit(_Checkpoint(RHO, 0.01, 14.5, 1e-9, scan.n, scan.top, 3, 0.9, 0, 0, 0))
        # the JSON format of earlier versions, whose floats were hex strings
        old = {
            "rho": RHO.hex(), "delta": (0.01).hex(), "target": (14.5).hex(),
            "fp_slack": (1e-9).hex(), "n": scan.n, "scan": "levels", "top": scan.top,
            "next_slab": 3, "boxes_done": 10_000, "max_so_far": (0.9).hex(),
            "argmax": [0, 0, 0],
        }
        # the uniform row scan's format, whose slabs were single rows
        uniform = {key: value for key, value in old.items() if key not in ("scan", "top")}
        return {
            "garbage": b"garbage",
            "list": b"[1, 2]",
            "uniform": json.dumps(uniform).encode(),
            "levels_json": json.dumps(old).encode(),
            "ill_typed": record.replace("next_slab: 3", "next_slab: three").encode(),
            "slab_range": record.replace("next_slab: 3", f"next_slab: {scan.slabs + 1}").encode(),
            "non_utf8": record.encode() + b"# \xff\n",
        }[kind]

    @pytest.mark.parametrize(
        "kind",
        ["garbage", "list", "uniform", "levels_json", "ill_typed", "slab_range", "non_utf8"],
    )
    def test_corrupt_checkpoint_rejected(self, tmp_path, kind):
        path = tmp_path / "scan.ckpt"
        path.write_bytes(self._checkpoint_bytes(kind))
        with pytest.raises(CertificateError, match="checkpoint"):
            certify(RHO, 0.01, 14.5, workers=1, checkpoint_path=str(path))

    def test_checkpoint_is_a_record(self, monkeypatch, tmp_path):
        # a crash leaves the scan state in the certificate's key: value format
        monkeypatch.setattr(certifier_module, "CHECKPOINT_EVERY", 2_000)
        path = tmp_path / "scan.ckpt"

        def interrupt(done, total):
            raise RuntimeError("simulated crash")

        with pytest.raises(RuntimeError):
            certify(RHO, 0.01, 14.5, workers=1, checkpoint_path=str(path), on_progress=interrupt)
        text = path.read_text(encoding="utf-8")
        state = _parse(text, _Checkpoint)
        assert _emit(state) == text
        scan = _GridScan(GEOM, 0.01)
        assert (state.rho, state.delta, state.n, state.top) == (RHO, 0.01, scan.n, scan.top)
        assert state.next_slab == 1
        assert state.max_so_far == scan.slab_max(0)[0]
        assert (state.i, state.j, state.k) == scan.slab_max(0)[1]

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            certify(1.0, 0.01, 14.5)
        with pytest.raises(DomainError):
            certify(RHO, -0.01, 14.5)
        with pytest.raises(DomainError):
            certify(RHO, 0.01, -1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["delta", "target", "fp_slack"])
    def test_non_finite_inputs(self, field, value):
        kwargs = dict(rho=RHO, delta=0.01, target=14.5, fp_slack=1e-9)
        kwargs[field] = value
        with pytest.raises(DomainError, match=field):
            certify(**kwargs)

    def test_ratio_near_three_rejected_before_the_scan(self):
        # -rho^2 + 4 rho - 3 rounds to 0 there
        with pytest.raises(DomainError, match="too close"):
            objective_factor(2.9999999999999996)
        progress = []
        with pytest.raises(DomainError, match="too close"):
            certify(2.9999999999999996, 0.01, 14.5, on_progress=lambda *a: progress.append(a))
        assert progress == []

    def test_sharper_bound_at_quarter_grid_step(self):
        # delta 0.00025 certifies k3 < 13.932, below the paper's 13.955
        cert = certify(RHO, 0.00025, 13.94, workers=2)
        assert cert.passed
        assert cert.certified_bound == 13.931528541483372

    def test_invalid_thread_variable(self, monkeypatch):
        for text in ("abc", "0", "-2"):
            monkeypatch.setenv("KISSBOUND_THREADS", text)
            with pytest.raises(DomainError, match="KISSBOUND_THREADS"):
                certify(RHO, 0.01, 14.5, workers=None)

    @pytest.mark.parametrize("workers", [0, -2, 2.5, True])
    def test_invalid_worker_count_rejected_before_the_scan(self, monkeypatch, workers):
        def no_scan(*args):
            raise AssertionError("grid tables built for an invalid worker count")

        monkeypatch.setattr(certifier_module, "_GridScan", no_scan)
        with pytest.raises(DomainError, match="worker count"):
            certify(RHO, 0.0005, 14.5, workers=workers)


class TestCertificateIO:
    def test_round_trip_bit_exact(self):
        cert = Certificate(
            rho=1.7549999999999999,
            delta=5e-4,
            target=13.955,
            boxes_checked=756884460,
            max_box_bound=0.9342482838814188,
            certified_bound=13.954462518359657,
            fp_slack=1e-9,
            passed=True,
        )
        assert parse_certificate(emit_certificate(cert)) == cert

    def test_round_trip_from_run(self):
        cert = certify(RHO, 0.01, 14.5, workers=1)
        assert parse_certificate(emit_certificate(cert)) == cert

    def test_parse_rejects_malformed(self):
        with pytest.raises(CertificateError):
            parse_certificate("rho 1.755\n")
        with pytest.raises(CertificateError):
            parse_certificate("rho: 1.755\n")
        text = emit_certificate(certify(RHO, 0.01, 14.5, workers=1))
        corrupted = text.replace("passed: true", "passed: maybe").replace(
            "passed: false", "passed: maybe"
        )
        with pytest.raises(CertificateError):
            parse_certificate(corrupted)

    @example(floats=[math.inf, -math.inf, -0.0, 0.0, 5e-324], boxes=-1, passed=False)
    @given(
        floats=st.lists(st.floats(allow_nan=False), min_size=5, max_size=5),
        boxes=st.integers(),
        passed=st.booleans(),
    )
    def test_round_trip_property(self, floats, boxes, passed):
        rho, delta, target, bound, slack = floats
        cert = Certificate(rho, delta, target, boxes, bound, bound, slack, passed)
        text = emit_certificate(cert)
        parsed = parse_certificate(text)
        assert parsed == cert
        # the text keeps every bit, the sign of -0.0 included
        assert emit_certificate(parsed) == text

    def test_round_trip_infinite_bound(self):
        # near rho = 3 every box bound is inf, and the certificate says so
        cert = certify(2.9999999, 0.01, 14.5, workers=1)
        text = emit_certificate(cert)
        assert "max_box_bound: inf\n" in text
        assert parse_certificate(text) == cert

    @pytest.mark.parametrize(
        "old, new",
        [
            ("passed: true", "passed: false\npassed: true"),
            ("passed: true", "passed: true\nverified: true"),
            ("max_box_bound: 0.", "max_box_bound: nan\n# 0."),
            ("boxes_checked: 98", "boxes_checked: 98_"),
            ("boxes_checked: ", "boxes_checked: +"),
            ("boxes_checked: ", "boxes_checked: 0"),
            ("delta: 0.01", "delta: 0.010"),
            ("rho: ", "rho:"),
        ],
        ids=["repeated", "unknown", "nan", "underscore", "plus", "leading_zero",
             "trailing_zero", "no_space"],
    )
    def test_parse_rejects_what_emit_never_writes(self, old, new):
        text = emit_certificate(certify(RHO, 0.01, 14.9, workers=1))
        assert old in text
        with pytest.raises(CertificateError):
            parse_certificate(text.replace(old, new, 1))

    def test_parse_skips_blank_and_comment_lines(self):
        text = emit_certificate(certify(RHO, 0.01, 14.5, workers=1))
        assert parse_certificate("# header\n\n" + text + "\n") == parse_certificate(text)
