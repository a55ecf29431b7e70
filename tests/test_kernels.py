"""The kernels against the scalar API and the per-axis box bound (bit for
bit) and against the 60-digit oracle in `mp_oracle` (forward error)."""

import collections

import numpy as np
import pytest

from kissbound import (
    Box,
    RhoGeometry,
    box_angle_upper,
    box_density_upper,
    cap_area_K,
    density,
    rho_geometry,
    triangle_angles,
)
from kissbound import _kernels
from kissbound._kernels import (
    ANGLE_GUARD,
    PI,
    TWO_PI,
    K_vec,
    _angle_arg,
    _trig_of_sum,
    box_angles_upper_vec,
    box_density_upper_vec,
    density_vec,
    triangle_angles_vec,
    triangle_args_vec,
    triangle_excess_vec,
)
from kissbound.certifier import DEFAULT_FP_SLACK, _GridScan

import mp_oracle

RHOS = [1.5, 1.755, 1.99]


def random_triples(rng, geom, count):
    return rng.uniform(geom.alpha_min, geom.alpha_max, size=(3, count))


@pytest.mark.parametrize("rho", RHOS)
def test_scalar_api_matches_kernels_bit_for_bit(rng, rho):
    # the scalar API is a wrapper on the kernels, so no value may differ
    # by even one ulp, in argument order as well as in sorted order
    g = rho_geometry(rho)
    x, y, z = random_triples(rng, g, 10_000)
    (ax, ay, az), _ = triangle_angles_vec(x, y, z)
    area = triangle_excess_vec(x, y, z)
    k = K_vec(g, x)
    sx, sy, sz = np.sort((x, y, z), axis=0)
    d = density_vec(g, sx, sy, sz)
    for i in range(x.size):
        t = triangle_angles(x[i], y[i], z[i])
        assert (t.angle_x, t.angle_y, t.angle_z, t.area) == (ax[i], ay[i], az[i], area[i])
        assert cap_area_K(g, x[i]) == k[i]
        assert density(g, x[i], y[i], z[i]).density == d[i]


def three_call_args(x, y, z):
    """The arccos arguments as three separate arrays, one per vertex: the
    unstacked form the stacked kernel has to reproduce."""
    cos_yz, sin_yz = _trig_of_sum(y, z)
    cos_xz, sin_xz = _trig_of_sum(x, z)
    cos_xy, sin_xy = _trig_of_sum(x, y)
    return (
        _angle_arg(cos_yz, cos_xz, cos_xy, sin_xz, sin_xy),
        _angle_arg(cos_xz, cos_xy, cos_yz, sin_xy, sin_yz),
        _angle_arg(cos_xy, cos_xz, cos_yz, sin_xz, sin_yz),
    )


def three_call_density(geom, x, y, z):
    args = three_call_args(x, y, z)
    ax, ay, az = (np.arccos(np.clip(arg, -1.0, 1.0)) for arg in args)
    valid = np.logical_and.reduce([np.abs(arg) <= 1.0 + ANGLE_GUARD for arg in args])
    area = np.where(valid, ax + ay + az - PI, np.nan)
    num = K_vec(geom, x) * ax + K_vec(geom, y) * ay + K_vec(geom, z) * az
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(area > 0.0, num / (TWO_PI * area), np.nan)


@pytest.mark.parametrize("rho", RHOS)
def test_stacked_kernels_match_three_call_form(rng, rho):
    # one stacked clip, arccos and K give the bits of one call per vertex;
    # wider triples reach invalid and degenerate ones too
    g = rho_geometry(rho)
    x, y, z = random_triples(rng, g, 10_000)
    np.testing.assert_array_equal(triangle_args_vec(x, y, z), three_call_args(x, y, z))
    np.testing.assert_array_equal(density_vec(g, x, y, z), three_call_density(g, x, y, z))
    wide = rng.uniform(0.0, 1.6, size=(3, 10_000))
    assert np.isnan(three_call_density(g, *wide)).any()
    np.testing.assert_array_equal(density_vec(g, *wide), three_call_density(g, *wide))


def per_axis_angle_upper(lo_own, lo_o1, lo_o2, up_own, up_o1, up_o2):
    """The box's angle bound at the `own` axis in the per-axis form the
    stacked kernel replaced: its own sums, low corner and all-high corner."""

    def angle_at(x, y, z):
        cos_yz, _ = _trig_of_sum(y, z)
        cos_xz, sin_xz = _trig_of_sum(x, z)
        cos_xy, sin_xy = _trig_of_sum(x, y)
        arg = _angle_arg(cos_yz, cos_xz, cos_xy, sin_xz, sin_xy)
        return np.arccos(np.clip(arg, -1.0, 1.0))

    s_lo = 2.0 * lo_own + lo_o1 + lo_o2
    s_hi = 2.0 * up_own + up_o1 + up_o2
    low = angle_at(lo_own, up_o1, up_o2)
    high = angle_at(up_own, up_o1, up_o2)
    return np.where(s_hi <= PI, low, np.where(s_lo >= PI, high, np.maximum(low, high)))


def per_axis_box_bound(geom, a, b, c, ua, ub, uc):
    angle_x = per_axis_angle_upper(a, b, c, ua, ub, uc)
    angle_y = per_axis_angle_upper(b, a, c, ub, ua, uc)
    angle_z = per_axis_angle_upper(c, a, b, uc, ua, ub)
    num = K_vec(geom, ua) * angle_x + K_vec(geom, ub) * angle_y + K_vec(geom, uc) * angle_z
    area = triangle_excess_vec(a, b, c)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(area > 0.0, num / (TWO_PI * area), np.inf)


def reference_boxes(rng, geom, count):
    """Boxes of the certified domain, boxes whose sums 2x + y + z straddle
    pi on a random axis, and boxes with broken-geometry corners."""
    side = rng.uniform(1e-6, 0.05, size=(1, count))
    inside = rng.uniform(geom.alpha_min, geom.alpha_max, size=(3, count))
    straddle = inside.copy()
    own = rng.integers(3, size=count)
    others = straddle.sum(axis=0) - straddle[own, np.arange(count)]
    straddle[own, np.arange(count)] = (PI - others - 2.0 * side[0] * rng.uniform(size=count)) / 2.0
    broken = rng.uniform(0.0, 1.6, size=(3, count))
    lows = np.concatenate([inside, straddle, broken], axis=1)
    ups = lows + np.concatenate([side, side, rng.uniform(0.0, 0.5, size=(1, count))], axis=1)
    return lows, ups


def corner_boxes(rng, side, count):
    """Lower corners of boxes of one side on which the all-high corner is
    picked: boxes above pi at the lower corner on every axis, boxes
    straddling pi on a random axis, and both mixed with boxes below pi at
    the upper corner."""
    high = rng.uniform(0.8, 1.2, size=(3, count))
    straddle = rng.uniform(0.5, 1.0, size=(3, count))
    own, cols = rng.integers(3, size=count), np.arange(count)
    others = straddle.sum(axis=0) - straddle[own, cols]
    straddle[own, cols] = (PI - others - 4.0 * side * rng.uniform(size=count)) / 2.0
    low = rng.uniform(0.1, 0.5, size=(3, count))
    mixed = np.concatenate([low, high, straddle], axis=1)
    return high, straddle, mixed[:, rng.permutation(3 * count)]


def assert_matches_per_axis_form(geom, lows, ups):
    (a, b, c), (ua, ub, uc) = lows, ups
    expected = [
        per_axis_angle_upper(a, b, c, ua, ub, uc),
        per_axis_angle_upper(b, a, c, ub, ua, uc),
        per_axis_angle_upper(c, a, b, uc, ua, ub),
    ]
    angles = box_angles_upper_vec(a, b, c, ua, ub, uc)
    np.testing.assert_array_equal(angles, expected)
    bound = box_density_upper_vec(geom, a, b, c, ua, ub, uc)
    np.testing.assert_array_equal(bound, per_axis_box_bound(geom, a, b, c, ua, ub, uc))
    return angles, bound


@pytest.mark.parametrize("rho", [1.3, 1.755, 2.5])
def test_stacked_box_bound_matches_per_axis_form(rng, rho):
    # the all-high corners as one triangle, the sums read once and one
    # quotient give the bits of one call per axis
    g = rho_geometry(rho)
    lows, ups = reference_boxes(rng, g, 20_000)
    angles, bound = assert_matches_per_axis_form(g, lows, ups)
    # the samples reach each axis's straddling case and the conservative fills
    s_lo, s_hi = (2.0 * v + v.sum(axis=0) - v for v in (lows, ups))
    assert ((s_lo < PI) & (PI < s_hi)).any(axis=1).all()
    assert (angles == PI).any() and np.isinf(bound).any() and np.isfinite(bound).any()
    # batches where the high corner alone, or both corners, are picked, and
    # one mixing them with low-corner boxes, at sides of 1 to 32 grid steps
    for steps in (1, 2, 8, 32):
        side = steps * 0.002
        high, straddle, mixed = corner_boxes(rng, side, 2_000)
        for lows in (high, straddle, mixed):
            ups = lows + side
            s_lo, s_hi = (2.0 * v + v.sum(axis=0) - v for v in (lows, ups))
            assert (s_hi > PI).any(axis=0).mean() >= 2 / 3
            assert_matches_per_axis_form(g, lows, ups)
        assert (s_lo >= PI).all(axis=0).any() and (s_hi <= PI).all(axis=0).any()


def test_grid_batches_match_per_axis_form(rng):
    # at rho 2.5 the grid holds boxes on both sides of the corner rule; the
    # table path gives each box the bits of the per-axis form on its edges
    g = rho_geometry(2.5)
    scan = _GridScan(g, 0.002)
    for m in (1, 2, 8, 32):
        i, j, k = np.sort(rng.integers(0, scan.n, size=(3, 20_000)), axis=0)
        ui, uj, uk = (np.minimum(v + m, scan.n) for v in (i, j, k))
        edges = scan.g
        ups = np.array([edges[ui], edges[uj], edges[uk]])
        rest = (2.0 * ups + ups.sum(axis=0) - ups > PI).any(axis=0)
        assert 0.05 < rest.mean() < 0.95
        np.testing.assert_array_equal(
            scan._batch_bounds(i, j, k, m),
            per_axis_box_bound(g, edges[i], edges[j], edges[k], *ups),
        )


@pytest.mark.parametrize("rho", [1.3, 1.755, 2.5])
def test_box_api_matches_per_axis_form(rng, rho):
    g = rho_geometry(rho)
    for _ in range(300):
        delta = float(rng.uniform(1e-6, 0.05))
        a, b, c = rng.uniform(g.alpha_min, g.alpha_max, size=3)
        box = Box(a, b, c, delta)
        ua, ub, uc = (min(v + delta, g.alpha_max) for v in (a, b, c))
        assert box_density_upper(g, box) == per_axis_box_bound(g, a, b, c, ua, ub, uc)
        assert [box_angle_upper(g, box, axis) for axis in "xyz"] == [
            per_axis_angle_upper(a, b, c, ua, ub, uc),
            per_axis_angle_upper(b, a, c, ub, ua, uc),
            per_axis_angle_upper(c, a, b, uc, ua, ub),
        ]


def count_reads(monkeypatch, scan, i, j, k):
    """Elements each provider reads for one _batch_bounds batch."""
    reads = collections.Counter()
    kernel = _kernels.box_density_upper_vec

    def counted(name, provider):
        def call(*args):
            reads[name] += np.broadcast(*args).size
            return provider(*args)

        return call

    def counting_kernel(geom, *edges, pair, coord, k_of):
        return kernel(
            geom, *edges,
            pair=counted("pair", pair), coord=counted("coord", coord), k_of=counted("k_of", k_of),
        )

    monkeypatch.setattr(_kernels, "box_density_upper_vec", counting_kernel)
    scan._batch_bounds(i, j, k)
    monkeypatch.undo()
    return reads


def test_batch_reads_twelve_sides(monkeypatch):
    # 9 low-corner and 3 area sides per box, and the all-high triangle's 3
    # sides and 3 lower coordinates only on the boxes that need it; the
    # per-axis form read 21 sides a box, the first stacked kernel 15
    scan = _GridScan(rho_geometry(2.5), 0.01)
    j, k = np.triu_indices(scan.n)
    i = np.zeros_like(j)
    up = scan.g[np.array([i, j, k]) + 1]
    rest = (2.0 * up + up.sum(axis=0) - up > PI).any(axis=0)
    size, extra = i.size, rest.sum()
    assert 0 < extra < size
    reads = count_reads(monkeypatch, scan, i[~rest], j[~rest], k[~rest])
    low = size - extra
    assert reads == {"pair": 12 * low, "coord": 3 * low, "k_of": 3 * low}
    reads = count_reads(monkeypatch, scan, i, j, k)
    assert reads == {"pair": 12 * size + 3 * extra, "coord": 3 * (size + extra), "k_of": 3 * size}


def test_K_with_lane_geometry_matches_scalar_geometry(rng):
    # one geometry per lane, as the sweep's loop passes it, gives each lane
    # the bits of that ratio's scalar geometry
    geoms = [rho_geometry(rho) for rho in (1.45, *RHOS, 2.4)]
    fields = zip(*[(g.rho, g.alpha_min, g.alpha_zero, g.alpha_max) for g in geoms])
    owner = rng.integers(len(geoms), size=5_000)
    lanes = RhoGeometry(*(np.array(f)[owner] for f in fields))
    alpha = rng.uniform(lanes.alpha_min, lanes.alpha_max, size=(3, owner.size))
    k = K_vec(lanes, alpha)
    for r, g in enumerate(geoms):
        mine = owner == r
        np.testing.assert_array_equal(k[:, mine], K_vec(g, alpha[:, mine]))


@pytest.mark.parametrize("rho", RHOS)
def test_kernels_match_oracle(rng, rho):
    g = rho_geometry(rho)
    x, y, z = random_triples(rng, g, 200)
    d = density_vec(g, x, y, z)
    (ax, _, _), _ = triangle_angles_vec(x, y, z)
    k = K_vec(g, x)
    for i in range(x.size):
        assert mp_oracle.rel_error(d[i], mp_oracle.density(rho, x[i], y[i], z[i])) <= 1e-12
        assert mp_oracle.rel_error(ax[i], mp_oracle.vertex_angle(x[i], y[i], z[i])) <= 1e-12
        # K vanishes at alpha_min, so its error is absolute
        assert abs(k[i] - float(mp_oracle.K(rho, x[i]))) <= 1e-13


def test_corner_bound_error_far_below_fp_slack():
    # the certificate's fp_slack covers rounding only if the largest grid-box
    # bounds, the ones the certified bound is made of, are accurate: take the
    # grid's own float edges as exact inputs and compare with the oracle
    rho, count = 1.755, 20
    scan = _GridScan(rho_geometry(rho), 0.004)
    candidates = []
    for i in range(scan.n):
        j, k = np.triu_indices(scan.n - i)
        j, k = j + i, k + i
        bounds = scan._batch_bounds(i, j, k)
        top = np.argsort(bounds)[-count:]
        candidates += [(bounds[p], i, j[p], k[p]) for p in top]
    candidates.sort(reverse=True)
    g = scan.g
    for bound, i, j, k in candidates[:count]:
        lower, upper = (g[i], g[j], g[k]), (g[i + 1], g[j + 1], g[k + 1])
        assert mp_oracle.rel_error(bound, mp_oracle.box_bound(rho, lower, upper)) <= 1e-13
    assert 1e-13 < DEFAULT_FP_SLACK
