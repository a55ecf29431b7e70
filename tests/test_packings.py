import itertools
import math

import numpy as np
import pytest

from kissbound import (
    Ball,
    DomainError,
    OverlapError,
    PackingParseError,
    SearchConfig,
    contact_graph,
    coverage_audit,
    coverage_fraction,
    fcc_fragment,
    load_packing,
    max_density,
    packing_from_balls,
    pair_sum_value,
    rho_geometry,
)
from kissbound import packings
from kissbound.packings import AUDIT_CSV_HEADER, audit_to_csv

from conftest import data_path


def read(name):
    with open(data_path(name), encoding="utf-8") as fh:
        return fh.read()


def brute_force_edges(packing):
    """Tangent pairs by testing every pair, in index order."""
    centers = np.array([b.center for b in packing.balls])
    radii = np.array([b.radius for b in packing.balls])
    tol = packing.tolerance
    edges = []
    for i in range(len(packing) - 1):
        dist = np.sqrt(np.sum((centers[i + 1 :] - centers[i]) ** 2, axis=1))
        radius_sum = radii[i] + radii[i + 1 :]
        hits = np.nonzero(np.abs(dist - radius_sum) <= tol * radius_sum)[0]
        edges.extend((i, i + 1 + int(j)) for j in hits)
    return tuple(edges)


def tangent_chain(rng, axis):
    """200 balls of random radii, each tangent to the next along one axis."""
    balls = []
    x = 0.0
    prev = None
    for _ in range(200):
        r = float(rng.uniform(0.2, 3.0))
        if prev is not None:
            x += prev + r
        center = [0.0, 0.0, 0.0]
        center[axis] = x
        balls.append(Ball(tuple(center), r))
        prev = r
    return packing_from_balls(balls)


def multiscale_packing(rng, count=300):
    """Balls with log-uniform radii in [0.01, 100], each placed tangent to
    an earlier one in a random direction and kept only if it overlaps none."""
    centers = [np.zeros(3)]
    radii = [1.0]
    while len(radii) < count:
        r = float(10.0 ** rng.uniform(-2.0, 2.0))
        parent = int(rng.integers(len(radii)))
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        center = centers[parent] + (radii[parent] + r) * direction
        gaps = np.linalg.norm(np.array(centers) - center, axis=1) - (np.array(radii) + r)
        gaps[parent] = np.inf
        if np.all(gaps > 1e-6 * (np.array(radii) + r)):
            centers.append(center)
            radii.append(r)
    return packing_from_balls(
        [Ball(tuple(float(v) for v in c), r) for c, r in zip(centers, radii)]
    )


def spread_packing(rng, scale, count=120):
    """Two tangent balls of radius `scale` and balls of radii 1e-7 .. 1e-2
    times `scale`: every third one wedged in the crevice between the two
    (tangent to both, the Soddy-like regime), the others tangent to an
    earlier ball in a random direction; each is kept only if it overlaps
    none.  A power-of-two `scale` rescales every distance exactly."""
    centers = [np.array([-1.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0])]
    radii = [1.0, 1.0]
    while len(radii) < count:
        r = float(10.0 ** rng.uniform(-7.0, -2.0))
        direction = rng.normal(size=3)
        if len(radii) % 3 == 0:
            direction[0] = 0.0
            center = math.sqrt(r * (2.0 + r)) * direction / np.linalg.norm(direction)
            parents = [0, 1]
        else:
            parent = int(rng.integers(len(radii)))
            direction /= np.linalg.norm(direction)
            center = centers[parent] + (radii[parent] + r) * direction
            parents = [parent]
        gaps = np.linalg.norm(np.array(centers) - center, axis=1) - (np.array(radii) + r)
        gaps[parents] = np.inf
        if np.all(gaps > 1e-6 * (np.array(radii) + r)):
            centers.append(center)
            radii.append(r)
    return [
        Ball(tuple(scale * float(v) for v in c), scale * r) for c, r in zip(centers, radii)
    ]


def fcc_with_holes(rng, shells=3):
    """fcc_fragment(shells) plus a ball in each octahedral hole (radius
    sqrt(2) - 1, tangent to six unit balls) and each tetrahedral hole
    (sqrt(3/2) - 1, tangent to four) near it, in random order.  At rho =
    1.755 the tetrahedral balls are below min_nonempty_radius of a unit
    ball, so their caps on it are empty."""
    scale = math.sqrt(2.0)
    balls = list(fcc_fragment(shells).balls)
    for site in itertools.product(range(-3, 4), repeat=3):
        if sum(site) % 2:
            balls.append(Ball(tuple(scale * v for v in site), scale - 1.0))
        if max(site) < 3:
            center = tuple(scale * (v + 0.5) for v in site)
            balls.append(Ball(center, math.sqrt(1.5) - 1.0))
    return packing_from_balls([balls[k] for k in rng.permutation(len(balls))])


def widest_pairs(rng, base, tolerance, count=200):
    """Pairs of balls along x from x = base, each at the largest separation
    that the tangency test accepts."""
    ra = 10.0 ** rng.uniform(-1.0, 1.0, count)
    rb = 10.0 ** rng.uniform(-1.0, 1.0, count)
    xa = base + 50.0 * np.arange(count)
    radius_sum = ra + rb

    def accepted(bits):
        dist = np.sqrt((bits.view(np.float64) - xa) ** 2)
        return np.abs(dist - radius_sum) <= tolerance * radius_sum

    # bisect on the bit patterns, which order positive floats
    lo = (xa + radius_sum).view(np.int64)
    hi = (xa + 2.0 * radius_sum).view(np.int64)
    assert accepted(lo).all() and not accepted(hi).any()
    while np.any(hi - lo > 1):
        mid = lo + (hi - lo) // 2
        ok = accepted(mid)
        lo = np.where(ok, mid, lo)
        hi = np.where(ok, hi, mid)
    xb = lo.view(np.float64)
    balls = []
    for args in zip(xa, ra, xb, rb):
        x1, r1, x2, r2 = map(float, args)
        balls += [Ball((x1, 0.0, 0.0), r1), Ball((x2, 0.0, 0.0), r2)]
    return packing_from_balls(balls, tolerance)


class TestLoadPacking:
    def test_two_tangent_unit_balls(self):
        packing = load_packing(read("two_balls.json"))
        assert len(packing) == 2
        assert packing.balls[0] == Ball(center=(0.0, 0.0, 0.0), radius=1.0)

    def test_overlap_rejected_with_pair_and_depth(self):
        with pytest.raises(OverlapError) as info:
            load_packing(read("overlapping.json"))
        assert info.value.pair == (0, 1)
        assert info.value.penetration == pytest.approx(0.1, abs=1e-12)

    @pytest.mark.parametrize(
        "batch", [1, packings.MAX_PAIR_BATCH], ids=["one_pair_batches", "module_batches"]
    )
    def test_overlap_reports_lexicographic_first_pair(self, monkeypatch, batch):
        # the sweep meets (1, 2) and (1, 4) before (0, 3)
        monkeypatch.setattr(packings, "MAX_PAIR_BATCH", batch)
        balls = [
            Ball((10.0, 0.0, 0.0), 1.0),
            Ball((0.0, 0.0, 0.0), 1.0),
            Ball((1.5, 0.0, 0.0), 1.0),
            Ball((11.25, 0.0, 0.0), 1.0),
            Ball((0.0, 1.0, 0.0), 1.0),
        ]
        with pytest.raises(OverlapError) as info:
            packing_from_balls(balls)
        assert info.value.pair == (0, 3)
        assert info.value.penetration == pytest.approx(0.75, abs=1e-15)

    def test_overlap_between_radius_classes_reports_first_pair(self, monkeypatch):
        # (0, 3), a radius-4 ball and a radius-1/4 one, is measured on the
        # grid of the larger class; (1, 2) and (1, 4) on the unit balls' grid
        monkeypatch.setattr(packings, "MAX_PAIR_BATCH", 1)
        balls = [
            Ball((10.0, 0.0, 0.0), 4.0),
            Ball((0.0, 0.0, 0.0), 1.0),
            Ball((1.5, 0.0, 0.0), 1.0),
            Ball((14.0, 0.0, 0.0), 0.25),
            Ball((0.0, 1.0, 0.0), 1.0),
        ]
        with pytest.raises(OverlapError) as info:
            packing_from_balls(balls)
        assert info.value.pair == (0, 3)
        assert info.value.penetration == 0.25

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -1e-9, 1.0, 1e308])
    def test_invalid_tolerance_rejected(self, tolerance):
        # from 1 up no pair is an overlap and every measured pair an edge
        with pytest.raises(DomainError, match=r"\[0, 1\)"):
            load_packing(read("two_balls.json"), tolerance=tolerance)

    @pytest.mark.parametrize("digits", [400, 5000])
    @pytest.mark.parametrize(
        "ball",
        ['"center": [%s, 0, 0], "radius": 1', '"center": [0, 0, 0], "radius": %s'],
        ids=["center", "radius"],
    )
    def test_integer_beyond_double_range_rejected(self, digits, ball):
        # float() of such an integer raised OverflowError, and json.loads a
        # ValueError past 4300 digits; JSON 1e400 already read as inf
        doc = '{"balls": [{%s}]}' % (ball % ("9" * digits))
        with pytest.raises(PackingParseError, match="ball 0: coordinates must be finite"):
            load_packing(doc)

    def test_integers_read_as_their_floats(self):
        doc = '{"balls": [{"center": [0, -3, 9007199254740993], "radius": 2}]}'
        ball = load_packing(doc).balls[0]
        assert ball.center == (0.0, -3.0, float(9007199254740993))
        assert ball.radius == 2.0

    @pytest.mark.parametrize("spacing", [1.0, 2.0])
    def test_magnitude_beyond_limit_rejected(self, spacing):
        # squared coordinate differences of such balls overflow to inf, which
        # hid both this overlap (spacing 1) and this tangency (spacing 2)
        r = 1e160
        balls = [Ball((0.0, 0.0, 0.0), r), Ball((spacing * r, 0.0, 0.0), r)]
        with pytest.raises(DomainError, match="magnitude"):
            packing_from_balls(balls)

    @pytest.mark.parametrize(
        "center, radius",
        [
            ((math.nan, 0.0, 0.0), 1.0),
            ((0.0, 0.0, math.nan), 1.0),
            ((math.inf, 0.0, 0.0), 1.0),
            ((-1.0, 0.0, 0.0), math.nan),
            ((-1.0, 0.0, 0.0), math.inf),
        ],
    )
    def test_non_finite_ball_rejected(self, center, radius):
        # a NaN coordinate used to fail every distance comparison, leaving
        # ball 0 with degree 0 next to the tangent pair (1, 2)
        balls = [Ball(center, radius), Ball((0.0, 0.0, 0.0), 1.0), Ball((2.0, 0.0, 0.0), 1.0)]
        with pytest.raises(DomainError, match="finite"):
            packing_from_balls(balls)

    @pytest.mark.parametrize("radius", [1e-160, 1e-170, 0.0])
    def test_radius_below_limit_rejected(self, radius):
        # squared distances of such balls underflow, which made this tangent
        # pair read as an overlap of depth 2 r
        balls = [Ball((0.0, 0.0, 0.0), radius), Ball((2.0 * radius, 0.0, 0.0), radius)]
        with pytest.raises(DomainError, match="radii must be at least"):
            packing_from_balls(balls)

    def test_radius_at_limit_measured(self):
        r = 1.0 / packings.MAX_MAGNITUDE
        tangent = packing_from_balls([Ball((0.0, 0.0, 0.0), r), Ball((2.0 * r, 0.0, 0.0), r)])
        assert contact_graph(tangent).edges == ((0, 1),)
        with pytest.raises(OverlapError):
            packing_from_balls([Ball((0.0, 0.0, 0.0), r), Ball((r, 0.0, 0.0), r)])

    def test_magnitude_at_limit_measured(self):
        r = packings.MAX_MAGNITUDE / 2.0
        tangent = packing_from_balls([Ball((0.0, 0.0, 0.0), r), Ball((2.0 * r, 0.0, 0.0), r)])
        assert contact_graph(tangent).edges == ((0, 1),)
        with pytest.raises(OverlapError):
            packing_from_balls([Ball((0.0, 0.0, 0.0), r), Ball((r, 0.0, 0.0), r)])

    def test_fcc_fixture_round_trip(self):
        packing = load_packing(read("fcc_n2.json"))
        generated = fcc_fragment(2)
        assert len(packing) == len(generated)
        for loaded, made in zip(packing.balls, generated.balls):
            assert loaded.radius == made.radius
            assert np.allclose(loaded.center, made.center, atol=1e-12)

    def test_parse_error_reports_position(self):
        # fixture is truncated JSON: the decode error carries line/column
        with pytest.raises(PackingParseError) as info:
            load_packing(read("malformed.json"))
        assert "line" in str(info.value)

    def test_schema_error_names_ball(self):
        # appending the brace completes the JSON but leaves a 2d center
        with pytest.raises(PackingParseError) as info:
            load_packing(read("malformed.json") + "}")
        assert "ball 0" in str(info.value)

    @pytest.mark.parametrize(
        "payload",
        [
            "[]",
            '{"balls": "no"}',
            '{"balls": [{"center": [0, 0], "radius": 1}]}',
            '{"balls": [{"center": [0, 0, 0], "radius": -1}]}',
            '{"balls": [{"center": [0, 0, 0], "radius": "r"}]}',
            '{"balls": [{"center": [0, 0, 0]}]}',
            '{"balls": [{"center": [0, 0, 1e400], "radius": 1}]}',
            '{"balls": [{"center": [true, 0, 0], "radius": 1}]}',
            '{"balls": [{"center": [0, 0, 0], "radius": true}]}',
        ],
    )
    def test_schema_violations(self, payload):
        with pytest.raises(PackingParseError):
            load_packing(payload)

    def test_deep_nesting_is_a_parse_error(self):
        # json.loads raises RecursionError on such a document
        with pytest.raises(PackingParseError, match="nests too deeply"):
            load_packing('{"balls": ' + "[" * 100_000 + "]" * 100_000 + "}")

    def test_tolerance_allows_near_tangency(self):
        doc = '{"balls": [{"center": [0, 0, 0], "radius": 1}, {"center": [1.9999999999, 0, 0], "radius": 1}]}'
        packing = load_packing(doc)
        graph = contact_graph(packing)
        assert len(graph.edges) == 1


class TestContactGraph:
    def test_two_tangent_balls(self):
        graph = contact_graph(load_packing(read("two_balls.json")))
        assert graph.edges == ((0, 1),)
        assert graph.average_degree == 1.0

    def test_single_ball(self):
        graph = contact_graph(packing_from_balls([Ball((0.0, 0.0, 0.0), 1.0)]))
        assert graph.edges == ()
        assert graph.average_degree == 0.0

    def test_separated_balls_have_no_edge(self):
        packing = packing_from_balls(
            [Ball((0.0, 0.0, 0.0), 1.0), Ball((2.5, 0.0, 0.0), 1.0)]
        )
        assert contact_graph(packing).edges == ()

    def test_reordering_gives_isomorphic_graph(self, rng):
        packing = fcc_fragment(2)
        graph = contact_graph(packing)
        perm = rng.permutation(len(packing))
        reordered = packing_from_balls([packing.balls[i] for i in perm])
        regraph = contact_graph(reordered)
        assert regraph.average_degree == graph.average_degree
        inverse = np.argsort(perm)
        mapped = {tuple(sorted((int(inverse[i]), int(inverse[j])))) for i, j in graph.edges}
        assert mapped == set(regraph.edges)

    @pytest.mark.parametrize(
        "batch", [7, packings.MAX_PAIR_BATCH], ids=["small_batches", "module_batches"]
    )
    def test_matches_brute_force(self, rng, monkeypatch, batch):
        monkeypatch.setattr(packings, "MAX_PAIR_BATCH", batch)
        cases = [
            fcc_fragment(3),
            tangent_chain(rng, axis=0),
            tangent_chain(rng, axis=1),
            multiscale_packing(rng),
        ]
        for packing in cases:
            edges = contact_graph(packing).edges
            assert edges == brute_force_edges(packing)
            assert len(edges) >= len(packing) - 1
        radii = [b.radius for b in cases[-1].balls]
        assert max(radii) / min(radii) >= 1e3

    @pytest.mark.parametrize("base", [0.0, 1e6])
    @pytest.mark.parametrize("tolerance", [1e-9, 1e-3])
    def test_pairs_at_tolerance_boundary(self, rng, base, tolerance):
        packing = widest_pairs(rng, base, tolerance)
        edges = contact_graph(packing).edges
        assert edges == brute_force_edges(packing)
        assert edges == tuple((2 * k, 2 * k + 1) for k in range(200))

    @pytest.mark.parametrize(
        "batch",
        [1, 7, packings.MAX_PAIR_BATCH],
        ids=["one_pair_batches", "small_batches", "module_batches"],
    )
    # a cell index past the int64 range casts with an "invalid value" warning
    @pytest.mark.filterwarnings("error")
    def test_radius_spread_matches_all_pairs(self, rng, monkeypatch, batch):
        monkeypatch.setattr(packings, "MAX_PAIR_BATCH", batch)
        big = 2.0**496  # 2.0e149, near MAX_MAGNITUDE
        tiny = 2.0**-475  # smallest radii above 1.02e-150, near 1 / MAX_MAGNITUDE
        # a tangent pair near MAX_MAGNITUDE and a lone tiny ball far from the
        # cluster of tiny balls: the extent, not the reach, sets the tiny
        # classes' cell side
        far = [
            Ball((2.0 * big, 0.0, 0.0), big),
            Ball((4.0 * big, 0.0, 0.0), big),
            Ball((0.0, big, 0.0), tiny),
        ]
        cases = [
            packing_from_balls(spread_packing(rng, 1.0)),
            packing_from_balls(spread_packing(rng, big)),
            packing_from_balls(spread_packing(rng, tiny)),
            packing_from_balls(spread_packing(rng, tiny) + far),
        ]
        for packing in cases:
            centers = np.array([b.center for b in packing.balls])
            radii = np.array([b.radius for b in packing.balls])
            assert radii.max() / radii.min() >= 1e6
            pairs = []
            for i, j, _ in packings._close_pairs(centers, radii, packing.tolerance):
                assert len(i) <= batch
                pairs += zip(i.tolist(), j.tolist())
            assert all(i < j for i, j in pairs)
            assert len(set(pairs)) == len(pairs)
            edges = contact_graph(packing).edges
            assert edges == brute_force_edges(packing)
            assert len(edges) >= len(packing) // 2
        assert (120, 121) in cases[-1].edges  # the pair near MAX_MAGNITUDE

    def test_candidates_per_ball_on_space_filling_packing(self, monkeypatch):
        # the grid measures each unit ball against the other balls in the 27
        # cells of side 2 around it, about 1.4 balls per cell, each pair once;
        # a one-axis sweep measures 149 pairs per ball here
        yielded = []
        close_pairs = packings._close_pairs

        def counted(*args):
            for batch in close_pairs(*args):
                yielded.append(len(batch[0]))
                yield batch

        monkeypatch.setattr(packings, "_close_pairs", counted)
        packing = fcc_fragment(40)
        assert len(packing) == 1_505
        assert sum(yielded) <= 20 * len(packing)

    def test_one_pair_search_per_packing(self, monkeypatch):
        calls = []
        close_pairs = packings._close_pairs

        def counted(*args):
            calls.append(args)
            return close_pairs(*args)

        monkeypatch.setattr(packings, "_close_pairs", counted)
        packing = load_packing(read("fcc_n2.json"))
        graph = contact_graph(packing)
        audit = coverage_audit(packing, 1.755)
        assert len(calls) == 1
        assert audit.edge_count == len(graph.edges) == 60

    def test_packing_requires_edges(self):
        # the edges come from validation; a hand-built Packing has none to give
        balls = (Ball((0.0, 0.0, 0.0), 1.0),)
        with pytest.raises(TypeError):
            packings.Packing(balls=balls)
        with pytest.raises(TypeError):
            packings.Packing(balls, 1e-9)


class TestFccFragment:
    def test_one_shell_is_kissing_configuration(self):
        packing = fcc_fragment(1)
        assert len(packing) == 13
        graph = contact_graph(packing)
        assert graph.degrees()[0] == 12
        assert graph.average_degree < 12.0

    def test_interior_ball_degree_twelve(self):
        graph = contact_graph(fcc_fragment(2))
        assert graph.degrees()[0] == 12

    def test_average_degree_increases_toward_twelve(self):
        degrees = [contact_graph(fcc_fragment(n)).average_degree for n in (1, 2, 3)]
        assert degrees[0] < degrees[1] < degrees[2] < 12.0

    def test_nearest_neighbor_distance_is_two(self):
        packing = fcc_fragment(1)
        centers = np.array([b.center for b in packing.balls])
        dists = np.linalg.norm(centers[1:] - centers[0], axis=1)
        assert np.min(dists) == pytest.approx(2.0, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            fcc_fragment(0)


class TestCoverageAudit:
    def test_two_tangent_unit_balls_edge_sum(self):
        packing = load_packing(read("two_balls.json"))
        audit = coverage_audit(packing, 2.0)
        assert audit.edge_sum == pytest.approx(1.0 / 8.0, abs=1e-15)
        assert audit.edge_count == 1
        assert audit.edge_sum_ok

    def test_edge_contribution_identity(self, rng):
        # each contact with both caps non-empty contributes exactly the
        # two-sided constant
        for _ in range(100):
            rho = float(rng.uniform(1.05, 2.95))
            r1 = float(rng.uniform(0.5, 2.0))
            ratio_lo = (rho - 1.0) / 2.0
            ratio_hi = 2.0 / (rho - 1.0)
            r2 = r1 * float(rng.uniform(ratio_lo, min(ratio_hi, 4.0)))
            balls = [Ball((0.0, 0.0, 0.0), r1), Ball((r1 + r2, 0.0, 0.0), r2)]
            audit = coverage_audit(packing_from_balls(balls), rho)
            assert abs(audit.edge_sum - pair_sum_value(rho)) < 1e-12

    @pytest.mark.parametrize(
        "packing_of, rho, empty_caps",
        [
            # at 1.3 the sums of some unit balls depend on the order of addition
            (fcc_with_holes, 1.3, False),
            (fcc_with_holes, 1.755, True),
            (multiscale_packing, 1.755, True),
        ],
    )
    def test_matches_scalar_reference_loop(self, rng, packing_of, rho, empty_caps):
        packing = packing_of(rng)
        sums = [0.0] * len(packing)
        fractions = []
        for i, j in packing.edges:
            ri, rj = packing.balls[i].radius, packing.balls[j].radius
            a_ij = coverage_fraction(rho, ri, rj)
            a_ji = coverage_fraction(rho, rj, ri)
            sums[i] += a_ij
            sums[j] += a_ji
            fractions += [a_ij, a_ji]
        degrees = contact_graph(packing).degrees()
        audit = coverage_audit(packing, rho)
        assert (0.0 in fractions) == empty_caps
        assert audit.rows == tuple(zip(range(len(packing)), degrees, sums))
        assert all(type(value) is float for _, _, value in audit.rows)
        assert audit.edge_sum == math.fsum(fractions)
        assert audit.edge_sum_floor == pair_sum_value(rho) * len(packing.edges)
        assert audit.edge_sum_ok

    def test_edge_sum_correctly_rounded_on_large_packing(self):
        # 10,889 balls and 61,368 edges: an edge-by-edge running sum fell
        # 1.3e-12 relative below the floor and reported a false violation
        audit = coverage_audit(fcc_fragment(150), 1.755)
        assert audit.edge_count == 61_368
        assert audit.edge_sum_ok
        assert audit.violations == ()

    def test_fcc_audit_against_max_density(self):
        packing = fcc_fragment(2)
        reference = max_density(rho_geometry(1.755), SearchConfig(grid_step=0.1))
        audit = coverage_audit(packing, 1.755, max_density_ref=reference.max_density)
        assert audit.per_ball_ok
        assert audit.violations == ()
        assert audit.edge_sum_ok
        # interior ball: 12 identical unit-ball contacts
        per_contact = pair_sum_value(1.755) / 2.0
        assert audit.rows[0][1] == 12
        assert audit.rows[0][2] == pytest.approx(12.0 * per_contact, rel=1e-12)

    def test_average_degree_below_certified_bound(self):
        graph = contact_graph(fcc_fragment(2))
        assert graph.average_degree <= 13.955

    @pytest.mark.parametrize("rho", [1.3, math.sqrt(3.0), 1.755, 2.2])
    def test_per_ball_sums_below_max_density(self, rho):
        packing = fcc_fragment(2)
        reference = max_density(rho_geometry(rho), SearchConfig(grid_step=0.1))
        audit = coverage_audit(packing, rho, max_density_ref=reference.max_density)
        assert audit.per_ball_ok

    def test_csv_format(self):
        audit = coverage_audit(fcc_fragment(1), 1.755)
        text = audit_to_csv(audit)
        lines = text.strip().split("\n")
        assert lines[0] == AUDIT_CSV_HEADER
        assert len(lines) == 14
        index, degree, value = lines[1].split(",")
        assert index == "0"
        assert degree == "12"
        assert float(value) > 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            coverage_audit(fcc_fragment(1), 3.5)

    @pytest.mark.parametrize("reference", [math.nan, math.inf])
    def test_non_finite_density_reference_rejected(self, reference):
        # a NaN reference once switched the per-ball check off: no sum exceeds it
        with pytest.raises(DomainError, match="finite"):
            coverage_audit(fcc_fragment(2), 1.755, max_density_ref=reference)
