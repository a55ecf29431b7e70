import dataclasses
import gc
import itertools
import json
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


def multiscale_packing(
    rng, count=300, draw=lambda rng: float(10.0 ** rng.uniform(-2.0, 2.0))
):
    """A unit ball and balls of radii draw(rng), by default log-uniform in
    [0.01, 100], each placed tangent to an earlier one in a random
    direction and kept only if it overlaps none."""
    centers = [np.zeros(3)]
    radii = [1.0]
    while len(radii) < count:
        r = draw(rng)
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


# radii on and one ulp either side of 2^(k/4), among them the powers of two
CLASS_BOUNDARY_RADII = sorted(
    float(np.nextafter(2.0 ** (k / 4), toward))
    for k in range(-8, 9)
    for toward in (0.0, 2.0 ** (k / 4), math.inf)
)


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


def fcc_document(shells):
    balls = fcc_fragment(shells).balls
    return json.dumps({"balls": [{"center": b.center, "radius": b.radius} for b in balls]})


CENTER = "ball 0: center must be [x, y, z]"
# each malformed document, with the message that rejects it
SCHEMA_VIOLATIONS = {
    "[]": "packing document must be an object with a 'balls' list",
    '{"balls": "no"}': "'balls' must be a list",
    '{"balls": [{"center": [0, 0], "radius": 1}]}': CENTER,
    '{"balls": [{"center": [0, 0, 0], "radius": -1}]}': "ball 0: radius must be positive",
    '{"balls": [{"center": [0, 0, 0], "radius": "r"}]}': "ball 0: radius must be a number",
    '{"balls": [{"center": [0, 0, 0]}]}': "ball 0: radius must be a number",
    '{"balls": [{"center": [0, 0, 1e400], "radius": 1}]}': "ball 0: coordinates must be finite",
    '{"balls": [{"center": [true, 0, 0], "radius": 1}]}': CENTER,
    '{"balls": [{"center": [0, 0, 0], "radius": true}]}': "ball 0: radius must be a number",
    '{"balls": [{"center": [0, 0, 0, 0], "radius": 1}]}': CENTER,
    '{"balls": [{"center": [0, 0, true], "radius": 1}]}': CENTER,
    '{"balls": [{"center": "xyz", "radius": 1}]}': CENTER,
    '{"balls": [{"center": [[0], [0], [0]], "radius": 1}]}': CENTER,
    '{"balls": [{"center": null, "radius": 1}]}': CENTER,
    '{"balls": [[0, 0, 0, 1]]}': "ball 0 must be an object",
}


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

    @pytest.mark.parametrize("payload", list(SCHEMA_VIOLATIONS))
    def test_schema_violations(self, payload):
        with pytest.raises(PackingParseError) as info:
            load_packing(payload)
        assert str(info.value) == SCHEMA_VIOLATIONS[payload]

    @pytest.mark.parametrize(
        "ball_3, ball_7, message",
        [
            ('"center": [1e400, 0, 0], "radius": 1', '"center": [28, 0, 0], "radius": "1"',
             "ball 3: coordinates must be finite"),
            ('"center": [12, 0, 0], "radius": true', '"center": [1e400, 0, 0], "radius": 1',
             "ball 3: radius must be a number"),
        ],
        ids=["value_before_type", "type_before_value"],
    )
    def test_first_failing_ball_wins(self, ball_3, ball_7, message):
        # the type checks run per ball and the value checks on the arrays;
        # still the lower index wins, whichever check fails there
        balls = [f'{{"center": [{4 * k}, 0, 0], "radius": 1}}' for k in range(10)]
        balls[3], balls[7] = f"{{{ball_3}}}", f"{{{ball_7}}}"
        with pytest.raises(PackingParseError) as info:
            load_packing('{"balls": [' + ", ".join(balls) + "]}")
        assert str(info.value) == message

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

    @pytest.mark.parametrize("outliers", [[1.9], [1.9, 1.3]], ids=["one", "two"])
    def test_lone_large_balls_do_not_widen_the_cells(self, outliers):
        # a ball of radius 1.9 shares the unit balls' power of two; as one
        # class with them it set a cell side of 3.8 and about 90 candidates
        # per ball here.  Each outlier is tangent to the outermost unit ball
        # on one side of the x axis.
        balls = list(fcc_fragment(40).balls)
        for sign, radius in zip((1.0, -1.0), outliers):
            x, y, z = max((b.center for b in balls), key=lambda c: sign * c[0])
            balls.append(Ball((x + sign * (1.0 + radius), y, z), radius))
        centers = np.array([b.center for b in balls])
        radii = np.array([b.radius for b in balls])
        classes = packings._radius_classes(radii)
        assert len(set(classes.tolist())) == 1 + len(outliers)
        candidates = sum(len(i) for i, _, _ in packings._close_pairs(centers, radii, 1e-9))
        assert candidates <= 20 * len(balls)
        packing = packing_from_balls(balls)
        assert packing.edges == brute_force_edges(packing)
        assert len(packing.edges) == len(fcc_fragment(40).edges) + len(outliers)

    @settings(max_examples=60, deadline=None)
    @given(
        radii=st.lists(st.sampled_from(CLASS_BOUNDARY_RADII), min_size=2, max_size=40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_classes_at_their_boundaries(self, radii, seed):
        # radii on and one ulp either side of 2^(k/4): the ratios between
        # them sit on both sides of the class gap and of the powers of two
        rng = np.random.default_rng(seed)
        packing = multiscale_packing(rng, len(radii), draw=lambda rng: float(rng.choice(radii)))
        assert packing.edges == brute_force_edges(packing)
        reach = np.array(radii)
        order = np.argsort(reach, kind="stable")
        step = np.diff(packings._radius_classes(reach)[order])
        # the class never falls as the reach grows, and opens exactly at a
        # power of two or a ratio above 2^(1/4) between consecutive reaches
        assert np.all((step == 0) | (step == 1))
        ranked = reach[order]
        octave = np.frexp(ranked[1:])[1] > np.frexp(ranked[:-1])[1]
        assert np.array_equal(step == 1, octave | (ranked[1:] > ranked[:-1] * 2.0**0.25))

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

    @pytest.mark.parametrize("batch", [packings.MAX_PAIR_BATCH, 7])
    def test_pair_distances_keep_the_row_sum_bits(self, rng, monkeypatch, batch):
        # distances from the three coordinate columns have the bits of
        # summing each pair's squared difference row, also when batches
        # split a query's candidates
        monkeypatch.setattr(packings, "MAX_PAIR_BATCH", batch)
        for packing in (fcc_fragment(3), multiscale_packing(rng, 150)):
            centers = np.array([b.center for b in packing.balls])
            radii = np.array([b.radius for b in packing.balls])
            pairs = 0
            for i, j, dist in packings._close_pairs(centers, radii, packing.tolerance):
                expected = np.sqrt(np.sum((centers[j] - centers[i]) ** 2, axis=1))
                assert dist.tobytes() == expected.tobytes()
                pairs += len(i)
            assert pairs >= len(packing.edges) > 0

    def test_packing_requires_edges(self):
        # the edges come from validation; a hand-built Packing has none to give
        balls = (Ball((0.0, 0.0, 0.0), 1.0),)
        with pytest.raises(TypeError):
            packings.Packing(balls=balls)
        with pytest.raises(TypeError):
            packings.Packing(balls, 1e-9)


class TestPackingArrays:
    @pytest.mark.parametrize("name", ["two_balls.json", "fcc_n2.json"])
    def test_load_equals_packing_from_its_balls(self, name):
        first, second = load_packing(read(name)), load_packing(read(name))
        assert first == second and hash(first) == hash(second)
        assert first == packing_from_balls(first.balls)
        assert first != load_packing(read(name), tolerance=1e-6)

    def test_arrays_hold_the_packing(self):
        packing = load_packing(read("fcc_n2.json"))
        assert packing.centers.dtype == packing.radii.dtype == np.float64
        assert packing.ends.dtype == np.intp
        assert packing.centers.tolist() == [list(b.center) for b in packing.balls]
        assert packing.radii.tolist() == [b.radius for b in packing.balls]
        assert packing.ends.T.tolist() == [list(edge) for edge in packing.edges]
        assert all(type(v) is int for edge in packing.edges for v in edge)

    @pytest.mark.parametrize("shells", [2, 20])
    def test_edges_share_one_int_per_ball(self, shells):
        # 20 shells hold 555 balls, past the ints that CPython caches
        packing = fcc_fragment(shells)
        labels = {id(v) for edge in packing.edges for v in edge}
        assert 0 < len(labels) <= len(packing)

    @pytest.mark.parametrize("name", ["centers", "radii", "ends"])
    def test_arrays_read_only(self, name):
        for packing in (load_packing(read("fcc_n2.json")), fcc_fragment(1)):
            with pytest.raises(ValueError, match="read-only"):
                getattr(packing, name)[0] = 0

    @pytest.mark.parametrize("touch", [False, True], ids=["fresh", "cached"])
    def test_pickle_round_trip(self, touch):
        packing = load_packing(read("fcc_n2.json"))
        if touch:
            assert packing.edges and packing.balls
        copy = pickle.loads(pickle.dumps(packing))
        assert copy == packing and hash(copy) == hash(packing)
        assert not any(getattr(copy, name).flags.writeable for name in ("centers", "radii", "ends"))

    def test_packing_from_balls_keeps_the_callers_balls(self):
        # read back from the arrays: equal to the caller's, ints as floats
        balls = [Ball((0, 0, 0), 1), Ball((2, 0, 0), 1)]
        packing = packing_from_balls(balls)
        assert packing.balls == tuple(balls)
        assert packing.balls[0] == Ball((0.0, 0.0, 0.0), 1.0)
        assert type(packing.balls[0].radius) is float
        assert packing.edges == ((0, 1),)
        assert packing == load_packing(read("two_balls.json"))
        assert packing_from_balls(iter(balls)) == packing

    @pytest.mark.parametrize(
        "source", ["fcc_n2.json", "fcc_fragment_6", "fcc_fragment_6_direct"]
    )
    def test_graph_pass_builds_no_ball(self, monkeypatch, source):
        document = read(source) if source == "fcc_n2.json" else fcc_document(6)
        built = []

        class CountingBall(Ball):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(packings, "Ball", CountingBall)
        # the direct case builds the fixture itself under the counter
        packing = fcc_fragment(6) if source.endswith("direct") else load_packing(document)
        edges = contact_graph(packing).edges
        audit_to_csv(coverage_audit(packing, 1.755))
        assert built == []
        monkeypatch.undo()
        described = json.loads(document, parse_int=float)["balls"]
        assert packing.balls == tuple(Ball(tuple(b["center"]), b["radius"]) for b in described)
        assert edges == brute_force_edges(packing) != ()

    @pytest.mark.parametrize(
        "document, rows, csv",
        [
            ('{"balls": []}', (), AUDIT_CSV_HEADER + "\n"),
            (
                '{"balls": [{"center": [0, 0, 0], "radius": 1}]}',
                ((0, 0, 0.0),),
                AUDIT_CSV_HEADER + "\n0,0,0\n",
            ),
        ],
        ids=["empty", "one_ball"],
    )
    def test_fewer_than_two_balls(self, document, rows, csv):
        packing = load_packing(document)
        assert packing.centers.shape == (len(rows), 3) and packing.ends.shape == (2, 0)
        assert packing.ends.dtype == np.intp
        assert contact_graph(packing).edges == packing.edges == ()
        audit = coverage_audit(packing, 1.755)
        assert audit.rows == rows and audit.edge_count == 0 and audit.edge_sum_ok
        assert audit_to_csv(audit) == csv
        assert packing == packing_from_balls(packing.balls)


@pytest.fixture(params=[True, False], ids=["collector_on", "collector_off"])
def collector(request):
    """The cyclic collector's state before the call; put back after the test."""
    enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if enabled else gc.disable)()


def collections_during(build):
    """build()'s value and the generations of the collections it runs,
    counted from a full collection, so that what runs depends on build()
    alone."""
    started = []

    def record(phase, info):
        if phase == "start":
            started.append(info["generation"])

    assert gc.isenabled()
    gc.collect()
    gc.callbacks.append(record)
    try:
        value = build()
    finally:
        gc.callbacks.remove(record)
    return value, started


class TestCollectorPause:
    DEEP = '{"balls": ' + "[" * 100_000 + "]" * 100_000 + "}"
    # each call that pauses the collector, with the message it raises, if any
    CALLS = {
        "load": (lambda: load_packing(read("fcc_n2.json")), None),
        "invalid_json": (lambda: load_packing('{"balls": ['), "invalid packing document"),
        "too_deep": (lambda: load_packing(TestCollectorPause.DEEP), "nests too deeply"),
        "non_object_ball": (lambda: load_packing('{"balls": [1]}'), "ball 0 must be an object"),
        "bad_center": (lambda: load_packing('{"balls": [{"center": [0], "radius": 1}]}'), CENTER),
        "edges": (lambda: fcc_fragment(2).edges, None),
        "audit": (lambda: coverage_audit(fcc_fragment(2), 1.755), None),
    }

    @pytest.mark.parametrize("name", CALLS)
    def test_collector_state_restored(self, collector, name):
        call, message = self.CALLS[name]
        if message is None:
            call()
        else:
            with pytest.raises(PackingParseError, match=re.escape(message)):
                call()
        assert gc.isenabled() is collector

    def test_edges_build_runs_no_collection_beyond_one_young(self):
        # without the pause, these 7,992 edge tuples run 11 collections
        packing = fcc_fragment(40)
        edges, started = collections_during(lambda: packing.edges)
        assert len(edges) == 7_992 and started in ([], [0])

    def test_load_runs_no_collection_beyond_one_young(self):
        # without the pause, parsing these 1,505 balls runs 4 collections
        document = fcc_document(40)
        packing, started = collections_during(lambda: load_packing(document))
        assert len(packing) == 1_505 and started in ([], [0])

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

    @pytest.mark.parametrize("shells", [1.5, True])
    def test_shell_count_must_be_an_integer(self, shells):
        with pytest.raises(DomainError, match="shell count"):
            fcc_fragment(shells)


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
        assert all(type(degree) is int for _, degree, _ in audit.rows)
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

    @settings(max_examples=300, deadline=None)
    @given(st.floats(), st.integers(min_value=-(10**40), max_value=10**40))
    @example(math.nan, 2**63)
    @example(math.inf, -(2**63))
    @example(-math.inf, 0)
    @example(-0.0, 10**30)
    @example(5e-324, -1)
    @example(2.2250738585072014e-308 / 3, 1)
    def test_percent_format_matches_format(self, value, integer):
        assert "%.12g" % value == format(value, ".12g")
        assert "%d" % integer == str(integer)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10**12),
                st.integers(min_value=0, max_value=10**12),
                st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324]),
            ),
            max_size=20,
        )
    )
    def test_csv_rows_read_as_formatted(self, rows):
        audit = dataclasses.replace(coverage_audit(fcc_fragment(1), 1.755), rows=tuple(rows))
        expected = [AUDIT_CSV_HEADER]
        expected.extend(f"{index},{degree},{value:.12g}" for index, degree, value in rows)
        assert audit_to_csv(audit) == "\n".join(expected) + "\n"

    def test_domain(self):
        with pytest.raises(DomainError):
            coverage_audit(fcc_fragment(1), 3.5)

    def test_per_ball_violations_in_index_order(self):
        packing = fcc_fragment(2)
        sums = [value for _, _, value in coverage_audit(packing, 1.755).rows]
        # a reference that some sums exceed while others sit exactly on the limit
        reference = sorted(sums)[len(sums) // 2] - packings.DENSITY_MARGIN
        audit = coverage_audit(packing, 1.755, max_density_ref=reference)
        limit = reference + packings.DENSITY_MARGIN
        expected = tuple(
            f"ball {index} coverage sum {value!r} exceeds "
            f"max density {reference!r} + {packings.DENSITY_MARGIN!r}"
            for index, value in enumerate(sums)
            if value > limit
        )
        assert 0 < len(expected) < len(sums) and limit in sums
        assert audit.per_ball_ok is False
        assert audit.violations == expected
        assert "np.float64" not in "".join(audit.violations)
        assert coverage_audit(packing, 1.755, max_density_ref=max(sums)).per_ball_ok is True

    @pytest.mark.parametrize("reference", [math.nan, math.inf])
    def test_non_finite_density_reference_rejected(self, reference):
        # a NaN reference once switched the per-ball check off: no sum exceeds it
        with pytest.raises(DomainError, match="finite"):
            coverage_audit(fcc_fragment(2), 1.755, max_density_ref=reference)
