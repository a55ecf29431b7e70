"""Seeded ball packings whose contact graph is known by construction.

The packing is a block of the face-centred-cubic lattice plus balls in
its holes.  In integer coordinates the lattice sites are the points of
{0..size}^3 with even coordinate sum; multiplying by sqrt(2) makes the
nearest-neighbour distance exactly 2, so unit balls on neighbouring sites
touch.  Each site holds a unit ball with probability `keep`.

- Every odd-sum integer point is an octahedral hole: six lattice sites at
  distance sqrt(2), so a ball of radius sqrt(2) - 1 touches each of them.
- Every point with all coordinates in Z + 1/2 is a tetrahedral hole: four
  lattice sites at distance sqrt(1.5), so a ball of radius sqrt(1.5) - 1
  touches each of them.
- With `large_radius` set, one large ball sits outside each face of the
  block, tangent to the kept unit ball nearest the face centre and to
  nothing else.  One of them has exactly `large_radius`, the others a
  seeded radius below it, so the largest radius (which sets the cell size
  of the spatial-grid contact search) does not vary with the seed.

No two hole balls touch and no hole ball touches a non-neighbouring site,
with gaps far above any tangency tolerance, so the contact graph is the
union of the neighbour relations above.  The ball order is shuffled by
the seed and the expected edges are renumbered to match.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

SQRT2 = math.sqrt(2.0)
OCTA_RADIUS = math.sqrt(2.0) - 1.0
TETRA_RADIUS = math.sqrt(1.5) - 1.0

# the six nearest-neighbour offsets with a positive leading component; the
# other six are their negatives, so each lattice edge is seen once
_LATTICE_STEPS = [
    step
    for step in itertools.product((-1, 0, 1), repeat=3)
    if sum(map(abs, step)) == 2 and step > (0, 0, 0)
]
_AXIS_STEPS = [step for step in itertools.product((-1, 0, 1), repeat=3) if sum(map(abs, step)) == 1]
_CORNERS = list(itertools.product((0, 1), repeat=3))


@dataclass
class GeneratedPacking:
    """Balls of one generated packing and its contact edges.

    centers is (n, 3), radii is (n,), edges is a sorted tuple of (i, j)
    pairs with i < j, indices into the shuffled ball order.
    """

    centers: np.ndarray
    radii: np.ndarray
    edges: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.radii)

    @property
    def radius_ratio(self) -> float:
        return float(self.radii.max() / self.radii.min())

    def to_json(self) -> str:
        balls = [
            {"center": [float(v) for v in center], "radius": float(radius)}
            for center, radius in zip(self.centers, self.radii)
        ]
        return json.dumps({"balls": balls})


def generate(
    seed: int,
    size: int,
    keep: float,
    large_radius: float | None = None,
) -> GeneratedPacking:
    """Packing on the block {0..size}^3 (integer units) drawn from `seed`."""
    if size < 2:
        raise ValueError(f"block size must be at least 2, got {size!r}")
    if not 0.0 < keep <= 1.0:
        raise ValueError(f"keep probability must lie in (0, 1], got {keep!r}")
    rng = np.random.default_rng(seed)
    span = size + 1
    grid = np.indices((span, span, span)).reshape(3, -1).T
    parity = grid.sum(axis=1) % 2
    sites = grid[parity == 0]
    octa = grid[parity == 1]
    tetra = np.indices((size, size, size)).reshape(3, -1).T

    kept_sites = sites[rng.random(len(sites)) < keep]
    # ball index of the unit ball on each lattice point, -1 where absent
    owner = np.full((span, span, span), -1, dtype=np.int64)
    owner[tuple(kept_sites.T)] = np.arange(len(kept_sites))

    centers = [kept_sites * SQRT2, octa * SQRT2, (tetra + 0.5) * SQRT2]
    radii = [
        np.ones(len(kept_sites)),
        np.full(len(octa), OCTA_RADIUS),
        np.full(len(tetra), TETRA_RADIUS),
    ]
    edges = []

    def touch(first_index, points, steps):
        # edges from balls first_index + row to the kept sites points + step
        for step in steps:
            target = points + np.asarray(step)
            inside = np.all((target >= 0) & (target <= size), axis=1)
            other = np.full(len(points), -1, dtype=np.int64)
            other[inside] = owner[tuple(target[inside].T)]
            rows = np.nonzero(other >= 0)[0]
            edges.append(np.stack([first_index + rows, other[rows]], axis=1))

    touch(0, kept_sites, _LATTICE_STEPS)
    touch(len(kept_sites), octa, _AXIS_STEPS)
    touch(len(kept_sites) + len(octa), tetra, _CORNERS)

    if large_radius is not None:
        count = sum(len(r) for r in radii)
        large = _face_balls(rng, kept_sites, size, large_radius)
        for offset, (site_index, center, radius) in enumerate(large):
            centers.append(center[None, :])
            radii.append(np.array([radius]))
            edges.append(np.array([[count + offset, site_index]]))

    centers = np.concatenate(centers)
    radii = np.concatenate(radii)
    pairs = np.concatenate(edges)

    order = rng.permutation(len(radii))
    new_index = np.empty_like(order)
    new_index[order] = np.arange(len(order))
    pairs = new_index[pairs]
    pairs.sort(axis=1)
    edge_list = sorted(map(tuple, pairs.tolist()))
    return GeneratedPacking(centers[order], radii[order], tuple(edge_list))


def _face_balls(rng, kept_sites, size, large_radius):
    """(site index, center, radius) of one large ball outside each face."""
    radii = rng.uniform(0.2 * large_radius, large_radius, size=6)
    radii[rng.integers(6)] = large_radius
    middle = size / 2.0
    out = []
    for face, (axis, side) in enumerate(itertools.product(range(3), (0, size))):
        on_face = np.nonzero(kept_sites[:, axis] == side)[0]
        if on_face.size == 0:
            raise ValueError("a face of the block holds no kept ball")
        lateral = np.delete(kept_sites[on_face], axis, axis=1) - middle
        # nearest to the face centre, ties to the lowest ball index
        site_index = int(on_face[np.argmin((lateral**2).sum(axis=1))])
        outward = np.zeros(3)
        outward[axis] = 1.0 if side else -1.0
        center = kept_sites[site_index] * SQRT2 + (1.0 + radii[face]) * outward
        out.append((site_index, center, float(radii[face])))
    # balls on neighbouring faces must stay apart, which needs a block
    # wide enough for the radius
    for (_, c1, r1), (_, c2, r2) in itertools.combinations(out, 2):
        if np.linalg.norm(c1 - c2) <= (r1 + r2) * (1.0 + 1e-6):
            raise ValueError(f"block size {size} is too small for radius {large_radius}")
    return out
