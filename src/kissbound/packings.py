"""Ball packing ingestion, contact graphs, and coverage audits.

A packing document is a single JSON object

    {"balls": [{"center": [x, y, z], "radius": r}, ...]}

with finite decimal numbers.  Tangency and overlap are decided with a
relative tolerance (default 1e-9) because exact tangency is not
representable for irrational configurations; the tolerance used is
recorded in every report.  The contact edges are found once, while the
packing is validated: one pair search on a multilevel cell grid, binned
by radius class, measures every candidate pair for the overlap check and
keeps the tangent ones, and the contact graph and the coverage audit read
them from the Packing.  A space-filling packing gives about 30 candidates
per ball; radii spread over L powers of two cost O(n L).

The coverage audit makes the counting argument behind the average-degree
bounds executable on a concrete packing: summed over the two ends of
every contact edge, the measuring-sphere coverage fractions are at least
f_3(rho) per edge, while each ball's own sum is a packing of caps on its
measuring sphere and therefore cannot exceed the maximum cap-triangle
density.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .caps import check_rho, coverage_fraction, pair_sum_value
from .errors import DomainError, OverlapError, PackingParseError

__all__ = [
    "Ball",
    "Packing",
    "ContactGraph",
    "CoverageAudit",
    "load_packing",
    "packing_from_balls",
    "contact_graph",
    "fcc_fragment",
    "coverage_audit",
    "audit_to_csv",
    "AUDIT_CSV_HEADER",
]

DEFAULT_TOLERANCE = 1e-9
# how far a ball's coverage sum may exceed the audit's max density reference
DENSITY_MARGIN = 1e-6
# candidate pairs per distance batch, which bounds the pair search's temporaries
MAX_PAIR_BATCH = 8_192
# most grid cells along an axis, so that a cell key fits in an int64
MAX_CELLS = 2**20
# relative padding of a grid cell side against rounding (see _close_pairs)
_CELL_PAD = 8.0 * np.finfo(np.float64).eps * MAX_CELLS
# largest coordinate or radius magnitude: squared distances of such balls
# stay far below the float64 overflow threshold; radii below its reciprocal
# are rejected, because squared distances of such balls underflow
MAX_MAGNITUDE = 1e150


@dataclass(frozen=True)
class Ball:
    center: tuple[float, float, float]
    radius: float


@dataclass(frozen=True, kw_only=True)
class Packing:
    """Validated list of balls with pairwise non-intersecting interiors.

    edges are the tangent pairs (i, j), i < j, in lexicographic order.
    They are found once, while the packing is validated, so build a
    Packing with packing_from_balls or load_packing.
    """

    balls: tuple[Ball, ...]
    edges: tuple[tuple[int, int], ...]
    tolerance: float = DEFAULT_TOLERANCE

    def __len__(self) -> int:
        return len(self.balls)


@dataclass(frozen=True)
class ContactGraph:
    """Tangency graph of a packing; edges are index pairs with i < j."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    @property
    def average_degree(self) -> float:
        if self.vertex_count == 0:
            return 0.0
        return 2.0 * len(self.edges) / self.vertex_count

    def degrees(self) -> list[int]:
        out = [0] * self.vertex_count
        for i, j in self.edges:
            out[i] += 1
            out[j] += 1
        return out


def packing_from_balls(
    balls: list[Ball] | tuple[Ball, ...], tolerance: float = DEFAULT_TOLERANCE
) -> Packing:
    """Validate non-overlap, find the contact edges and build a Packing.

    Raises OverlapError naming the first offending pair (lexicographic)
    and its penetration depth.
    """
    # from 1 up no distance is an overlap and every pair within reach an edge
    if not 0.0 <= tolerance < 1.0:
        raise DomainError(f"tolerance must lie in [0, 1), got {tolerance!r}")
    balls = tuple(balls)
    centers = np.array([b.center for b in balls], dtype=np.float64)
    radii = np.array([b.radius for b in balls], dtype=np.float64)
    # NaN passes the magnitude test below and every comparison with it fails,
    # which left such a ball silently without edges
    if not (np.isfinite(centers).all() and np.isfinite(radii).all()):
        raise DomainError("coordinates and radii must be finite")
    largest = float(max(np.abs(centers).max(initial=0.0), np.abs(radii).max(initial=0.0)))
    if largest > MAX_MAGNITUDE:
        raise DomainError(
            f"coordinates and radii must not exceed {MAX_MAGNITUDE:g} in magnitude, "
            f"got {largest!r}"
        )
    smallest = float(radii.min(initial=math.inf))
    if not smallest >= 1.0 / MAX_MAGNITUDE:
        raise DomainError(f"radii must be at least {1.0 / MAX_MAGNITUDE:g}, got {smallest!r}")
    overlaps = []
    hits = [np.zeros((2, 0), dtype=np.intp)]
    for i, j, dist in _close_pairs(centers, radii, tolerance):
        radius_sum = radii[i] + radii[j]
        bad = dist < radius_sum * (1.0 - tolerance)
        # search order is not index order: keep each batch's lexicographic first
        overlaps += sorted(zip(i[bad].tolist(), j[bad].tolist(), dist[bad].tolist()))[:1]
        hit = _tangent_mask(dist, radius_sum, tolerance)
        hits.append(np.stack((i[hit], j[hit])))
    if overlaps:
        i, j, dist = min(overlaps)
        raise OverlapError(i, j, float(radii[i] + radii[j] - dist))
    i, j = np.concatenate(hits, axis=1)
    order = np.lexsort((j, i))
    # one int object per ball, shared by all of its edges
    label = list(range(len(balls))).__getitem__
    edges = tuple(zip(map(label, i[order]), map(label, j[order])))
    return Packing(balls=balls, edges=edges, tolerance=tolerance)


def load_packing(document: str, tolerance: float = DEFAULT_TOLERANCE) -> Packing:
    """Parse and validate a packing document (JSON text)."""
    try:
        # an integer beyond the double range parses as inf, as 1e400 does,
        # not as an int that float() (or, past 4300 digits, json) rejects
        data = json.loads(document, parse_int=float)
    except json.JSONDecodeError as exc:
        raise PackingParseError(
            f"invalid packing document at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise PackingParseError("packing document nests too deeply") from exc
    if not isinstance(data, dict) or "balls" not in data:
        raise PackingParseError("packing document must be an object with a 'balls' list")
    raw_balls = data["balls"]
    if not isinstance(raw_balls, list):
        raise PackingParseError("'balls' must be a list")
    balls = []
    for index, item in enumerate(raw_balls):
        if not isinstance(item, dict):
            raise PackingParseError(f"ball {index} must be an object")
        center = item.get("center")
        radius = item.get("radius")
        # every JSON number parses as a float; true and false are bools
        if not isinstance(center, list) or [type(v) for v in center] != [float] * 3:
            raise PackingParseError(f"ball {index}: center must be [x, y, z]")
        if type(radius) is not float:
            raise PackingParseError(f"ball {index}: radius must be a number")
        if not all(math.isfinite(v) for v in (*center, radius)):
            raise PackingParseError(f"ball {index}: coordinates must be finite")
        if radius <= 0.0:
            raise PackingParseError(f"ball {index}: radius must be positive")
        balls.append(Ball(center=tuple(center), radius=radius))
    return packing_from_balls(balls, tolerance)


def _tangent_mask(dist: np.ndarray, radius_sum: np.ndarray, tol: float) -> np.ndarray:
    return np.abs(dist - radius_sum) <= tol * radius_sum


def _close_pairs(centers: np.ndarray, radii: np.ndarray, tol: float):
    """Yield batches (i, j, dist), i < j, of the pairs whose cells are
    neighbours on a multilevel grid (Ogarko and Luding, Comput. Phys.
    Commun. 183, 2012).

    Each ball gets the class floor(log2(reach)) of its padded reach
    r (1 + tol)(1 + 8 eps).  Class b has a grid whose cell side is at least
    twice its largest reach m_b, and every ball of class <= b looks up the
    class-b balls in the 27 cells around its own; within class b only
    i < j is kept, so each pair is measured once.  A space-filling packing
    gives about 30 candidates per ball, but a packing whose radii span L
    classes costs O(n L): a ball is looked up on every grid from its own
    class upwards.

    Both the tangency and the overlap test imply, after rounding,
    |dx| <= (ri + rj)(1 + tol)(1 + 3 eps) <= reach_i + reach_j <= 2 m_b on
    each axis, where b is the larger class of the two.  The cell side is
    at least extent / MAX_CELLS, so the quotient q = (x - low) / side is at
    most MAX_CELLS and its two roundings (subtraction, division) move it by
    at most 2 (eps / 2) q <= eps MAX_CELLS to first order in eps; the
    quotients of an accepted pair therefore differ by at most
    2 m_b / side + 2 eps MAX_CELLS.  The cell side 2 m_b (1 + _CELL_PAD),
    with _CELL_PAD = 8 eps MAX_CELLS, makes that at most 1 - 3 eps
    MAX_CELLS even after the side itself is rounded, a margin far above the
    second-order terms, so the floors of the two quotients, their cells,
    are at most one apart on each axis and no accepted pair is missed.
    """
    if len(radii) < 2:
        return
    reach = radii * ((1.0 + tol) * (1.0 + 8.0 * np.finfo(np.float64).eps))
    level = np.frexp(reach)[1] - 1
    low = centers.min(axis=0)
    min_side = float(np.ptp(centers, axis=0).max()) / MAX_CELLS
    # not np.unique, which imports numpy.ma (1.2 MB of resident memory)
    for b in sorted(set(level.tolist())):
        queries = np.flatnonzero(level <= b)
        same = level[queries] == b
        side = max(2.0 * float(reach[queries[same]].max()) * (1.0 + _CELL_PAD), min_side)
        # cells from 1, so the neighbours of every cell stay inside 0 .. span - 1
        cell = np.floor((centers[queries] - low) / side).astype(np.int64) + 1
        span = int(cell.max()) + 2
        key = (cell[:, 0] * span + cell[:, 1]) * span + cell[:, 2]
        order = np.argsort(key, kind="stable")
        queries, same, key = queries[order], same[order], key[order]
        grid, grid_key = queries[same], key[same]
        # the three cells z - 1 .. z + 1 of one (x, y) column are consecutive keys
        for dx, dy in itertools.product((-1, 0, 1), repeat=2):
            column = key + (dx * span + dy) * span
            first = np.searchsorted(grid_key, column - 1, side="left")
            stop = np.searchsorted(grid_key, column + 1, side="right")
            offsets = np.concatenate(([0], np.cumsum(stop - first)))
            total = int(offsets[-1])
            for start in range(0, total, MAX_PAIR_BATCH):
                flat = np.arange(start, min(start + MAX_PAIR_BATCH, total))
                k = np.searchsorted(offsets, flat, side="right") - 1
                a, c = queries[k], grid[first[k] + flat - offsets[k]]
                keep = ~same[k] | (a < c)
                i, j = np.minimum(a[keep], c[keep]), np.maximum(a[keep], c[keep])
                yield i, j, np.sqrt(np.sum((centers[j] - centers[i]) ** 2, axis=1))


def contact_graph(packing: Packing) -> ContactGraph:
    """Tangency graph: edge (i, j) iff |dist - (ri + rj)| <= tol (ri + rj).

    The edges are the ones packing_from_balls found during validation.
    """
    return ContactGraph(vertex_count=len(packing), edges=packing.edges)


def fcc_fragment(n: int) -> Packing:
    """Unit balls on face-centered-cubic sites within n coordination shells.

    Sites are the integer vectors with even coordinate sum and squared
    norm at most 2n, scaled by sqrt(2) so that the nearest-neighbor
    distance is exactly 2.  n = 1 gives the 13-ball kissing configuration.
    """
    if n < 1:
        raise DomainError(f"shell count must be at least 1, got {n!r}")
    limit = 2 * n
    reach = int(math.isqrt(limit))
    scale = math.sqrt(2.0)
    balls = []
    for i in range(-reach, reach + 1):
        for j in range(-reach, reach + 1):
            for k in range(-reach, reach + 1):
                if (i + j + k) % 2 != 0:
                    continue
                if i * i + j * j + k * k > limit:
                    continue
                balls.append(Ball(center=(i * scale, j * scale, k * scale), radius=1.0))
    balls.sort(key=lambda b: (sum(v * v for v in b.center), b.center))
    return packing_from_balls(balls)


@dataclass(frozen=True)
class CoverageAudit:
    """Per-ball coverage sums and the global edge-sum checks at one rho.

    rows are (ball_index, degree, coverage_sum); edge_sum is the two-sided
    coverage total over all contact edges, which is at least
    pair_sum_value(rho) * edge_count.  per_ball_ok reports whether every
    per-ball sum stays within max_density_ref + DENSITY_MARGIN.
    """

    rho: float
    tolerance: float
    rows: tuple[tuple[int, int, float], ...]
    edge_count: int
    edge_sum: float
    edge_sum_floor: float
    edge_sum_ok: bool
    max_density_ref: float | None
    per_ball_ok: bool | None
    violations: tuple[str, ...]


def coverage_audit(
    packing: Packing,
    rho: float,
    max_density_ref: float | None = None,
) -> CoverageAudit:
    """Check the coverage identities on a concrete packing.

    Violations are reported, not raised: a true violation would falsify
    the implementation, not the packing.
    """
    check_rho(rho)
    if max_density_ref is not None and not math.isfinite(max_density_ref):
        # no per-ball sum exceeds a NaN or infinite reference: the check would be void
        raise DomainError(f"max density reference must be finite, got {max_density_ref!r}")
    graph = contact_graph(packing)
    radii = np.array([b.radius for b in packing.balls], dtype=np.float64)
    # rows (i, j) of ends pair with rows (a_ij, a_ji) of fractions; raveled,
    # they interleave in the order an edge-by-edge loop adds them
    ends = np.array(graph.edges, dtype=np.intp).reshape(-1, 2)
    ends_radii = radii[ends]
    fractions = coverage_fraction(rho, ends_radii, ends_radii[:, ::-1]).ravel()
    sums = np.zeros(len(packing))
    np.add.at(sums, ends.ravel(), fractions)
    # correctly rounded: a running sum drifts past the tolerance on large packings
    edge_sum = math.fsum(fractions.tolist())
    rows = tuple(zip(range(len(packing)), graph.degrees(), sums.tolist()))
    floor = pair_sum_value(rho) * len(graph.edges)
    edge_ok = edge_sum >= floor - 1e-12 * max(1.0, abs(floor))
    violations = []
    if not edge_ok:
        violations.append(
            f"edge sum {edge_sum!r} below floor {floor!r} at rho={rho!r}"
        )
    per_ball_ok: bool | None = None
    if max_density_ref is not None:
        per_ball_ok = True
        limit = max_density_ref + DENSITY_MARGIN
        for index, _, value in rows:
            if value > limit:
                per_ball_ok = False
                violations.append(
                    f"ball {index} coverage sum {value!r} exceeds "
                    f"max density {max_density_ref!r} + {DENSITY_MARGIN!r}"
                )
    return CoverageAudit(
        rho=rho,
        tolerance=packing.tolerance,
        rows=rows,
        edge_count=len(graph.edges),
        edge_sum=edge_sum,
        edge_sum_floor=floor,
        edge_sum_ok=edge_ok,
        max_density_ref=max_density_ref,
        per_ball_ok=per_ball_ok,
        violations=tuple(violations),
    )


AUDIT_CSV_HEADER = "ball_index,degree,coverage_sum"


def audit_to_csv(audit: CoverageAudit) -> str:
    lines = [AUDIT_CSV_HEADER]
    lines.extend(
        f"{index},{degree},{value:.12g}" for index, degree, value in audit.rows
    )
    return "\n".join(lines) + "\n"
