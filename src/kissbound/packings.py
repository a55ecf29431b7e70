"""Ball packing ingestion, contact graphs, and coverage audits.

A packing document is a single JSON object

    {"balls": [{"center": [x, y, z], "radius": r}, ...]}

with finite decimal numbers.  Tangency and overlap are decided with a
relative tolerance (default 1e-9) because exact tangency is not
representable for irrational configurations; the tolerance used is
recorded in every report.  The contact edges are found once, while the
packing is validated: one sweep-and-prune pair search measures every
candidate pair for the overlap check and keeps the tangent ones, and the
contact graph and the coverage audit read them from the Packing.

The coverage audit makes the counting argument behind the average-degree
bounds executable on a concrete packing: summed over the two ends of
every contact edge, the measuring-sphere coverage fractions are at least
f_3(rho) per edge, while each ball's own sum is a packing of caps on its
measuring sphere and therefore cannot exceed the maximum cap-triangle
density.
"""

from __future__ import annotations

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
# candidate pairs per distance batch, which bounds the sweep's temporaries
MAX_PAIR_BATCH = 8_192
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
    if not (math.isfinite(tolerance) and tolerance >= 0.0):
        raise DomainError(f"tolerance must be finite and non-negative, got {tolerance!r}")
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
        # sweep order is not index order: keep each batch's lexicographic first
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
        data = json.loads(document)
    except json.JSONDecodeError as exc:
        raise PackingParseError(
            f"invalid packing document at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
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
        if (
            not isinstance(center, list)
            or len(center) != 3
            or not all(type(v) in (int, float) for v in center)
        ):
            raise PackingParseError(f"ball {index}: center must be [x, y, z]")
        # type(), not isinstance: JSON true and false are bools, an int subclass
        if type(radius) not in (int, float):
            raise PackingParseError(f"ball {index}: radius must be a number")
        center_t = tuple(float(v) for v in center)
        radius_f = float(radius)
        if not all(math.isfinite(v) for v in center_t) or not math.isfinite(radius_f):
            raise PackingParseError(f"ball {index}: coordinates must be finite")
        if radius_f <= 0.0:
            raise PackingParseError(f"ball {index}: radius must be positive")
        balls.append(Ball(center=center_t, radius=radius_f))
    return packing_from_balls(balls, tolerance)


def _tangent_mask(dist: np.ndarray, radius_sum: np.ndarray, tol: float) -> np.ndarray:
    return np.abs(dist - radius_sum) <= tol * radius_sum


def _close_pairs(centers: np.ndarray, radii: np.ndarray, tol: float):
    """Yield batches (i, j, dist), i < j, of the pairs whose extents
    x +- r (1 + tol) meet on the axis where the centers spread most.

    Both the tangency and the overlap test imply, after rounding,
    |dx| <= (ri + rj)(1 + tol)(1 + 3 eps); the padded reach exceeds that
    and rounding x +- reach is monotone, so no accepted pair is missed.
    """
    count = len(radii)
    if count < 2:
        return
    axis = int(np.argmax(np.ptp(centers, axis=0)))
    reach = radii * ((1.0 + tol) * (1.0 + 8.0 * np.finfo(np.float64).eps))
    lo = centers[:, axis] - reach
    hi = centers[:, axis] + reach
    order = np.argsort(lo, kind="stable")
    # the k-th ball in sweep order meets the later balls k + 1 .. stop - 1
    stop = np.searchsorted(lo[order], hi[order], side="right")
    offsets = np.concatenate(([0], np.cumsum(stop - np.arange(1, count + 1))))
    total = int(offsets[-1])
    for start in range(0, total, MAX_PAIR_BATCH):
        flat = np.arange(start, min(start + MAX_PAIR_BATCH, total))
        k = np.searchsorted(offsets, flat, side="right") - 1
        a, b = order[k], order[flat - offsets[k] + k + 1]
        i, j = np.minimum(a, b), np.maximum(a, b)
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
