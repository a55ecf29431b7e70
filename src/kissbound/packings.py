"""Ball packing ingestion, contact graphs, and coverage audits.

A packing document is a single JSON object

    {"balls": [{"center": [x, y, z], "radius": r}, ...]}

with finite decimal numbers.  Tangency and overlap are decided with a
relative tolerance (default 1e-9) because exact tangency is not
representable for irrational configurations; the tolerance used is
recorded in every report.  A Packing holds arrays: the centers, the radii
and the two ends of every contact edge; its balls and edges, as Ball
objects and int pairs, are built on first access.  Parsing builds a dict
and a list per ball, edges a tuple per edge and the audit a row per ball;
these acyclic builds run with the cyclic garbage collector paused.  The
contact edges are found once, while the packing is validated: one pair
search on a multilevel cell grid, binned by radius class, measures every
candidate pair for the overlap check and keeps the tangent ones, and the
contact graph and the coverage audit read them from the Packing.  A class
is a run of the sorted radii, split at every power of two and wherever one
radius exceeds the next smaller by more than 2^(1/4), so a lone large ball
gets a grid of its own.  A space-filling packing gives about 30 candidates
per ball; radii spread over L classes cost O(n L).

The coverage audit makes the counting argument behind the average-degree
bounds executable on a concrete packing: summed over the two ends of
every contact edge, the measuring-sphere coverage fractions are at least
f_3(rho) per edge, while each ball's own sum is a packing of caps on its
measuring sphere and therefore cannot exceed the maximum cap-triangle
density.
"""

from __future__ import annotations

import contextlib
import functools
import gc
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
# a ratio between consecutive sorted reaches above this starts a radius class
_CLASS_GAP = 2.0**0.25
# largest coordinate or radius magnitude: squared distances of such balls
# stay far below the float64 overflow threshold; radii below its reciprocal
# are rejected, because squared distances of such balls underflow
MAX_MAGNITUDE = 1e150


@contextlib.contextmanager
def _collector_paused():
    """Turn the cyclic garbage collector off for the block; back on if it was on."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@dataclass(frozen=True)
class Ball:
    center: tuple[float, float, float]
    radius: float


@dataclass(frozen=True, kw_only=True, eq=False)
class Packing:
    """Validated balls with pairwise non-intersecting interiors, as arrays.

    centers (n, 3) and radii (n,) are float64; the columns (i, j), i < j,
    of ends (2, m) are the tangent pairs in lexicographic order.  The
    arrays are read-only.  balls and edges give the same packing as Ball
    objects and int pairs, built on first access; equality and hashing go
    over them.  load_packing, packing_from_balls and fcc_fragment build it
    from arrays, finding the edges once, while the packing is validated.
    """

    centers: np.ndarray
    radii: np.ndarray
    ends: np.ndarray
    tolerance: float = DEFAULT_TOLERANCE

    def __post_init__(self) -> None:
        for array in (self.centers, self.radii, self.ends):
            array.flags.writeable = False

    def __setstate__(self, state: dict) -> None:
        # pickle gives the arrays back writeable
        self.__dict__.update(state)
        self.__post_init__()

    @functools.cached_property
    def balls(self) -> tuple[Ball, ...]:
        return tuple(map(Ball, map(tuple, self.centers.tolist()), self.radii.tolist()))

    @functools.cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        # one int object per ball, shared by all of its edges
        with _collector_paused():
            i, j = np.array(range(len(self)), dtype=object)[self.ends].tolist()
            return tuple(zip(i, j))

    def _key(self) -> tuple:
        return self.balls, self.edges, self.tolerance

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __len__(self) -> int:
        return len(self.radii)


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

    Its balls are read back from the arrays: Ball((0, 0, 0), 1) as the
    equal Ball((0.0, 0.0, 0.0), 1.0).  Raises OverlapError naming the
    first offending pair (lexicographic) and its penetration depth.
    """
    balls = tuple(balls)  # read twice: an iterator would leave the radii empty
    centers = np.array([b.center for b in balls], dtype=np.float64).reshape(-1, 3)
    radii = np.array([b.radius for b in balls], dtype=np.float64)
    return _packing(centers, radii, tolerance)


def _packing(centers: np.ndarray, radii: np.ndarray, tolerance: float) -> Packing:
    # from 1 up no distance is an overlap and every pair within reach an edge
    if not 0.0 <= tolerance < 1.0:
        raise DomainError(f"tolerance must lie in [0, 1), got {tolerance!r}")
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
    # the pair i < j < n is the key i n + j, in (i, j) order; n n fits an int64 for n <= 3.0e9
    n = len(radii)
    keys, first = [np.zeros(0, dtype=np.intp)], (n * n, 0.0)
    for i, j, dist in _close_pairs(centers, radii, tolerance):
        radius_sum, key = radii[i] + radii[j], i * n + j
        bad = dist < radius_sum * (1.0 - tolerance)
        if bad.any():
            # search order is not index order: the overlap named is the first key's
            at = np.argmin(np.where(bad, key, n * n))
            first = min(first, (int(key[at]), float(dist[at])))
        keys.append(key[_tangent_mask(dist, radius_sum, tolerance)])
    if first[0] < n * n:
        i, j = divmod(first[0], n)
        raise OverlapError(i, j, float(radii[i] + radii[j] - first[1]))
    key = np.concatenate(keys)
    key.sort()
    # pair by pair in memory, so coverage_audit's ends.T is a view, not a copy
    ends = np.empty((len(key), 2), dtype=np.intp).T
    np.divmod(key, max(n, 1), out=(ends[0], ends[1]))
    return Packing(centers=centers, radii=radii, ends=ends, tolerance=tolerance)


def load_packing(document: str, tolerance: float = DEFAULT_TOLERANCE) -> Packing:
    """Parse and validate a packing document (JSON text)."""
    with _collector_paused():
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
        centers, radii = [], []
        type_error = None
        for index, item in enumerate(raw_balls):
            if type(item) is not dict:
                type_error = f"ball {index} must be an object"
                break
            center = item.get("center")
            radius = item.get("radius")
            # every JSON number parses as a float; true and false are bools
            if type(center) is not list or len(center) != 3 or not (
                type(center[0]) is type(center[1]) is type(center[2]) is float
            ):
                type_error = f"ball {index}: center must be [x, y, z]"
                break
            if type(radius) is not float:
                type_error = f"ball {index}: radius must be a number"
                break
            centers.append(center)
            radii.append(radius)
    # the value checks of the balls before a type error come first
    n = len(radii)
    centers = np.fromiter(itertools.chain.from_iterable(centers), np.float64, 3 * n).reshape(n, 3)
    radii = np.fromiter(radii, np.float64, n)
    finite = np.isfinite(centers).all(axis=1) & np.isfinite(radii)
    bad = np.flatnonzero(~finite | (radii <= 0.0))
    if len(bad):
        index = int(bad[0])
        problem = "radius must be positive" if finite[index] else "coordinates must be finite"
        raise PackingParseError(f"ball {index}: {problem}")
    if type_error is not None:
        raise PackingParseError(type_error)
    return _packing(centers, radii, tolerance)


def _tangent_mask(dist: np.ndarray, radius_sum: np.ndarray, tol: float) -> np.ndarray:
    return np.abs(dist - radius_sum) <= tol * radius_sum


def _radius_classes(reach: np.ndarray) -> np.ndarray:
    """Class 0, 1, ... of each reach: runs of the sorted reaches, split at
    every power of two and at every ratio above _CLASS_GAP between
    consecutive ones, so the class never falls as the reach grows."""
    order = np.argsort(reach, kind="stable")
    ranked = reach[order]
    new = np.frexp(ranked[1:])[1] > np.frexp(ranked[:-1])[1]
    new |= ranked[1:] > ranked[:-1] * _CLASS_GAP
    level = np.empty(len(reach), dtype=np.intp)
    level[order] = np.concatenate(([0], np.cumsum(new)))
    return level


def _close_pairs(centers: np.ndarray, radii: np.ndarray, tol: float):
    """Yield batches (i, j, dist), i < j, of the pairs whose cells are
    neighbours on a multilevel grid (Ogarko and Luding, Comput. Phys.
    Commun. 183, 2012).

    Each ball gets the class _radius_classes gives its padded reach
    r (1 + tol)(1 + 8 eps): a run of the sorted reaches, so every ball of
    class <= b has reach <= m_b, the largest reach of class b.  Class b has
    a grid whose cell side is at least 2 m_b, and every ball of class <= b
    looks up the class-b balls in the 27 cells around its own; within
    class b only i < j is kept, so each pair is measured once.  A
    space-filling packing gives about 30 candidates per ball, but a
    packing whose radii span L classes costs O(n L): a ball is looked up
    on every grid from its own class upwards.  Splitting the powers of two
    at gaps keeps one large ball from widening the cells of the many small
    ones in its power of two; a chain of large balls each within 2^(1/4)
    of the next still shares one class, as with powers of two alone.

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
    level = _radius_classes(reach)
    low = centers.min(axis=0)
    # a pair's distance from three coordinate gathers, not a sum over (m, 3) rows
    x, y, z = centers.T
    min_side = float(np.ptp(centers, axis=0).max()) / MAX_CELLS
    for b in range(int(level.max()) + 1):
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
                end = min(start + MAX_PAIR_BATCH, total)
                # the queries owning candidates start .. end - 1, once per candidate
                q = np.arange(
                    np.searchsorted(offsets, start, side="right") - 1,
                    np.searchsorted(offsets, end, side="left"),
                )
                k = np.repeat(q, np.minimum(offsets[q + 1], end) - np.maximum(offsets[q], start))
                a, c = queries[k], grid[first[k] + np.arange(start, end) - offsets[k]]
                keep = ~same[k] | (a < c)
                a, c = a[keep], c[keep]
                i, j = np.minimum(a, c), np.maximum(a, c)
                dx, dy, dz = x[j] - x[i], y[j] - y[i], z[j] - z[i]
                yield i, j, np.sqrt(dx * dx + dy * dy + dz * dz)


def contact_graph(packing: Packing) -> ContactGraph:
    """Tangency graph: edge (i, j) iff |dist - (ri + rj)| <= tol (ri + rj)."""
    return ContactGraph(vertex_count=len(packing), edges=packing.edges)


def fcc_fragment(n: int) -> Packing:
    """Unit balls on face-centered-cubic sites within n coordination shells.

    Sites are the integer vectors with even coordinate sum and squared
    norm at most 2n, scaled by sqrt(2) so that the nearest-neighbor
    distance is exactly 2.  n = 1 gives the 13-ball kissing configuration.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise DomainError(f"shell count must be an integer of at least 1, got {n!r}")
    reach = math.isqrt(2 * n)
    sites = np.array(list(itertools.product(range(-reach, reach + 1), repeat=3)))
    sites = sites[(sites.sum(axis=1) % 2 == 0) & ((sites * sites).sum(axis=1) <= 2 * n)]
    centers = sites * math.sqrt(2.0)
    # by the rounded squared norm, summed x, y, z in order, then by center
    x, y, z = centers.T
    centers = centers[np.lexsort((z, y, x, x * x + y * y + z * z))]
    return _packing(centers, np.ones(len(centers)), DEFAULT_TOLERANCE)


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
    # rows (i, j) of ends pair with rows (a_ij, a_ji) of fractions; raveled,
    # they interleave in the order an edge-by-edge loop adds them
    ends = np.ascontiguousarray(packing.ends.T)
    ends_radii = packing.radii[ends]
    fractions = coverage_fraction(rho, ends_radii, ends_radii[:, ::-1]).ravel()
    sums = np.zeros(len(packing))
    np.add.at(sums, ends.ravel(), fractions)
    # correctly rounded: a running sum drifts past the tolerance on large packings
    edge_sum = math.fsum(fractions.tolist())
    degrees = np.bincount(ends.ravel(), minlength=len(packing)).tolist()
    with _collector_paused():
        rows = tuple(zip(range(len(packing)), degrees, sums.tolist()))
    floor = pair_sum_value(rho) * len(ends)
    edge_ok = edge_sum >= floor - 1e-12 * max(1.0, abs(floor))
    violations = []
    if not edge_ok:
        violations.append(
            f"edge sum {edge_sum!r} below floor {floor!r} at rho={rho!r}"
        )
    per_ball_ok: bool | None = None
    if max_density_ref is not None:
        over = np.flatnonzero(sums > max_density_ref + DENSITY_MARGIN).tolist()
        per_ball_ok = not over
        # the row's Python float: a numpy scalar's repr differs
        violations.extend(
            f"ball {index} coverage sum {rows[index][2]!r} exceeds "
            f"max density {max_density_ref!r} + {DENSITY_MARGIN!r}"
            for index in over
        )
    return CoverageAudit(
        rho=rho,
        tolerance=packing.tolerance,
        rows=rows,
        edge_count=len(ends),
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
    lines.extend(map("%d,%d,%.12g".__mod__, audit.rows))
    return "\n".join(lines) + "\n"
