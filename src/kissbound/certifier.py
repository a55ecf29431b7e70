"""Rigorous grid certification of the dimension-3 average-degree bound.

The cap-radius cube I_rho^3 is subdivided into axis-aligned boxes of side
delta.  On each box the cap-triangle density D is bounded from above by
the corner estimate

    D <= (max K(x) max angle_x + max K(y) max angle_y + max K(z) max angle_z)
         / (2 pi min area),

with the minimum area taken at the lower corner, the K maxima at the
upper edges (K is non-decreasing), and each angle maximum at one of two
box corners depending on where 2x + y + z sits relative to pi.  The
maximum of this bound over every grid box of the symmetry-reduced tiling
{a <= b <= c}, multiplied by 8 rho / (-rho^2 + 4 rho - 3), is a certified
upper bound on the average degree of three-dimensional ball packings.

The scan finds that maximum without evaluating every grid box.  It bounds
aligned boxes of side m grid steps (m a power of two) by the same
estimate, read from the same tables of grid edges, so a coarse box and
the grid boxes inside it share their corner values bit for bit.  Each
factor of the estimate is an exact extremum over the box (area and K are
monotone, and the angle is monotone in the other two radii and unimodal
in its own), so on a sub-box it can only improve: a grid box's bound never
exceeds the bound of a box containing it.  The scan bisects top-level
boxes depth first and drops a box whose bound, raised by a relative
margin of 1e-12, is below the bound of a grid box already evaluated; no
grid box inside it can hold the maximum.  The box that does is never
dropped, so max_box_bound equals the maximum over every grid box bit for
bit, and boxes_checked counts every grid box, evaluated or dropped.

The scan is deterministic: slabs of top-level boxes go to the worker
processes one at a time (`_parallel.ordered_map`; the workers inherit the
scan's tables through fork) and are reduced in slab order by an exact max,
so the certificate is byte-identical for any worker count.  The arithmetic
is plain IEEE double; the certificate is rigorous modulo rounding of the
elementary functions, which the configurable multiplicative fp_slack makes
explicit.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import get_type_hints

import numpy as np

from . import _kernels
from ._parallel import ordered_map, resolve_workers
from .caps import RhoGeometry, check_rho, rho_geometry
from .errors import CertificateError, DomainError

__all__ = [
    "Box",
    "Certificate",
    "box_angle_upper",
    "box_density_upper",
    "certify",
    "emit_certificate",
    "parse_certificate",
    "objective_factor",
]

DEFAULT_FP_SLACK = 1e-9
CHECKPOINT_EVERY = 10_000_000
# boxes evaluated in one vectorized batch: small enough that the kernel's
# temporaries stay in cache instead of faulting in fresh pages
MAX_BATCH = 32_768
# a box is pruned only when its bound, raised by this relative margin,
# stays below a grid box's bound
PRUNE_MARGIN = 1e-12

_AXES = ("x", "y", "z")


def objective_factor(rho: float) -> float:
    """Conversion from max density to the average-degree objective."""
    check_rho(rho)
    denominator = -rho * rho + 4.0 * rho - 3.0
    if not denominator > 0.0:
        raise DomainError(
            f"inflation ratio {rho!r} is too close to 1 or 3: -rho^2 + 4 rho - 3 rounds to 0"
        )
    return 8.0 * rho / denominator


@dataclass(frozen=True)
class Box:
    """Axis-aligned box [a, a+delta] x [b, b+delta] x [c, c+delta].

    Boxes at the domain boundary are shrunk implicitly: evaluation clamps
    the upper edges to alpha_max, so the effective boxes exactly tile the
    cube I_rho^3.
    """

    a: float
    b: float
    c: float
    delta: float


def _box_edges(geom: RhoGeometry, box: Box):
    lows = (box.a, box.b, box.c)
    if not box.delta > 0.0:
        raise DomainError(f"box side must be positive, got {box.delta!r}")
    for low in lows:
        if not (geom.alpha_min - 1e-12 <= low < geom.alpha_max):
            raise DomainError(f"box corner {low!r} outside the cap-radius interval")
    ups = tuple(min(low + box.delta, geom.alpha_max) for low in lows)
    return lows, ups


def box_angle_upper(geom: RhoGeometry, box: Box, axis: str) -> float:
    """Upper bound for one vertex angle of the cap triangle over the box.

    Degenerate corner configurations yield the conservative worst case pi.
    """
    if axis not in _AXES:
        raise DomainError(f"axis must be one of {_AXES}, got {axis!r}")
    (a, b, c), (ua, ub, uc) = _box_edges(geom, box)
    order = {
        "x": (a, b, c, ua, ub, uc),
        "y": (b, a, c, ub, ua, uc),
        "z": (c, a, b, uc, ua, ub),
    }[axis]
    return float(_kernels.axis_angle_upper_vec(*map(np.float64, order)))


def box_density_upper(geom: RhoGeometry, box: Box) -> float:
    """Upper bound for the density D over the box; +inf if unusable."""
    (a, b, c), (ua, ub, uc) = _box_edges(geom, box)
    return float(_kernels.box_density_upper_vec(geom, a, b, c, ua, ub, uc))


@dataclass(frozen=True)
class Certificate:
    """Machine-checkable record of one grid verification run.

    certified_bound = max_box_bound * 8 rho / (-rho^2 + 4 rho - 3)
                      * (1 + fp_slack)
    and passed means certified_bound < target with every box of the
    symmetry-reduced subdivision accounted for.
    """

    rho: float
    delta: float
    target: float
    boxes_checked: int
    max_box_bound: float
    certified_bound: float
    fp_slack: float
    passed: bool


# (name, type) of each field, in the order certificates list them
_CERT_FIELDS = tuple(get_type_hints(Certificate).items())


def emit_certificate(cert: Certificate) -> str:
    """Serialize a certificate as a key:value document, 17 significant digits."""
    lines = []
    for name, kind in _CERT_FIELDS:
        value = getattr(cert, name)
        if kind is float:
            text = format(value, ".17g")
        elif kind is bool:
            text = "true" if value else "false"
        else:
            text = str(value)
        lines.append(f"{name}: {text}")
    return "\n".join(lines) + "\n"


def parse_certificate(text: str) -> Certificate:
    """Inverse of emit_certificate; round-trips bit-exactly."""
    values = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise CertificateError(f"malformed certificate line {line!r}")
        key, _, payload = line.partition(":")
        values[key.strip()] = payload.strip()
    kwargs = {}
    for name, kind in _CERT_FIELDS:
        if name not in values:
            raise CertificateError(f"certificate missing field {name!r}")
        raw = values[name]
        try:
            if kind is bool:
                if raw not in ("true", "false"):
                    raise ValueError(raw)
                kwargs[name] = raw == "true"
            else:
                kwargs[name] = kind(raw)
        except ValueError as exc:
            raise CertificateError(f"bad value for {name!r}: {raw!r}") from exc
    return Certificate(**kwargs)


# ---------------------------------------------------------------------------
# grid scan


def _tetra(p: int) -> int:
    """Number of index triples p0 <= i <= j <= k < p0 + p."""
    return p * (p + 1) * (p + 2) // 6


# the 8 bisection children of a box, as 0/1 steps along each axis
_CHILD_STEPS = np.array(
    [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)], dtype=np.int64
)


class _GridScan:
    """Precomputed tables for scanning one (rho, delta) grid.

    Grid edges g[0..n] tile [alpha_min, alpha_max] with g[n] clamped to
    alpha_max; box (i, j, k) spans [g[i], g[i+1]] x ... The shared box
    kernel runs on grid indices: tables of cos/sin over all pairwise edge
    sums and of K over the edges turn each lookup into a gather.

    The scan walks aligned boxes of side `top` (a power of two, in grid
    steps) and bisects them down to the grid's own boxes; slab s holds the
    top-level boxes whose first index starts at s * top.  `floor` is the
    largest bound among the grid boxes at the centres of the top-level
    boxes, a lower bound on the grid's maximum that lets the scan prune.
    """

    def __init__(self, geom: RhoGeometry, delta: float):
        if not 0.0 < delta < math.inf:
            raise DomainError(f"delta must be positive and finite, got {delta!r}")
        cells = geom.interval_width / delta
        # the cos and sin tables hold (n + 1)^2 float64 values each, n <= cells + 1
        table_bytes = 2 * 8 * (cells + 2.0) * (cells + 2.0)
        if not table_bytes <= os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"):
            raise DomainError(
                f"delta {delta!r} needs {table_bytes:.3g} bytes of tables, over physical memory"
            )
        n = int(math.ceil(cells - 1e-12))
        if n < 1:
            raise DomainError(f"delta {delta!r} leaves no boxes in the interval")
        self.geom = geom
        self.n = n
        g = geom.alpha_min + delta * np.arange(n + 1, dtype=np.float64)
        g[n] = geom.alpha_max
        self.g = g
        self.k_edge = np.asarray(_kernels.K_vec(geom, g), dtype=np.float64)
        sums = g[:, None] + g[None, :]
        self.cos_sum = np.cos(sums).ravel()
        self.sin_sum = np.sin(sums).ravel()
        self.stride = n + 1
        # the largest power of two <= n / 48: about 50 slabs to share out
        # among workers, and at most 96 top-level boxes along an axis
        self.top = 1 << max(0, (n // 48).bit_length() - 1)
        self.slabs = -(-n // self.top)
        # with top == 1 nothing is pruned, and the probe would evaluate
        # every grid box
        self.floor = -math.inf
        if self.top > 1:
            self.floor = max(self._probe(s) for s in range(self.slabs))

    def total_boxes(self) -> int:
        return _tetra(self.n)

    def _pair(self, fi, fj):
        flat = fi * self.stride + fj
        return self.cos_sum[flat], self.sin_sum[flat]

    def _batch_bounds(self, i, j, k, m=1):
        """Bounds of the boxes from grid index (i, j, k) to min(index + m, n)
        on each axis; the upper edges are grid edges, so a box of side m
        contains exactly the grid boxes inside it."""
        ui, uj, uk = (np.minimum(v + m, self.n) for v in (i, j, k))
        return _kernels.box_density_upper_vec(
            self.geom, i, j, k, ui, uj, uk,
            pair=self._pair, coord=self.g.__getitem__, k_of=self.k_edge.__getitem__,
        )

    def _top_boxes(self, slab: int):
        """Lower indices of the top-level boxes of one slab, j <= k."""
        lows = np.arange(slab * self.top, self.n, self.top, dtype=np.int64)
        j, k = np.triu_indices(lows.size)
        return np.full(j.size, slab * self.top), lows[j], lows[k]

    def _probe(self, slab: int) -> float:
        """Largest bound among the grid boxes at the centres of the slab's
        top-level boxes (NaN bounds are skipped)."""
        centres = (np.minimum(v + self.top // 2, self.n - 1) for v in self._top_boxes(slab))
        bounds = self._batch_bounds(*centres)
        return float(np.fmax.reduce(bounds, initial=-np.inf))

    def _children(self, m: int, i, j, k):
        """The children of side m // 2 that hold grid boxes with
        i <= j <= k, in batches of at most MAX_BATCH."""
        half = m // 2
        step = MAX_BATCH // len(_CHILD_STEPS)
        for s in range(0, i.size, step):
            ci, cj, ck = (
                (v[s:s + step, None] + half * _CHILD_STEPS[:, axis]).ravel()
                for axis, v in enumerate((i, j, k))
            )
            keep = (ci <= cj) & (cj <= ck) & (ck < self.n)
            yield half, ci[keep], cj[keep], ck[keep]

    def slab_max(self, slab: int):
        """Max bound over the grid boxes (i, j, k), i <= j <= k, with
        slab * top <= i < (slab + 1) * top.

        Returns (max_bound, box_count, argmax_indices).  Each top-level box
        is bisected depth-first; a box is pruned when its bound stays below
        the larger of `floor` and the slab's running maximum by the margin
        PRUNE_MARGIN, since no grid box inside it can then hold the grid's
        maximum.  box_count is every grid box of the slab, pruned or not.
        """
        n, top = self.n, self.top
        lo, hi = slab * top, min((slab + 1) * top, n)
        best = -np.inf
        best_idx = (lo, lo, lo)
        stack = [(top, *self._top_boxes(slab))]
        while stack:
            m, i, j, k = stack.pop()
            bounds = self._batch_bounds(i, j, k, m)
            if m == 1:
                pos = int(np.argmax(bounds))
                value = float(bounds[pos])
                if value > best:
                    best = value
                    best_idx = (int(i[pos]), int(j[pos]), int(k[pos]))
                continue
            # NaN and inf bounds compare False here, so they are refined
            keep = ~(bounds * (1.0 + PRUNE_MARGIN) < max(self.floor, best))
            stack.extend(self._children(m, i[keep], j[keep], k[keep]))
        return best, _tetra(n - lo) - _tetra(n - hi), best_idx


# checkpoint floats are stored as hex to survive JSON round-trips exactly;
# "scan" and "top" fix what a slab index means
def _checkpoint_params(rho, delta, target, fp_slack, scan):
    return {
        "rho": float(rho).hex(),
        "delta": float(delta).hex(),
        "target": float(target).hex(),
        "fp_slack": float(fp_slack).hex(),
        "n": scan.n,
        "scan": "levels",
        "top": scan.top,
    }


def _write_checkpoint(path, params, next_slab, boxes_done, max_so_far, argmax):
    state = dict(params)
    state.update(
        next_slab=next_slab,
        boxes_done=boxes_done,
        max_so_far=float(max_so_far).hex(),
        argmax=list(argmax),
    )
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(state, fh)
    os.replace(tmp, path)


def _read_checkpoint(path, params, slabs):
    try:
        with open(path, encoding="utf-8") as fh:
            state = json.load(fh)
    except ValueError as exc:
        raise CertificateError(f"checkpoint {path!r} is not JSON") from exc
    if not isinstance(state, dict):
        raise CertificateError(f"checkpoint {path!r} is not a JSON object")
    for key, value in params.items():
        if state.get(key) != value:
            raise CertificateError(
                f"checkpoint {path!r} was written for different parameters "
                f"({key} mismatch)"
            )
    try:
        next_slab, boxes_done = state["next_slab"], state["boxes_done"]
        max_so_far = float.fromhex(state["max_so_far"])
        argmax = tuple(state["argmax"])
        valid = (
            type(next_slab) is int
            and 0 <= next_slab <= slabs
            and type(boxes_done) is int
            and boxes_done >= 0
            and not math.isnan(max_so_far)
            and len(argmax) == 3
            and all(type(v) is int for v in argmax)
        )
    except (KeyError, TypeError, ValueError):
        valid = False
    if not valid:
        raise CertificateError(f"checkpoint {path!r} has a missing or ill-typed field")
    return next_slab, boxes_done, max_so_far, argmax


def certify(
    rho: float,
    delta: float,
    target: float,
    fp_slack: float = DEFAULT_FP_SLACK,
    workers: int | None = 1,
    checkpoint_path: str | None = None,
    on_progress=None,
) -> Certificate:
    """Bound every box of the symmetry-reduced subdivision and certify.

    Slabs are scanned by `workers` processes (None: KISSBOUND_THREADS,
    else all cores; at most one per slab left) and reduced in order, so the
    certificate is identical for any worker count.  The scan state goes to
    checkpoint_path every CHECKPOINT_EVERY boxes and is removed on success;
    a matching file resumes the scan, any other raises CertificateError.
    on_progress(boxes_done, total) is called after each slab.

    Returns the Certificate; passed is True iff
    max_box_bound * objective_factor(rho) * (1 + fp_slack) < target.
    """
    if not 0.0 < target < math.inf:
        raise DomainError(f"target must be positive and finite, got {target!r}")
    if not 0.0 <= fp_slack < math.inf:
        raise DomainError(f"fp_slack must be non-negative and finite, got {fp_slack!r}")
    factor = objective_factor(rho)
    workers = resolve_workers(workers)
    geom = rho_geometry(rho)
    scan = _GridScan(geom, delta)
    total = scan.total_boxes()

    params = _checkpoint_params(rho, delta, target, fp_slack, scan)
    start_slab, boxes_done, max_so_far, argmax = 0, 0, -math.inf, (0, 0, 0)
    if checkpoint_path and os.path.exists(checkpoint_path):
        start_slab, boxes_done, max_so_far, argmax = _read_checkpoint(
            checkpoint_path, params, scan.slabs
        )

    written = boxes_done
    slabs = range(start_slab, scan.slabs)
    with ordered_map(scan.slab_max, slabs, workers) as results:
        for i, (value, count, idx) in zip(slabs, results):
            if value > max_so_far:
                max_so_far, argmax = value, idx
            boxes_done += count
            if checkpoint_path and boxes_done - written >= CHECKPOINT_EVERY:
                _write_checkpoint(checkpoint_path, params, i + 1, boxes_done, max_so_far, argmax)
                written = boxes_done
            if on_progress is not None:
                on_progress(boxes_done, total)

    if boxes_done != total:
        raise CertificateError(
            f"scan covered {boxes_done} boxes, expected {total}; "
            "stale checkpoint?"
        )
    certified = max_so_far * factor * (1.0 + fp_slack)
    cert = Certificate(
        rho=rho,
        delta=delta,
        target=target,
        boxes_checked=total,
        max_box_bound=max_so_far,
        certified_bound=certified,
        fp_slack=fp_slack,
        passed=bool(certified < target),
    )
    if checkpoint_path and os.path.exists(checkpoint_path):
        os.remove(checkpoint_path)
    return cert

