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

import math
import os
from dataclasses import dataclass, fields, replace
from typing import get_type_hints

import numpy as np

from . import _kernels
from ._parallel import ordered_map, resolve_workers
from .caps import RhoGeometry, objective_factor, rho_geometry
from .errors import CertificateError, DomainError

__all__ = [
    "Box",
    "Certificate",
    "box_angle_upper",
    "box_density_upper",
    "certify",
    "emit_certificate",
    "parse_certificate",
]

DEFAULT_FP_SLACK = 1e-9
CHECKPOINT_EVERY = 10_000_000
# boxes evaluated in one vectorized batch: small enough that the kernel's
# temporaries stay in cache instead of faulting in fresh pages
MAX_BATCH = 16_384
# a box is pruned only when its bound, raised by this relative margin,
# stays below a grid box's bound
PRUNE_MARGIN = 1e-12

_AXES = ("x", "y", "z")


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
    lows, ups = _box_edges(geom, box)
    return float(_kernels.box_angles_upper_vec(*lows, *ups)[_AXES.index(axis)])


def box_density_upper(geom: RhoGeometry, box: Box) -> float:
    """Upper bound for the density D over the box; +inf if unusable."""
    lows, ups = _box_edges(geom, box)
    return float(_kernels.box_density_upper_vec(geom, *lows, *ups))


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


def _format(kind: type, value) -> str:
    """The one text form of a record value: floats to 17 significant
    digits (enough to round-trip), bools as true/false, ints in decimal."""
    if kind is bool:
        return "true" if value else "false"
    return format(value, ".17g") if kind is float else str(value)


_READERS = {float: float, int: int, bool: lambda raw: raw == "true"}


def _emit(record) -> str:
    """One `name: value` line per field of a record dataclass, in order."""
    return "".join(
        f"{name}: {_format(kind, getattr(record, name))}\n"
        for name, kind in get_type_hints(type(record)).items()
    )


def _parse(text: str, record_type):
    """Inverse of _emit, accepting exactly what it writes.

    Blank lines and lines starting with # are skipped.  Every other line
    is `name: value` for a field of record_type, each field exactly once,
    and the value must be written as _emit writes it, so `1_969`, `+969`,
    `05` and `0.010` are refused, and so is NaN.  Raises CertificateError.
    """
    kinds = get_type_hints(record_type)
    values = {}
    for line in map(str.strip, text.splitlines()):
        if not line or line.startswith("#"):
            continue
        name, sep, raw = line.partition(": ")
        if not sep:
            raise CertificateError(f"malformed line {line!r}, expected 'name: value'")
        if name not in kinds:
            raise CertificateError(f"unknown field {name!r}")
        if name in values:
            raise CertificateError(f"repeated field {name!r}")
        kind = kinds[name]
        try:
            value = _READERS[kind](raw)
        except ValueError:
            value = None
        if value is None or raw == "nan" or _format(kind, value) != raw:
            raise CertificateError(f"bad value for {name!r}: {raw!r}")
        values[name] = value
    for name in kinds:
        if name not in values:
            raise CertificateError(f"missing field {name!r}")
    return record_type(**values)


def emit_certificate(cert: Certificate) -> str:
    """Serialize a certificate as a key:value document, 17 significant digits."""
    return _emit(cert)


def parse_certificate(text: str) -> Certificate:
    """Inverse of emit_certificate, bit-exact and strict (see _parse)."""
    return _parse(text, Certificate)


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
            self.floor = self._probe()

    def boxes_before(self, slab: int) -> int:
        """Number of grid boxes in the slabs before `slab`."""
        return _tetra(self.n) - _tetra(self.n - min(slab * self.top, self.n))

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

    def _probe(self) -> float:
        """Largest bound among the grid boxes at the centres of all
        top-level boxes, in one batch (NaN bounds are skipped)."""
        tops = zip(*(self._top_boxes(s) for s in range(self.slabs)))
        centres = (np.minimum(np.concatenate(v) + self.top // 2, self.n - 1) for v in tops)
        return float(np.fmax.reduce(self._batch_bounds(*centres), initial=-np.inf))

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

        Returns (max_bound, argmax_indices).  Each top-level box is
        bisected depth-first; a box is pruned when its bound stays below the
        larger of `floor` and the slab's running maximum by the margin
        PRUNE_MARGIN, since no grid box inside it can then hold the grid's
        maximum.
        """
        best = -np.inf
        best_idx = (slab * self.top,) * 3
        stack = [(self.top, *self._top_boxes(slab))]
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
        return best, best_idx


@dataclass(frozen=True)
class _Checkpoint:
    """Scan state after the slabs before next_slab, in the certificate's
    record format.  The first six fields fix what a slab index means;
    (i, j, k) is the grid box holding max_so_far."""

    rho: float
    delta: float
    target: float
    fp_slack: float
    n: int
    top: int
    next_slab: int
    max_so_far: float
    i: int
    j: int
    k: int


def _write_checkpoint(path: str, state: _Checkpoint) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(_emit(state))
    os.replace(tmp, path)


def _read_checkpoint(path: str, fresh: _Checkpoint, slabs: int) -> _Checkpoint:
    """The state in `path`, which must match `fresh` in its parameters."""
    try:
        with open(path, encoding="utf-8") as fh:
            state = _parse(fh.read(), _Checkpoint)
    except (CertificateError, UnicodeDecodeError) as exc:
        raise CertificateError(f"checkpoint {path!r} is malformed: {exc}") from exc
    for name in (f.name for f in fields(_Checkpoint)[:6]):
        if getattr(state, name) != getattr(fresh, name):
            raise CertificateError(
                f"checkpoint {path!r} was written for different parameters "
                f"({name} mismatch)"
            )
    if not 0 <= state.next_slab <= slabs:
        raise CertificateError(
            f"checkpoint {path!r} resumes at slab {state.next_slab}, outside [0, {slabs}]"
        )
    return state


def _check_writable(path: str) -> None:
    """Raise OSError unless a file can be written at path."""
    parent = os.path.dirname(path) or "."
    if not (os.path.isdir(parent) and os.access(parent, os.W_OK)):
        raise OSError(f"cannot write {path!r}: {parent!r} is not a writable directory")
    if os.path.isdir(path):
        raise OSError(f"cannot write {path!r}: it is a directory")


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
    a matching file resumes the scan, any other raises CertificateError,
    and a path that cannot be written raises OSError before the scan.
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
    if checkpoint_path:
        _check_writable(checkpoint_path)
    scan = _GridScan(rho_geometry(rho), delta)
    total = scan.boxes_before(scan.slabs)

    state = _Checkpoint(rho, delta, target, fp_slack, scan.n, scan.top, 0, -math.inf, 0, 0, 0)
    if checkpoint_path and os.path.exists(checkpoint_path):
        state = _read_checkpoint(checkpoint_path, state, scan.slabs)

    written = scan.boxes_before(state.next_slab)
    slabs = range(state.next_slab, scan.slabs)
    with ordered_map(scan.slab_max, slabs, workers) as results:
        for slab, (value, (i, j, k)) in zip(slabs, results):
            if value > state.max_so_far:
                state = replace(state, max_so_far=value, i=i, j=j, k=k)
            state = replace(state, next_slab=slab + 1)
            done = scan.boxes_before(slab + 1)
            if checkpoint_path and done - written >= CHECKPOINT_EVERY:
                _write_checkpoint(checkpoint_path, state)
                written = done
            if on_progress is not None:
                on_progress(done, total)

    certified = state.max_so_far * factor * (1.0 + fp_slack)
    cert = Certificate(
        rho=rho,
        delta=delta,
        target=target,
        boxes_checked=total,
        max_box_bound=state.max_so_far,
        certified_bound=certified,
        fp_slack=fp_slack,
        passed=bool(certified < target),
    )
    if checkpoint_path and os.path.exists(checkpoint_path):
        os.remove(checkpoint_path)
    return cert
