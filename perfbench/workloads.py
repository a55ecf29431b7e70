"""The benchmark's workloads: one pass each, its output check, and the
per-layer figures of a traced pass.

A pass calls kissbound's public functions in the order the matching CLI
command does (`cmd_certify`, `cmd_optimize`, `cmd_graph`).  With a tracer
it also wraps each call in a span named after the module it enters, and
returns the layer metrics of that pass; without one it returns None for
them.  `check` lists what is wrong with a pass's output, empty if nothing.
"""

from __future__ import annotations

import os
import statistics
from contextlib import nullcontext

import kissbound as kb
from kissbound.packings import audit_to_csv

import packgen
from tracer import cpu_seconds, duration

RHO = 1.755
SWEEP_CONFIG = kb.SearchConfig(grid_step=0.1)

# certify(1.755, 0.002, 14.5) at the seed commit; one changed byte is a
# regression
EXPECTED_CERTIFICATE = (
    "rho: 1.7549999999999999\n"
    "delta: 0.002\n"
    "target: 14.5\n"
    "boxes_checked: 11912160\n"
    "max_box_bound: 0.94353667441980638\n"
    "certified_bound: 14.093199204341962\n"
    "fp_slack: 1.0000000000000001e-09\n"
    "passed: true\n"
)
EXPECTED_MAX_BOX_BOUND = "0x1.e3173d2e6b59ap-1"
EXPECTED_BOXES = 11_912_160
# sweep minimum (at the third grid point) and the probe's max_density
# objective at rho = 1.755, both at the seed commit
EXPECTED_SWEEP_MIN = 13.90877803445191
EXPECTED_PROBE_OBJECTIVE = 13.908778034451911
OBJECTIVE_TOLERANCE = 1e-9


def _span(tracer, name):
    return nullcontext({}) if tracer is None else tracer.span(name)


class _ProgressWatch:
    """certify's on_progress callback: call times and checkpoint writes.

    Checkpoints are written to a temporary file and renamed over the old
    one, so each write shows as a new inode at the checkpoint path.
    """

    def __init__(self, tracer, checkpoint):
        self.tracer = tracer
        self.checkpoint = checkpoint
        self.times: list[float] = []
        self.writes = 0
        self._inode = None

    def __call__(self, done, total):
        self.times.append(self.tracer.now())
        try:
            inode = os.stat(self.checkpoint).st_ino
        except FileNotFoundError:
            inode = None
        if inode is not None and inode != self._inode:
            self.writes += 1
        self._inode = inode


class Certify:
    """certify at delta = 0.002, then emit_certificate.

    The scan, pool and checkpoint path of acceptance 6 at 1/64 of its
    boxes.  Uses the certifier only.
    """

    name = "certify"
    workers = 2
    layer_units = {
        "certifier.certify_s": "s",
        "certifier.first_slab_s": "s",
        "certifier.slab_gap_p50_s": "s",
        "certifier.slab_gap_max_s": "s",
        "certifier.boxes": "count",
        "certifier.slabs": "count",
        "certifier.boxes_per_cpu_s": "boxes/s",
        "certifier.sys_s": "s",
        "certifier.minflt": "count",
        "certifier.checkpoint_writes": "count",
    }

    def __init__(self, seed: int, workdir: str):
        self.checkpoint = os.path.join(workdir, "certify.ckpt")

    def run(self, tracer=None):
        # a checkpoint left by a pass that died would be resumed
        if os.path.exists(self.checkpoint):
            os.remove(self.checkpoint)
        watch = None if tracer is None else _ProgressWatch(tracer, self.checkpoint)
        with _span(tracer, "certifier.certify") as span:
            cert = kb.certify(
                RHO,
                0.002,
                14.5,
                workers=self.workers,
                checkpoint_path=self.checkpoint,
                on_progress=watch,
            )
        with _span(tracer, "certifier.emit_certificate"):
            text = kb.emit_certificate(cert)
        if tracer is None:
            return (cert, text), None
        times = watch.times
        gaps = [later - earlier for earlier, later in zip(times, times[1:])] or [0.0]
        layers = {
            "certifier.certify_s": duration(span),
            "certifier.first_slab_s": (times[0] if times else span["end"]) - span["start"],
            "certifier.slab_gap_p50_s": statistics.median(gaps),
            "certifier.slab_gap_max_s": max(gaps),
            "certifier.boxes": cert.boxes_checked,
            "certifier.slabs": len(times),
            "certifier.boxes_per_cpu_s": cert.boxes_checked / cpu_seconds(span),
            "certifier.sys_s": span["sys_s"],
            "certifier.minflt": span["minflt"],
            "certifier.checkpoint_writes": watch.writes,
        }
        return (cert, text), layers

    def check(self, output) -> list[str]:
        cert, text = output
        problems = []
        if text != EXPECTED_CERTIFICATE:
            problems.append(f"certificate bytes differ from the seed commit's:\n{text}")
        if cert.max_box_bound.hex() != EXPECTED_MAX_BOX_BOUND:
            problems.append(f"max_box_bound is {cert.max_box_bound.hex()}")
        if cert.boxes_checked != EXPECTED_BOXES:
            problems.append(f"boxes_checked is {cert.boxes_checked}")
        if cert.passed is not True:
            problems.append("certificate did not pass")
        return problems


def _wedge_start_count(geom, step: float) -> int:
    """Start points max_density searches from: the triples x <= y <= z of
    the grid alpha_min + i * step, with alpha_max appended when the grid
    stops short of it."""
    values = int(geom.interval_width / step) + 1
    if geom.alpha_min + (values - 1) * step < geom.alpha_max - 1e-9:
        values += 1
    return values * (values + 1) * (values + 2) // 6


class Sweep:
    """sweep_rho over 1.745..1.760 (4 ratios, 220 starts each), then
    sweep_to_csv.  Uses density only; the argmin 1.755 lies inside."""

    name = "sweep"
    workers = 2
    layer_units = {
        "density.sweep_rho_s": "s",
        "density.max_density_s": "s",
        "density.starts": "count",
        "density.per_start_ms": "ms",
        "density.failed_starts": "count",
        "density.sys_s": "s",
    }

    def __init__(self, seed: int, workdir: str):
        pass

    def run(self, tracer=None):
        with _span(tracer, "density.sweep_rho") as span:
            results = kb.sweep_rho(1.745, 1.760, 0.005, SWEEP_CONFIG, workers=self.workers)
        with _span(tracer, "density.sweep_to_csv"):
            csv = kb.sweep_to_csv(results)
        if tracer is None:
            return (results, csv), None
        layers = {
            "density.sweep_rho_s": duration(span),
            "density.failed_starts": sum(r.failed_starts for r in results),
            "density.sys_s": span["sys_s"],
        }
        return (results, csv), layers

    def probe(self, tracer):
        """One max_density call at rho = 1.755 in this process, for the
        cost per start; returns its layer metrics and problems."""
        geom = kb.rho_geometry(RHO)
        with tracer.span("density.max_density") as span:
            result = kb.max_density(geom, SWEEP_CONFIG)
        starts = _wedge_start_count(geom, SWEEP_CONFIG.grid_step)
        layers = {
            "density.max_density_s": duration(span),
            "density.starts": starts,
            "density.per_start_ms": 1000.0 * duration(span) / starts,
        }
        problems = []
        if abs(result.objective - EXPECTED_PROBE_OBJECTIVE) > OBJECTIVE_TOLERANCE:
            problems.append(f"max_density objective is {result.objective!r}")
        return layers, problems

    def check(self, output) -> list[str]:
        results, csv = output
        problems = []
        best = min(range(len(results)), key=lambda i: (results[i].objective, results[i].rho))
        if len(results) != 4 or best != 2:
            problems.append(f"argmin is grid point {best} of {len(results)}, expected 2 of 4")
        if abs(results[best].objective - EXPECTED_SWEEP_MIN) > OBJECTIVE_TOLERANCE:
            problems.append(f"minimum objective is {results[best].objective!r}")
        failed = sum(r.failed_starts for r in results)
        if failed:
            problems.append(f"{failed} failed starts")
        if csv.count("\n") != len(results) + 1:
            problems.append("sweep CSV does not hold one row per ratio")
        return problems


class Graph:
    """load_packing -> contact_graph -> coverage_audit -> audit_to_csv on
    a generated packing whose edges are known by construction."""

    workers = 1
    layer_units = {
        "packings.load_packing_s": "s",
        "packings.contact_graph_s": "s",
        "packings.coverage_audit_s": "s",
        "packings.audit_to_csv_s": "s",
        "packings.balls": "count",
        "packings.edges": "count",
        "packings.balls_per_s": "balls/s",
        "packings.radius_ratio": "ratio",
    }

    def __init__(self, name: str, packing: packgen.GeneratedPacking):
        self.name = name
        self.packing = packing
        self.document = packing.to_json()

    def run(self, tracer=None):
        with _span(tracer, "packings.load_packing") as load:
            packing = kb.load_packing(self.document)
        with _span(tracer, "packings.contact_graph") as graph_span:
            graph = kb.contact_graph(packing)
        with _span(tracer, "packings.coverage_audit") as audit_span:
            audit = kb.coverage_audit(packing, RHO)
        with _span(tracer, "packings.audit_to_csv") as csv_span:
            csv = audit_to_csv(audit)
        if tracer is None:
            return (graph, audit, csv), None
        spans = (load, graph_span, audit_span, csv_span)
        layers = {
            "packings.load_packing_s": duration(load),
            "packings.contact_graph_s": duration(graph_span),
            "packings.coverage_audit_s": duration(audit_span),
            "packings.audit_to_csv_s": duration(csv_span),
            "packings.balls": graph.vertex_count,
            "packings.edges": len(graph.edges),
            "packings.balls_per_s": graph.vertex_count / sum(map(duration, spans)),
            "packings.radius_ratio": self.packing.radius_ratio,
        }
        return (graph, audit, csv), layers

    def check(self, output) -> list[str]:
        graph, audit, csv = output
        problems = []
        if graph.edges != self.packing.edges:
            found, expected = set(graph.edges), set(self.packing.edges)
            problems.append(
                f"contact graph differs from the constructed one: "
                f"{len(found - expected)} extra, {len(expected - found)} missing edges"
            )
        if not audit.edge_sum_ok:
            problems.append("coverage audit edge sum is below its floor")
        if csv.count("\n") != len(self.packing) + 1:
            problems.append("audit CSV does not hold one row per ball")
        return problems


def graph_lattice(seed: int, workdir: str) -> Graph:
    """About 8,760 balls, radii within a factor 4.45: the all-pairs path."""
    return Graph("graph_lattice", packgen.generate(seed, 16, 0.9))


def graph_wide(seed: int, workdir: str) -> Graph:
    """About 10,450 balls plus six large ones up to radius 5: the
    spatial-grid path, whose cell size the largest radius sets."""
    return Graph("graph_wide", packgen.generate(seed, 17, 0.9, large_radius=5.0))


WORKLOADS = {
    "certify": Certify,
    "sweep": Sweep,
    "graph_lattice": graph_lattice,
    "graph_wide": graph_wide,
}
LAYER_UNITS = {
    **Certify.layer_units,
    **Sweep.layer_units,
    **Graph.layer_units,
    "trace.overhead_s": "s",
}
