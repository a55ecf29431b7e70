"""Tests of the benchmark itself: the packing generator, the output
checks that decide failed passes, and the metric names it reports.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import kissbound as kb  # noqa: E402

import packgen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

packings_module = importlib.import_module("kissbound.packings")


@pytest.mark.parametrize(
    "seed, size, keep, large_radius",
    [(1, 3, 0.7, None), (2, 4, 0.9, None), (3, 5, 0.8, 3.0), (4, 4, 1.0, 2.0)],
)
@pytest.mark.parametrize("all_pairs_limit", [packings_module.ALL_PAIRS_LIMIT, 0])
def test_generated_edges_match_contact_graph(
    monkeypatch, seed, size, keep, large_radius, all_pairs_limit
):
    # a limit of 0 sends even small packings down the spatial-grid path
    monkeypatch.setattr(packings_module, "ALL_PAIRS_LIMIT", all_pairs_limit)
    generated = packgen.generate(seed, size, keep, large_radius)
    packing = kb.load_packing(generated.to_json())
    assert len(packing) == len(generated)
    assert kb.contact_graph(packing).edges == generated.edges
    assert len(generated.edges) > len(generated)


def test_generator_is_seeded():
    first = packgen.generate(7, 4, 0.8, 3.0)
    assert first.to_json() == packgen.generate(7, 4, 0.8, 3.0).to_json()
    assert first.to_json() != packgen.generate(8, 4, 0.8, 3.0).to_json()


def test_generator_rejects_a_block_too_small_for_the_large_balls():
    with pytest.raises(ValueError):
        packgen.generate(1, 4, 1.0, 10.0)


def test_graph_workloads_straddle_the_all_pairs_limit(tmp_path):
    lattice = workloads.graph_lattice(1, str(tmp_path)).packing
    wide = workloads.graph_wide(1, str(tmp_path)).packing
    assert len(lattice) <= packings_module.ALL_PAIRS_LIMIT < len(wide)
    assert lattice.radius_ratio == pytest.approx(4.449, abs=1e-3)
    assert wide.radius_ratio > 20.0


def _small_graph(seed=5):
    return workloads.Graph("graph_small", packgen.generate(seed, 4, 0.9, 3.0))


def test_graph_pass_checks_out_and_traces_every_call():
    tracer = Tracer()
    runs = run.measure(_small_graph(), 0.0, tracer)
    assert [p["ok"] for p in runs["plain"] + runs["traced"]] == [True, True]
    assert [s["name"] for s in tracer.spans] == [
        "packings.load_packing",
        "packings.contact_graph",
        "packings.coverage_audit",
        "packings.audit_to_csv",
    ]
    assert all(s["pass"] == 1 and s["parent"] is None for s in tracer.spans)
    metrics = run.layer_metrics(runs, workloads.LAYER_UNITS)
    assert metrics["packings.balls"] == len(_small_graph().packing)
    assert metrics["packings.edges"] == len(_small_graph().packing.edges)
    assert metrics["certifier.certify_s"] == 0.0
    assert "trace.overhead_s" in metrics


def test_dropped_edge_fails_the_pass():
    workload = _small_graph()
    workload.packing.edges = workload.packing.edges[1:]
    runs = run.measure(workload, 0.0)
    assert [p["ok"] for p in runs["plain"]] == [False]


def _certify_returning(text):
    """A Certify workload whose pass returns `text` instead of scanning."""
    workload = workloads.Certify(0, "unused")
    cert = kb.parse_certificate(workloads.EXPECTED_CERTIFICATE)
    workload.run = lambda tracer=None: ((cert, text), None)
    return workload


def test_certificate_check():
    expected = workloads.EXPECTED_CERTIFICATE
    assert run.measure(_certify_returning(expected), 0.0)["plain"][0]["ok"]
    position = expected.index("0.9435")
    flipped = expected[:position] + "1" + expected[position + 1 :]
    assert not run.measure(_certify_returning(flipped), 0.0)["plain"][0]["ok"]


def test_certificate_fields_are_checked():
    cert = kb.parse_certificate(workloads.EXPECTED_CERTIFICATE)
    check = workloads.Certify(0, "unused").check
    assert check((cert, workloads.EXPECTED_CERTIFICATE)) == []
    assert check((dataclasses.replace(cert, passed=False), workloads.EXPECTED_CERTIFICATE))
    assert check((dataclasses.replace(cert, boxes_checked=1), workloads.EXPECTED_CERTIFICATE))
    bumped = dataclasses.replace(cert, max_box_bound=cert.max_box_bound * (1 + 2**-52))
    assert check((bumped, workloads.EXPECTED_CERTIFICATE))


def _sweep_results(minimum):
    objectives = [minimum + 0.002, minimum + 0.0004, minimum, minimum + 0.0004]
    return [
        kb.SweepResult(
            rho=1.745 + 0.005 * i,
            max_density=0.93,
            argmax=(0.26, 0.26, 0.96),
            objective=value,
        )
        for i, value in enumerate(objectives)
    ]


def test_sweep_check():
    check = workloads.Sweep(0, "unused").check
    good = _sweep_results(workloads.EXPECTED_SWEEP_MIN)
    assert check((good, kb.sweep_to_csv(good))) == []
    shifted = _sweep_results(workloads.EXPECTED_SWEEP_MIN + 1e-8)
    assert check((shifted, kb.sweep_to_csv(shifted)))
    failing = good[:2] + [dataclasses.replace(good[2], failed_starts=1)] + good[3:]
    assert check((failing, kb.sweep_to_csv(failing)))
    moved = list(reversed(good))
    assert check((moved, kb.sweep_to_csv(moved)))


def test_start_count_of_the_sweep_config():
    geom = kb.rho_geometry(workloads.RHO)
    assert workloads._wedge_start_count(geom, workloads.SWEEP_CONFIG.grid_step) == 220


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == run.END_TO_END_UNITS
    assert per_layer == workloads.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(workloads.WORKLOADS) == set(run.WORKLOAD_NAMES)


def test_layer_prefixes_name_kissbound_modules():
    # `kissbound.density` is the function re-exported by __init__; the
    # module is only reachable through the import system
    assert not isinstance(kb.density, types.ModuleType)
    for name in workloads.LAYER_UNITS:
        layer = name.split(".")[0]
        if layer != "trace":
            assert isinstance(importlib.import_module(f"kissbound.{layer}"), types.ModuleType)


def test_run_without_sources_exits_nonzero(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
