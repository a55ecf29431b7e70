"""One untraced pass of each benchmark workload (perfbench/workloads.py),
held to the workload's own output check, so a change that breaks what the
benchmark runs fails here and not only when the benchmark is run."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kissbound
from kissbound import coverage_audit, load_packing
from kissbound.cli import main
from kissbound.packings import audit_to_csv

from conftest import simd_extensions

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
NAMES = ["certify", "graph_lattice", "graph_wide", "sweep"]
# sha256 of each graph workload's outputs at seed 1: the contact-graph ends
# as little-endian int64 bytes, the audit CSV at rho 1.755, and the stdout
# of `kissbound graph --rho 1.755`
GRAPH_DIGESTS = {
    "graph_lattice": (
        "fdfab7ff1d5701f09eae7952225041753c73a084dd51772644f1abf6551d02b9",
        "17924266ad0b00f9e7aaacbbe62cf5283d1e2cf2eb03e595931244b5aaf28ceb",
        "aa9d179e644708a77854842ba321affe28dfc96d21220fc45971b44ad3059d27",
    ),
    "graph_wide": (
        "8c38c2073f1a89357dc5fa569f2bd41442933d712e5b3c201a3e9b8067749a1a",
        "cda6fc8a749c706bdc95e4fbff133799d2a6d0d2d5116b23814e7d41ed67561b",
        "78bb61a6af14dfe590f9ad794397023822008f029aeeb8d6b9ececc7ac0ae6e3",
    ),
}


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    # perfbench/ is read, never written: no bytecode cache goes there
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import workloads

    return workloads


def test_every_workload_is_covered(workloads):
    assert sorted(workloads.WORKLOADS) == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_one_pass_passes_its_check(workloads, tmp_path, name):
    workload = workloads.WORKLOADS[name](1, str(tmp_path))
    output, layers = workload.run()
    assert layers is None
    assert workload.check(output) == []


@pytest.mark.parametrize("name", sorted(GRAPH_DIGESTS))
def test_graph_outputs_keep_their_bytes(workloads, tmp_path, capsys, name):
    document = workloads.WORKLOADS[name](1, str(tmp_path)).document
    packing = load_packing(document)
    path = tmp_path / "packing.json"
    path.write_text(document, encoding="utf-8")
    assert main(["graph", str(path), "--rho", "1.755"]) == 0
    outputs = (
        packing.ends.astype("<i8").tobytes(),
        audit_to_csv(coverage_audit(packing, 1.755)).encode(),
        capsys.readouterr().out.encode(),
    )
    assert tuple(hashlib.sha256(b).hexdigest() for b in outputs) == GRAPH_DIGESTS[name]


def test_certificate_bytes_do_not_depend_on_simd_path(workloads):
    # numpy picks its kernels per process; NPY_DISABLE_CPU_FEATURES switches
    # sets of them off, from the top set down to the baseline alone, and the
    # certify workload's certificate must keep its bytes under each
    found = (simd_extensions() or {}).get("found")
    if not found:
        pytest.skip("numpy reports no SIMD extensions above its baseline")
    src = os.path.dirname(os.path.dirname(os.path.abspath(kissbound.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, kissbound as kb; "
        "sys.stdout.write(kb.emit_certificate(kb.certify(1.755, 0.002, 14.5)))"
    )
    for top in reversed(range(len(found))):
        disabled = " ".join([os.environ.get("NPY_DISABLE_CPU_FEATURES", ""), *found[top:]])
        env = dict(os.environ, PYTHONPATH=path, NPY_DISABLE_CPU_FEATURES=disabled.strip())
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout == workloads.EXPECTED_CERTIFICATE, f"with {found[top:]} switched off"
