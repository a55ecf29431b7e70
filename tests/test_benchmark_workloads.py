"""One untraced pass of each benchmark workload (perfbench/workloads.py),
held to the workload's own output check, so a change that breaks what the
benchmark runs fails here and not only when the benchmark is run."""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
NAMES = ["certify", "graph_lattice", "graph_wide", "sweep"]


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
