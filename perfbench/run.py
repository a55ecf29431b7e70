"""Benchmark of kissbound, one workload per run.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Workloads: certify, sweep, graph_lattice, graph_wide (see NOTES.md).  The
run imports kissbound from src/ of the checkout it sits in, builds the
workload's inputs from --seed, and runs passes back to back in this one
process (a closed loop: one call at a time; certify and sweep fork pools of
2 workers) until another round would overrun --seconds, checking the
output of every pass.  A pass that raises or fails its check counts as
failed.

With --trace 0 it then times `import kissbound` in fresh interpreters and
reports the end-to-end metrics.  With --trace 1 each round is an untraced
pass followed by a traced one (plus the workload's probe, if it has one),
and it reports the per-layer metrics of the traced passes, zero for layers
the workload does not enter, and the tracing overhead: traced minus
untraced median wall time.

Standard output ends with a line recording the environment and then one
JSON object with the keys correct, attempted, failed and metrics.  The
same, with every pass's samples and the spans, is written to
.bench_build/perfbench/ in the checkout.  Exits 2 without a result when
the checkout holds no kissbound sources.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer, cpu_seconds, usage

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
WORKLOAD_NAMES = ("certify", "sweep", "graph_lattice", "graph_wide")
SETUP_IMPORTS = 5
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def _delta(before: dict, after: dict) -> dict:
    return {key: after[key] - value for key, value in before.items()}


def timed_pass(workload, tracer=None) -> dict:
    """One pass: wall and CPU seconds, whether its output checked, layers."""
    before = usage()
    start = time.perf_counter()
    layers = None
    try:
        output, layers = workload.run(tracer)
        problems = workload.check(output)
    except Exception:
        problems = [traceback.format_exc()]
    wall = time.perf_counter() - start
    cpu = cpu_seconds(_delta(before, usage()))
    for problem in problems:
        print(f"{workload.name}: {problem}", file=sys.stderr)
    return {"wall_s": wall, "cpu_s": cpu, "ok": not problems, "layers": layers}


def timed_probe(workload, tracer) -> dict:
    try:
        layers, problems = workload.probe(tracer)
    except Exception:
        layers, problems = None, [traceback.format_exc()]
    for problem in problems:
        print(f"{workload.name} probe: {problem}", file=sys.stderr)
    return {"ok": not problems, "layers": layers}


def measure(workload, seconds: float, tracer=None) -> dict[str, list[dict]]:
    """Rounds of passes until another round would end after `seconds`.

    A round is one untraced pass, then with a tracer one traced pass and
    the workload's probe.  At least one round runs.
    """
    runs = {"plain": [], "traced": [], "probe": []}
    start = time.perf_counter()
    while True:
        runs["plain"].append(timed_pass(workload))
        if tracer is not None:
            tracer.pass_id += 1
            runs["traced"].append(timed_pass(workload, tracer))
            if hasattr(workload, "probe"):
                runs["probe"].append(timed_probe(workload, tracer))
        rounds = len(runs["plain"])
        if (time.perf_counter() - start) * (rounds + 1) / rounds > seconds:
            return runs


def setup_seconds() -> float:
    """Median time of `import kissbound` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import kissbound; print(time.perf_counter() - t)"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    times = []
    for _ in range(SETUP_IMPORTS):
        done = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        times.append(float(done.stdout))
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def end_to_end_metrics(runs: dict) -> dict[str, float]:
    # read before setup_seconds starts interpreters that would count as children
    rss = peak_rss_mb()
    return {
        "wall_s": statistics.median(p["wall_s"] for p in runs["plain"]),
        "cpu_s": statistics.median(p["cpu_s"] for p in runs["plain"]),
        "peak_rss_mb": rss,
        "setup_s": setup_seconds(),
    }


def layer_metrics(runs: dict, names) -> dict[str, float]:
    """Median of each layer metric over the traced passes; zero for layers
    the workload does not enter."""
    samples: dict[str, list[float]] = {}
    for record in runs["traced"] + runs["probe"]:
        for name, value in (record["layers"] or {}).items():
            samples.setdefault(name, []).append(value)
    metrics = {name: 0.0 for name in names}
    metrics.update({name: statistics.median(values) for name, values in samples.items()})
    metrics["trace.overhead_s"] = statistics.median(
        p["wall_s"] for p in runs["traced"]
    ) - statistics.median(p["wall_s"] for p in runs["plain"])
    return metrics


def _version(package: str) -> str | None:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def _git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except OSError:
        return None
    return done.stdout.strip() or None


def environment(args, workload) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workers": workload.workers,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_revision": _git_revision(),
        "platform": platform.platform(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kissbound" / "__init__.py").is_file():
        print(f"error: no kissbound sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    OUT.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, str(OUT))
    tracer = Tracer() if args.trace else None
    runs = measure(workload, args.seconds, tracer)
    if tracer is None:
        values = end_to_end_metrics(runs)
        units = END_TO_END_UNITS
    else:
        units = workloads.LAYER_UNITS
        values = layer_metrics(runs, units)
    records = [r for kind in runs.values() for r in kind]
    failed = sum(not r["ok"] for r in records)
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    env = environment(args, workload)
    report = {"environment": env, "result": result, "runs": runs}
    if tracer is not None:
        report["spans"] = tracer.spans
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
