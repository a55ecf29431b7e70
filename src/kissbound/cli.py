"""Command-line surface for reproducible bound computations.

Commands:
    highdim   area-argument bound a(d), or 2/f_d(rho) at a given ratio
    optimize  sweep the inflation ratio, maximizing the cap density per rho
    certify   rigorous grid certification of the dimension-3 bound
    graph     contact-graph statistics and coverage audit of a packing file

Exit codes: 0 success or certified, 1 certification failed, 2 usage,
3 I/O or packing input error, 4 numeric-domain error.

`main` owns a run's side effects: it resolves the worker count, times
the command and reports its metadata (command line, configuration echo,
version, wall time, output checksum) in a JSON sidecar beside --output
when the command has one (certify), else as one JSON line on stderr.  The
certificate and its sidecar are written to <path>.tmp and renamed over
<path>, so a path holds either its previous content or the whole new one.
Metadata never enters an artifact, so artifacts are byte-identical across
runs.  The only environment variable consulted is KISSBOUND_THREADS for
the default worker count of optimize and certify; an invalid value exits 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time

from . import __version__
from ._parallel import resolve_workers
from .certifier import (
    DEFAULT_FP_SLACK, _check_writable, _write_text, certify, emit_certificate
)
from .density import SearchConfig, _sweep, sweep_to_csv
from .errors import DomainError, KissboundError, PackingError
from .highdim import MAX_DIMENSION, MIN_DIMENSION, a_of_d, k_bound_highdim
from .packings import (
    DEFAULT_TOLERANCE, audit_to_csv, contact_graph, coverage_audit, load_packing
)

EXIT_OK = 0
EXIT_CERT_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_DOMAIN = 4


def _dimension_arg(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"dimension must be an integer, got {text!r}") from exc
    if not (MIN_DIMENSION <= value <= MAX_DIMENSION):
        raise argparse.ArgumentTypeError(
            f"dimension must lie in [{MIN_DIMENSION}, {MAX_DIMENSION}], got {value}"
        )
    return value


class _UsageError(Exception):
    pass


# certify's default grid side, the one behind the paper's k3 < 13.955
DEFAULT_DELTA = 0.0005


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _report(
    command_line: list[str], args: argparse.Namespace, started: float, extras: dict
) -> None:
    """Write a run's metadata: beside --output as `<output>.meta.json` when
    the command has one, else as one JSON line on stderr.  `extras` holds
    the command's own keys, "outputs" first."""
    metadata = {
        "command_line": command_line,
        "configuration": {
            key: value for key, value in sorted(vars(args).items()) if key != "func"
        },
        "version": __version__,
        "wall_time_s": round(time.time() - started, 3),
        **extras,
    }
    if "output" in vars(args):
        _write_text(args.output + ".meta.json", json.dumps(metadata, indent=2) + "\n")
    else:
        print(json.dumps(metadata), file=sys.stderr)


def _round_up(value: float, decimals: int) -> float:
    factor = 10.0**decimals
    return math.ceil(value * factor) / factor


def cmd_highdim(args: argparse.Namespace) -> tuple[int, dict]:
    if args.rho is None:
        result = k_bound_highdim(args.d, math.sqrt(3.0))
        bound = a_of_d(args.d)
    else:
        result = k_bound_highdim(args.d, args.rho)
        bound = result.bound
    display = _round_up(bound, 3)
    if args.format == "csv":
        print("d,rho,f_d,bound")
        print(f"{result.d},{result.rho:.12g},{result.f_d:.12g},{bound:.12g}")
    else:
        label = f"a({args.d})" if args.rho is None else f"2/f_{args.d}({args.rho:.12g})"
        print(f"{label} = {bound:.9f}  (k_{args.d} < {display})")
    return EXIT_OK, {"outputs": {"stdout": _sha256(f"{bound:.17g}")}}


def cmd_optimize(args: argparse.Namespace) -> tuple[int, dict]:
    if not (1.0 < args.rho_lo <= args.rho_hi < 3.0):
        raise _UsageError(
            f"sweep interval must satisfy 1 < lo <= hi < 3, "
            f"got [{args.rho_lo:.12g}, {args.rho_hi:.12g}]"
        )
    if not 0.0 < args.step < math.inf:
        raise _UsageError(f"step must be positive and finite, got {args.step:.12g}")
    cfg = SearchConfig(grid_step=args.grid_step, tol=args.tol)
    results, processes = _sweep(
        args.rho_lo, args.rho_hi, args.step, cfg, args.prune, args.workers
    )
    csv_text = sweep_to_csv(results, include_pruned=args.prune is not None)
    # results come in rho order, so ties go to the smallest rho
    best = min((r for r in results if not r.pruned), key=lambda r: r.objective, default=None)
    sys.stdout.write(csv_text)
    if args.format != "csv" and best is not None:
        print(
            f"# minimum objective {best.objective:.9f} at rho={best.rho:.12g} "
            f"(argmax caps: {best.argmax[0]:.9g} {best.argmax[1]:.9g} "
            f"{best.argmax[2]:.9g})"
        )
    return EXIT_OK, {
        "outputs": {"stdout": _sha256(csv_text)},
        "failed_starts": sum(r.failed_starts for r in results),
        # per ratio in CSV row order, 0 for pruned rows: the most simplex
        # updates any start made, and the points the search evaluated
        "iterations": [r.iterations for r in results],
        "evaluations": [r.evaluations for r in results],
        # the processes the sweep ran on, 1 when it ran in this one
        "processes": processes,
    }


def cmd_certify(args: argparse.Namespace) -> tuple[int, dict]:
    last = [-math.inf]

    def progress(done: int, total: int) -> None:
        now = time.monotonic()
        if now - last[0] >= 10.0:
            last[0] = now
            print(
                f"# scanned {done}/{total} boxes ({100.0 * done / total:.1f}%)",
                file=sys.stderr,
            )

    _check_writable(args.output)
    cert = certify(
        rho=args.rho,
        delta=args.delta,
        target=args.target,
        fp_slack=args.fp_slack,
        workers=args.workers,
        checkpoint_path=args.checkpoint,
        on_progress=progress if args.progress else None,
    )
    text = emit_certificate(cert)
    _write_text(args.output, text)
    params = f"(rho={cert.rho:.12g}, delta={cert.delta:.12g}, boxes={cert.boxes_checked})"
    if args.format == "csv":
        print("passed,certified_bound,rho,delta,boxes_checked")
        print(
            f"{'true' if cert.passed else 'false'},{cert.certified_bound:.17g},"
            f"{cert.rho:.12g},{cert.delta:.12g},{cert.boxes_checked}"
        )
    elif cert.passed:
        print(f"CERTIFIED k3 < {cert.certified_bound:.17g} {params}")
    else:
        print(
            f"FAILED certified bound {cert.certified_bound:.17g} >= target "
            f"{cert.target:.12g} {params}"
        )
    code = EXIT_OK if cert.passed else EXIT_CERT_FAILED
    return code, {"outputs": {args.output: _sha256(text)}}


def cmd_graph(args: argparse.Namespace) -> tuple[int, dict]:
    try:
        with open(args.input, encoding="utf-8") as fh:
            document = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise OSError(f"cannot read {args.input}: {exc}") from exc
    packing = load_packing(document, tolerance=args.tolerance)
    graph = contact_graph(packing)
    summary = (
        f"balls: {graph.vertex_count}\nedges: {len(graph.edges)}\n"
        f"average_degree: {graph.average_degree:.12g}\n"
    )
    if args.rho is not None:
        audit = coverage_audit(packing, args.rho)
        csv_text = audit_to_csv(audit)
        if args.format != "csv":
            sys.stdout.write(
                f"{summary}edge_sum: {audit.edge_sum:.12g}\n"
                f"edge_sum_floor: {audit.edge_sum_floor:.12g}\n"
                f"edge_sum_ok: {'true' if audit.edge_sum_ok else 'false'}\n"
            )
        sys.stdout.write(csv_text)
        return EXIT_OK, {"outputs": {"stdout": _sha256(csv_text)}}
    if args.format == "csv":
        summary = "vertices,edges,average_degree\n" + (
            f"{graph.vertex_count},{len(graph.edges)},{graph.average_degree:.12g}\n"
        )
    sys.stdout.write(summary)
    return EXIT_OK, {"outputs": {"stdout": _sha256(f"{graph.average_degree:.17g}")}}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kissbound",
        description="Certified upper bounds on average kissing numbers",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("highdim", help="area-argument bound a(d) or 2/f_d(rho)")
    p.add_argument("--d", type=_dimension_arg, required=True, help=f"dimension in [{MIN_DIMENSION}, {MAX_DIMENSION}]")
    p.add_argument("--rho", type=float, default=None, help="inflation ratio in (1,3)")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(func=cmd_highdim)

    p = sub.add_parser("optimize", help="sweep rho, maximizing cap density per rho")
    p.add_argument("--rho-lo", type=float, required=True)
    p.add_argument("--rho-hi", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument(
        "--grid-step",
        type=float,
        default=SearchConfig.grid_step,
        help="start-grid spacing of the multistart search",
    )
    p.add_argument("--tol", type=float, default=SearchConfig.tol)
    p.add_argument(
        "--prune",
        type=float,
        default=None,
        help="skip ratios whose equilateral lower bound reaches this value",
    )
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("certify", help="grid certification of the k3 bound")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--delta", type=float, default=DEFAULT_DELTA)
    p.add_argument("--target", type=float, required=True)
    p.add_argument("--fp-slack", type=float, default=DEFAULT_FP_SLACK)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--checkpoint", default=None, help="checkpoint file for resuming")
    p.add_argument("--output", default="certificate.txt")
    p.add_argument("--progress", action="store_true")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("graph", help="contact graph statistics of a packing file")
    p.add_argument("input", help="packing document (JSON)")
    p.add_argument("--rho", type=float, default=None, help="run the coverage audit")
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(func=cmd_graph)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.time()
    try:
        if "workers" in vars(args):  # optimize and certify
            try:
                # resolved in place, so the metadata records the count used
                args.workers = resolve_workers(args.workers)
            except DomainError as exc:
                raise _UsageError(str(exc)) from exc
        code, extras = args.func(args)
        # the program name, then the arguments parsed, not the host's
        command_line = sys.argv if argv is None else [*sys.argv[:1], *argv]
        _report(command_line, args, started, extras)
        return code
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (PackingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except KissboundError as exc:  # DomainError and the numeric failures
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
