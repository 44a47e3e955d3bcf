"""Command line interface: run flows and comparisons from a shell.

Examples::

    dscts run C4 --scale 0.25                 # our flow on a scaled riscv32i
    dscts compare C4 C5 --scale 0.2           # Table III style comparison
    dscts dse C4 --scale 0.25 --fanout 20 100 400 --workers 4
    dscts run C4 --corners tt,ss,ff           # multi-corner sign-off columns
    dscts dse C4 --corners signoff            # Pareto on worst-corner skew
    dscts table2                              # print the benchmark statistics
    dscts serve --port 9000                   # long-lived cross-design service

``dscts serve`` keeps built designs warm in a fingerprint-keyed session
cache and answers ``what_if`` requests (buffer inserts, retargets, corner
swaps) over newline-delimited JSON through the timing engine's incremental
path — see :mod:`repro.serve.protocol` for the wire format.

Every flow command accepts ``--engine {reference,vectorized}`` to pick the
timing engine: ``vectorized`` (the default) runs the array-based incremental
kernel, ``reference`` the per-row scalar Elmore walk — useful to
cross-check results or debug suspected kernel issues.  The analogous
``--dp-backend {reference,vectorized}`` switches the insertion DP between
the array-based candidate-frontier engine (default) and the per-candidate
object DP (the executable spec); both build identical trees.  The same
pattern covers clock routing: ``--dme-backend {reference,vectorized}``
switches the DME router between the level-batched array backend (default)
and the per-node scalar router; both embed identical trees.  The flow keeps
one persistent struct-of-arrays design through every stage, under every
backend; an object clock tree is only an export view.  ``dse`` runs
every sweep point through the same stages, so each point equals ``dscts
run`` at that fanout threshold under the same flags.
``dse --workers N`` evaluates the sweep grid on ``N`` parallel processes.

``--corners SPEC`` evaluates every flow result across a PVT corner set —
preset names (``tt``, ``ss``, ``ff``, ``hot``, ``cold``), the ``signoff``
shorthand for all five, or inline custom corners
(``name:rscale:cscale:derate``).  The vectorized engine batches all corners
in one pass; with corners active the DSE scores sweep points on worst-corner
skew/latency instead of nominal.  Adding ``--corner-aware-construction``
moves the corner batch into the optimisation loops themselves: the insertion
DP and the skew refinement then optimise worst-corner objectives
(``dscts run C4 --corners signoff --corner-aware-construction``).

``--guard {strict,degrade,off}`` selects the guarded-flow policy of
:mod:`repro.guard` (validation, anomaly detection, graceful degradation to
the reference backends); ``--debug`` turns the one-line ``error:`` summaries
back into full tracebacks.

Worker pools (``--workers`` and ``dse --workers``) run on the fault-tolerant
tier of :mod:`repro.parallel`: failed tasks are retried with backoff and, as
a last resort, recomputed inline on the main process (bit-identical by
construction).  ``dscts run`` reports these recoveries as a one-line
``parallel:`` summary; ``--strict-parallel`` raises a typed
:class:`~repro.parallel.ParallelError` instead of degrading to serial.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.baselines import OpenRoadLikeCTS, VelosoBacksideOptimizer
from repro.designs import load_design, table_ii_rows
from repro.dse import DesignSpaceExplorer
from repro.evaluation import ComparisonTable, format_table
from repro.evaluation.reporting import format_metrics, format_ratio_summary
from repro.evaluation.reporting import format_corner_table
from repro.flow import BackendSelection, CtsConfig, DoubleSideCTS, SingleSideCTS
from repro.guard import GUARD_POLICY_NAMES
from repro.insertion.frontier import DP_BACKEND_NAMES
from repro.routing.dme_arrays import DME_BACKEND_NAMES
from repro.tech import CornerSet, asap7_backside
from repro.timing import ENGINE_NAMES


class CliError(ValueError):
    """A pre-flight argument-combination error of the ``dscts`` CLI.

    Raised (not printed) so every error travels the same path through
    :func:`main`'s handler: one ``error: ...`` line on stderr, exit code 1,
    and a full traceback under ``--debug`` — the same contract as every
    other flow error.
    """


def _add_scale(parser: argparse.ArgumentParser) -> None:
    # Only the commands that load a benchmark take --scale; serve requests
    # carry their own.
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="scale factor applied to the benchmark size (default: full size)",
    )


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--engine",
        choices=ENGINE_NAMES,
        default=None,
        help="timing engine: 'vectorized' (fast array kernel, default) or "
        "'reference' (per-row scalar Elmore, for differential checks)",
    )
    parser.add_argument(
        "--dp-backend",
        choices=DP_BACKEND_NAMES,
        default=None,
        help="insertion-DP backend: 'vectorized' (array-based candidate "
        "frontiers, default) or 'reference' (per-candidate object DP, for "
        "differential checks)",
    )
    parser.add_argument(
        "--dme-backend",
        choices=DME_BACKEND_NAMES,
        default=None,
        help="DME routing backend: 'vectorized' (level-batched array "
        "router, default) or 'reference' (per-node scalar router, for "
        "differential checks)",
    )
    parser.add_argument(
        "--corners",
        default=None,
        metavar="SPEC",
        help="comma-separated PVT corner set for multi-corner sign-off: "
        "preset names (tt,ss,ff,hot,cold), 'signoff' for all five, or "
        "custom name:rscale:cscale:derate[:ntsvscale] entries (ntsvscale "
        "defaults to rscale)",
    )
    parser.add_argument(
        "--corner-aware-construction",
        action="store_true",
        help="optimise the construction steps (insertion DP, skew "
        "refinement) against worst-corner objectives over the --corners "
        "batch instead of nominal timing (requires --corners)",
    )
    parser.add_argument(
        "--nominal-skew-budget",
        type=float,
        default=0.0,
        metavar="PS",
        help="nominal skew (ps) a corner-aware skew refinement may give "
        "away while improving the worst corner (default: 0)",
    )
    parser.add_argument(
        "--guard",
        choices=GUARD_POLICY_NAMES,
        default=None,
        help="guarded-flow policy: 'off' (default, no checks), 'degrade' "
        "(validate inputs, re-run anomalous stages on the reference "
        "backends and continue), or 'strict' (fail fast on the first "
        "anomaly)",
    )
    parser.add_argument(
        "--strict-parallel",
        action="store_true",
        help="raise ParallelError when a worker-pool task exhausts its "
        "retries instead of recomputing it inline (degrade-to-serial, "
        "the default)",
    )
    parser.add_argument(
        "--debug",
        action="store_true",
        help="print full tracebacks instead of one-line error summaries",
    )


def _add_construction_workers(parser: argparse.ArgumentParser) -> None:
    # ``dse`` keeps its own --workers (sweep-grid parallelism); this one is
    # the construction-stage knob, so it lives on run/compare only.
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        dest="construction_workers",
        help="process-parallel buffer insertion: run independent bottom "
        "subtrees of the insertion DP on this many workers (routing stays "
        "serial; bit-identical to serial; default: REPRO_FLOW_WORKERS or 1)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dscts", description="Multi-objective double-side clock tree synthesis"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the double-side CTS flow on one benchmark")
    run.add_argument("design", help="benchmark id (C1..C5) or name (jpeg, aes, ...)")
    _add_scale(run)
    _add_common(run)
    _add_construction_workers(run)

    compare = sub.add_parser("compare", help="compare flows on one or more benchmarks")
    compare.add_argument("designs", nargs="+", help="benchmark ids or names")
    _add_scale(compare)
    _add_common(compare)
    _add_construction_workers(compare)

    dse = sub.add_parser("dse", help="sweep the DSE fanout threshold")
    dse.add_argument("design", help="benchmark id or name")
    dse.add_argument(
        "--fanout", type=int, nargs="+", default=[20, 50, 100, 200, 400, 1000]
    )
    dse.add_argument(
        "--workers",
        type=int,
        default=1,
        help="evaluate the sweep grid on this many parallel processes",
    )
    _add_scale(dse)
    _add_common(dse)

    serve = sub.add_parser(
        "serve", help="long-lived CTS service with a cross-design session cache"
    )
    serve.add_argument("--host", default="127.0.0.1", help="TCP bind address")
    serve.add_argument(
        "--port", type=int, default=0, help="TCP port (0 picks an ephemeral one)"
    )
    serve.add_argument(
        "--stdio",
        action="store_true",
        help="serve newline-delimited JSON over stdin/stdout instead of TCP",
    )
    serve.add_argument(
        "--max-sessions",
        type=int,
        default=8,
        help="session cache capacity (least-recently-used designs evicted)",
    )
    serve.add_argument(
        "--serve-workers",
        type=int,
        default=2,
        help="bounded worker pool size bridging requests into the flow",
    )
    _add_common(serve)
    _add_construction_workers(serve)

    sub.add_parser("table2", help="print the Table II benchmark statistics")
    return parser


def _config_for(args: argparse.Namespace) -> CtsConfig:
    corners = None
    if getattr(args, "corners", None):
        corners = CornerSet.parse(args.corners)
    corner_aware = bool(getattr(args, "corner_aware_construction", False))
    if corner_aware and corners is None:
        raise CliError("--corner-aware-construction requires --corners")
    budget = float(getattr(args, "nominal_skew_budget", 0.0))
    if budget < 0:
        raise CliError("--nominal-skew-budget must be non-negative")
    if budget and not corner_aware:
        raise CliError(
            "--nominal-skew-budget only applies with "
            "--corner-aware-construction"
        )
    parallel_policy = None
    if getattr(args, "strict_parallel", False):
        from repro.parallel import resolve_parallel_policy

        parallel_policy = resolve_parallel_policy().with_updates(mode="strict")
    return CtsConfig(
        corners=corners,
        corner_aware_construction=corner_aware,
        nominal_skew_budget=budget,
        workers=getattr(args, "construction_workers", None),
        parallel_policy=parallel_policy,
        backends=BackendSelection(
            timing=args.engine,
            dp=getattr(args, "dp_backend", None),
            dme=getattr(args, "dme_backend", None),
            guard=getattr(args, "guard", None),
        ),
    )


def _cmd_run(args: argparse.Namespace) -> int:
    pdk = asap7_backside()
    # Pre-flight the argument combination before the (expensive) design load.
    config = _config_for(args)
    design = load_design(args.design, scale=args.scale, include_combinational=False)
    result = DoubleSideCTS(pdk, config).run(design)
    print(format_metrics(result.metrics))
    if result.parallel_tasks:
        print(result.parallel_summary())
    if result.metrics.corner_skews:
        print(format_corner_table(result.metrics))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    pdk = asap7_backside()
    config = _config_for(args)
    table = ComparisonTable(reference_flow="ours")
    for identifier in args.designs:
        design = load_design(identifier, scale=args.scale, include_combinational=False)
        ours = DoubleSideCTS(pdk, config).run(design)
        openroad = OpenRoadLikeCTS(pdk).run(design)
        veloso = VelosoBacksideOptimizer(pdk).run(
            openroad.design, design_name=design.name
        )
        single = SingleSideCTS(pdk, config).run(design)
        for metrics in (ours.metrics, openroad.metrics, veloso.metrics, single.metrics):
            table.add(metrics)
    print(format_table(table.rows()))
    print()
    print(format_ratio_summary(table.summary()))
    return 0


def _cmd_dse(args: argparse.Namespace) -> int:
    pdk = asap7_backside()
    config = _config_for(args)
    design = load_design(args.design, scale=args.scale, include_combinational=False)
    explorer = DesignSpaceExplorer(pdk, config)
    result = explorer.explore(
        design, fanout_thresholds=args.fanout, workers=args.workers
    )
    print(format_table(result.rows()))
    pareto = result.pareto()
    print(f"\nPareto-optimal configurations: {[p.parameter for p in pareto]}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import CtsServer

    if args.max_sessions < 1:
        raise CliError("--max-sessions must be at least 1")
    if args.serve_workers < 1:
        raise CliError("--serve-workers must be at least 1")
    server = CtsServer(
        asap7_backside(),
        _config_for(args),
        max_sessions=args.max_sessions,
        workers=args.serve_workers,
    )
    if args.stdio:
        return server.run_stdio()
    asyncio.run(server.serve_tcp(args.host, args.port))
    return 0


def _cmd_table2(_args: argparse.Namespace) -> int:
    print(format_table(table_ii_rows()))
    return 0


def _dispatch(args: argparse.Namespace) -> int:
    """Run the selected command with the CLI backend choices as process defaults.

    The environment overrides make the engine / backend / guard choices the
    process-wide defaults for the duration of the command so baseline flows
    (which have no knobs of their own) honour them too.
    """
    handlers = {
        "run": _cmd_run,
        "compare": _cmd_compare,
        "dse": _cmd_dse,
        "serve": _cmd_serve,
        "table2": _cmd_table2,
    }
    overrides = {}
    if getattr(args, "engine", None):
        overrides["REPRO_TIMING_ENGINE"] = args.engine
    if getattr(args, "dp_backend", None):
        overrides["REPRO_DP_BACKEND"] = args.dp_backend
    if getattr(args, "dme_backend", None):
        overrides["REPRO_DME_BACKEND"] = args.dme_backend
    if getattr(args, "guard", None):
        overrides["REPRO_GUARD"] = args.guard
    if not overrides:
        return handlers[args.command](args)
    previous = {name: os.environ.get(name) for name in overrides}
    os.environ.update(overrides)
    try:
        return handlers[args.command](args)
    finally:
        for name, value in previous.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def main(argv: list[str] | None = None) -> int:
    """Entry point of the ``dscts`` console script.

    Errors surface as a one-line ``error: ...`` on stderr with exit code 1;
    pass ``--debug`` to re-raise and get the full traceback.  ``SystemExit``
    (argparse usage errors) and ``KeyboardInterrupt`` pass through untouched.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except Exception as exc:  # noqa: BLE001 - the CLI boundary
        if getattr(args, "debug", False):
            raise
        # KeyError reprs its argument; unwrap it for a readable message.
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
