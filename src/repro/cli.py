"""Command-line entry point: ``repro-lvp`` / ``python -m repro``.

Examples::

    repro-lvp list                      # experiments and workloads
    repro-lvp run fig5                  # regenerate Figure 5 (quick)
    repro-lvp run table6 --scale smoke  # smaller/faster
    repro-lvp run fig12 --json out.json # machine-readable results
    repro-lvp explore --grid table6 -o ranked.json
                                        # successive-halving design-
                                        #   space search (Table VI)
    repro-lvp cache --stats             # on-disk trace store contents
    repro-lvp cache --stats --which all # ... plus the results database
    repro-lvp serve --port 7341         # online prediction service
    repro-lvp serve --data-dir ./state  # ... with durable sessions
    repro-lvp serve --shards 4 --data-dir ./state
                                        # ... sharded tier: router + 4
                                        #     worker processes, failover
    repro-lvp serve --shards 4 --standbys 1 --data-dir ./state
                                        # ... plus a warm standby per
                                        #     shard (promotion failover)
    repro-lvp db gc --dry-run           # results-DB stale-entry eviction
    repro-lvp loadgen --connect 127.0.0.1:7341
                                        # replay a trace against a
                                        #   running server: latency
                                        #   percentiles as JSON
    repro-lvp crashtest --kills 3       # SIGKILL/restart one server
                                        #   under 3 durable sessions
    repro-lvp crashtest --shards 3      # ... the same campaign killing
                                        #   worker shards of the tier

Resilient execution (long sweeps)::

    export REPRO_RESULTS_DB_DIR=~/.cache/repro-results
    repro-lvp run fig12 --scale full --timeout 120
    # ... killed half-way?  rerun the same command: finished cells
    # come back from the results database, only the rest run
    repro-lvp run fig12 --scale full --timeout 120
    # isolate cells in worker subprocesses (hangs get reaped):
    repro-lvp run table6 --workers 2 --timeout 60 --max-retries 3

Exit codes: 0 success; 1 unexpected error; 2 bad input (missing or
corrupt trace file, unknown predictor, bad flags); 3 the experiment
completed but some sweep cells failed terminally (partial results were
still printed, with a ``failures`` summary).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time
from pathlib import Path

from repro.common.atomicfile import atomic_write_json

# Each subcommand imports what it runs inside its own function: a
# process serving the sharded tier's router never loads numpy or the
# simulator.  The two tables below are the CLI's seams (tests add
# entries to them); their string values name attributes resolved on
# first use, and any other value is used as it is.

#: scale name -> attribute of :mod:`repro.harness.presets`
_SCALES = {"smoke": "SMOKE", "quick": "QUICK", "full": "FULL"}

#: experiment id -> (function of :mod:`repro.harness.experiments`,
#: takes_scale)
_EXPERIMENTS = {
    "table1": ("table1_taxonomy", False),
    "table2": ("table2_workloads", False),
    "table3": ("table3_core_config", False),
    "table4": ("table4_parameters", False),
    "table5": ("table5_listing1", False),
    "table6": ("table6_heterogeneous", True),
    "ablation1": ("ablation_footnote1", True),
    "ablation2": ("ablation_selection_policy", True),
    "ablation3": ("ablation_confidence_tuning", True),
    "fig2": ("fig2_load_breakdown", True),
    "fig3": ("fig3_component_speedup", True),
    "fig4": ("fig4_overlap", True),
    "fig5": ("fig5_composite_vs_component", True),
    "fig6": ("fig6_accuracy_monitor", True),
    "fig7": ("fig7_smart_training", True),
    "fig8": ("fig8_smart_training_speedup", True),
    "fig9": ("fig9_table_fusion", True),
    "fig10": ("fig10_combined", True),
    "fig11": ("fig11_vs_eves", True),
    "fig12": ("fig12_per_workload", True),
}


def _resolve(value, module: str):
    """``value``, or the attribute of ``module`` it names."""
    if isinstance(value, str):
        return getattr(importlib.import_module(module), value)
    return value


def _scale(name: str):
    """The :class:`~repro.harness.presets.ExperimentScale` ``name``."""
    return _resolve(_SCALES[name], "repro.harness.presets")


#: Exit code when a sweep finished with terminally failed cells.
EXIT_PARTIAL_FAILURE = 3
#: Exit code for bad user input (files, names, flag combinations).
EXIT_BAD_INPUT = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lvp",
        description=(
            "Reproduction of 'Efficient Load Value Prediction using "
            "Multiple Predictors and Filters' (HPCA 2019)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments and workloads")

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("experiment", choices=sorted(_EXPERIMENTS))
    run.add_argument(
        "--scale", choices=sorted(_SCALES), default="quick",
        help="experiment size (default: quick)",
    )
    run.add_argument(
        "--json", metavar="PATH",
        help="also write the raw result dict as JSON (written atomically)",
    )
    _add_resilience_flags(run)

    sim = sub.add_parser(
        "simulate",
        help="run the timing model over a trace file (see Trace.save)",
    )
    sim.add_argument("trace", help="JSON-lines trace file")
    sim.add_argument(
        "--predictor", default="none",
        help="none | composite | eves-8kb | eves-32kb | one of "
             "lvp/sap/cvp/cap/lap/svp (default: none)",
    )
    sim.add_argument(
        "--entries", type=int, default=256,
        help="entries per component (composite) or of the lone "
             "component (lvp/sap/cvp/cap/lap/svp, run as a one-component "
             "plain composite); default 256",
    )

    serve = sub.add_parser(
        "serve",
        help="run the online prediction server (drains cleanly on "
             "SIGTERM/SIGINT)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=int, default=0, metavar="N",
        help="TCP port; 0 binds an ephemeral port and prints it "
             "(default: 0)",
    )
    serve.add_argument(
        "--max-queue", type=int, default=1024, metavar="N",
        help="bounded request queue; overflow gets explicit "
             "backpressure responses (default: 1024)",
    )
    serve.add_argument(
        "--max-batch", type=int, default=16, metavar="N",
        help="most requests coalesced per scheduler wakeup (default: 16)",
    )
    serve.add_argument(
        "--request-timeout", type=float, default=30.0, metavar="SECONDS",
        help="queue-wait budget per request; 0 disables (default: 30)",
    )
    serve.add_argument(
        "--max-sessions", type=int, default=64, metavar="N",
        help="LRU-evict idle sessions beyond this count (default: 64)",
    )
    serve.add_argument(
        "--max-session-bytes", type=int, default=None, metavar="N",
        help="estimated byte budget across all sessions (default: none)",
    )
    serve.add_argument(
        "--stats-interval", type=float, default=0.0, metavar="SECONDS",
        help="log a stats JSON line to stderr every so often; 0 "
             "disables (default: 0)",
    )
    serve.add_argument(
        "--seq-cache-size", type=int, default=None, metavar="N",
        help="exactly-once replay cache entries per session "
             "(default: 256)",
    )
    serve.add_argument(
        "--seq-cache-bytes", type=int, default=None, metavar="N",
        help="exactly-once replay cache byte watermark per session "
             "(default: 262144)",
    )
    sharding = serve.add_argument_group(
        "sharding",
        "multi-process tier: a front router consistent-hashes sessions "
        "onto worker-shard subprocesses, health-checks them, restarts "
        "dead ones (WAL replay makes kill -9 lossless for acked "
        "requests), and answers 'shards'/'migrate' ops itself",
    )
    sharding.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="worker shard processes; 1 runs the classic single-process "
             "server (default: 1)",
    )
    sharding.add_argument(
        "--ring-replicas", type=int, default=64, metavar="N",
        help="virtual points per shard on the consistent-hash ring "
             "(default: 64)",
    )
    sharding.add_argument(
        "--standbys", type=int, default=0, metavar="N",
        help="warm standby processes per shard (0 or 1): each primary "
             "streams its WAL to a standby whose promotion replaces "
             "cold restart-and-replay on worker death (default: 0; "
             "needs --data-dir)",
    )
    sharding.add_argument(
        "--health-interval", type=float, default=0.25, metavar="SECONDS",
        help="base seconds between worker liveness polls; the monitor "
             "backs off exponentially toward --health-backoff-max "
             "while the tier stays healthy (default: 0.25)",
    )
    sharding.add_argument(
        "--health-backoff-max", type=float, default=2.0, metavar="SECONDS",
        help="ceiling for the backed-off health poll (default: 2.0)",
    )
    sharding.add_argument(
        "--shard-name", default=None, help=argparse.SUPPRESS,
    )
    sharding.add_argument(
        "--parent-pid", type=int, default=None, help=argparse.SUPPRESS,
    )
    sharding.add_argument(
        "--standby-of", type=int, default=None, help=argparse.SUPPRESS,
    )
    durability = serve.add_argument_group(
        "durability",
        "write-ahead logged sessions that survive crashes: sessions "
        "opened durable are WAL-logged + checkpointed under --data-dir "
        "and recovered by replay on startup",
    )
    durability.add_argument(
        "--data-dir", metavar="PATH",
        help="root directory for session WALs and checkpoints "
             "(default: durability disabled)",
    )
    durability.add_argument(
        "--fsync-interval", type=float, default=0.02, metavar="SECONDS",
        help="max seconds between WAL fsyncs; 0 fsyncs every append "
             "(default: 0.02)",
    )
    durability.add_argument(
        "--checkpoint-every", type=int, default=2000, metavar="N",
        help="WAL records between full-state checkpoints (default: 2000)",
    )
    durability.add_argument(
        "--wal-segment-bytes", type=int, default=1 << 20, metavar="N",
        help="rotate WAL segments past this size (default: 1048576)",
    )

    loadgen = sub.add_parser(
        "loadgen",
        help="replay a trace against a running prediction server and "
             "print request latency percentiles as JSON",
    )
    loadgen.add_argument(
        "--workload", default="gcc2k", metavar="NAME",
        help="workload to replay (default: gcc2k)",
    )
    loadgen.add_argument(
        "--length", type=int, default=8000, metavar="N",
        help="instructions in the replayed trace (default: 8000)",
    )
    loadgen.add_argument(
        "--seed", type=int, default=0, metavar="N",
        help="workload seed (default: 0)",
    )
    loadgen.add_argument(
        "--predictor", default="composite",
        help="predictor each session runs (default: composite)",
    )
    loadgen.add_argument(
        "--entries", type=int, default=256, metavar="N",
        help="entries per component (default: 256)",
    )
    loadgen.add_argument(
        "--sessions", type=int, default=16, metavar="N",
        help="concurrent sessions, one connection each (default: 16)",
    )
    loadgen.add_argument(
        "--events-per-request", type=int, default=32, metavar="N",
        help="instruction events per apply request (default: 32)",
    )
    loadgen.add_argument(
        "--pipeline-depth", type=int, default=4, metavar="N",
        help="in-flight requests per session (default: 4)",
    )
    loadgen.add_argument(
        "--connect", metavar="HOST:PORT",
        help="the running server (or sharded tier) to drive; required",
    )
    loadgen.add_argument(
        "--durable", action="store_true",
        help="open durable sessions and seq-stamp requests (the "
             "target server needs --data-dir)",
    )

    crashtest = sub.add_parser(
        "crashtest",
        help="SIGKILL the server mid-load repeatedly and prove zero "
             "acknowledged-event loss (the durability acceptance gate)",
    )
    crashtest.add_argument(
        "--workload", default="gcc2k", metavar="NAME",
        help="workload to replay (default: gcc2k)",
    )
    crashtest.add_argument(
        "--length", type=int, default=4000, metavar="N",
        help="instructions in the replayed trace (default: 4000)",
    )
    crashtest.add_argument(
        "--seed", type=int, default=0, metavar="N",
        help="workload seed (default: 0)",
    )
    crashtest.add_argument(
        "--predictor", default="lvp",
        help="predictor the durable session runs (default: lvp)",
    )
    crashtest.add_argument(
        "--entries", type=int, default=256, metavar="N",
        help="entries per component (default: 256)",
    )
    crashtest.add_argument(
        "--kills", type=int, default=3, metavar="N",
        help="SIGKILL/restart cycles spread across the load (default: 3)",
    )
    chaos = crashtest.add_argument_group(
        "tier chaos",
        "the campaign runs `serve --shards N`: at N = 1 each kill "
        "SIGKILLs and restarts the one server; above 1 it SIGKILLs a "
        "whole worker shard behind the router, and a live migration "
        "runs concurrently",
    )
    chaos.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="worker shards behind the router; 1 runs one bare server "
             "(default: 1)",
    )
    chaos.add_argument(
        "--sessions", type=int, default=3, metavar="N",
        help="concurrent durable sessions, at any shard count "
             "(default: 3)",
    )
    chaos.add_argument(
        "--kill-router", action="store_true",
        help="also SIGKILL the router itself once mid-load (the "
             "restart must fence the orphaned workers)",
    )
    chaos.add_argument(
        "--migrations", type=int, default=1, metavar="N",
        help="live session migrations issued under load with "
             "--shards > 1; 0 disables (default: 1)",
    )
    chaos.add_argument(
        "--standbys", type=int, default=0, metavar="N",
        help="warm standbys per shard (0 or 1), needs --shards > 1; kills "
             "then exercise promotion, and the report gains a "
             "recovery-time-objective comparison of promotion vs. "
             "restart-and-replay (default: 0)",
    )
    crashtest.add_argument(
        "--events-per-request", type=int, default=64, metavar="N",
        help="instruction events per apply request (default: 64)",
    )
    crashtest.add_argument(
        "--data-dir", metavar="PATH",
        help="durable state directory (default: a fresh temp dir)",
    )
    crashtest.add_argument(
        "--fsync-interval", type=float, default=0.005, metavar="SECONDS",
        help="server WAL fsync batching window (default: 0.005)",
    )
    crashtest.add_argument(
        "--checkpoint-every", type=int, default=200, metavar="N",
        help="server checkpoint cadence in WAL records (default: 200)",
    )
    crashtest.add_argument(
        "--timeout", type=float, default=300.0, metavar="SECONDS",
        help="abort the campaign if it has not finished by then "
             "(default: 300)",
    )
    crashtest.add_argument(
        "-o", "--output", metavar="PATH",
        help="also write the full report dict as JSON (atomically)",
    )

    explore = sub.add_parser(
        "explore",
        help="successive-halving search over a named design-space grid "
             "(heterogeneous allocations, fusion, accuracy monitors)",
    )
    explore.add_argument(
        "--grid", default="table6", metavar="NAME",
        help="design-space grid to search (default: table6; "
             "see 'repro-lvp list')",
    )
    explore.add_argument(
        "--scale", default="quick", metavar="NAME",
        help="experiment size (default: quick)",
    )
    explore.add_argument(
        "--metric", default="speedup", metavar="NAME",
        help="ranking metric (default: speedup; valid metrics depend "
             "on --mode)",
    )
    explore.add_argument(
        "--mode", default="timing", metavar="NAME",
        help="evaluation mode: timing (cycle model) or functional "
             "(default: timing)",
    )
    explore.add_argument(
        "--eta", type=float, default=2.0, metavar="F",
        help="halving factor: keep 1/eta of each budget group per rung "
             "(default: 2.0)",
    )
    explore.add_argument(
        "--rungs", type=int, default=None, metavar="N",
        help="override the natural rung count (default: derived from "
             "grid and scale)",
    )
    explore.add_argument(
        "-o", "--output", metavar="PATH",
        help="also write the ranked report as JSON (written atomically)",
    )
    _add_resilience_flags(explore)

    cache = sub.add_parser(
        "cache",
        help="inspect or clear the on-disk caches: the trace store "
             "(REPRO_TRACE_CACHE_DIR) and the results database "
             "(REPRO_RESULTS_DB_DIR)",
    )
    cache_action = cache.add_mutually_exclusive_group(required=True)
    cache_action.add_argument(
        "--stats", action="store_true",
        help="print location, entry count, and sizes as JSON",
    )
    cache_action.add_argument(
        "--clear", action="store_true",
        help="delete every entry (and stale temp files)",
    )
    cache.add_argument(
        "--which", default="trace", metavar="NAME",
        help="which cache: trace (default), results, or all",
    )
    cache.add_argument(
        "--dir", metavar="PATH", dest="cache_dir",
        help="trace store directory (default: $REPRO_TRACE_CACHE_DIR)",
    )
    cache.add_argument(
        "--results-dir", metavar="PATH", dest="results_dir",
        help="results database directory "
             "(default: $REPRO_RESULTS_DB_DIR)",
    )

    db = sub.add_parser(
        "db",
        help="maintain the fingerprint-keyed results database "
             "(REPRO_RESULTS_DB_DIR)",
    )
    db.add_argument(
        "action", choices=("gc",),
        help="gc: evict entries recorded under stale code or "
             "semantics versions (they would never be served again)",
    )
    db.add_argument(
        "--results-dir", metavar="PATH", dest="results_dir",
        help="results database directory "
             "(default: $REPRO_RESULTS_DB_DIR)",
    )
    db.add_argument(
        "--dry-run", action="store_true",
        help="report what would be evicted without deleting anything",
    )

    report = sub.add_parser(
        "report", help="run every experiment and write a markdown report"
    )
    report.add_argument(
        "--scale", choices=sorted(_SCALES), default="quick",
    )
    report.add_argument(
        "-o", "--output", metavar="PATH", default="report.md",
        help="output file (default: report.md)",
    )
    report.add_argument(
        "--sections", nargs="*", metavar="ID",
        help="subset of experiments (default: all)",
    )
    return parser


def _add_resilience_flags(parser: argparse.ArgumentParser) -> None:
    """The flags ``run`` and ``explore`` share for executing sweeps."""
    group = parser.add_argument_group(
        "resilient execution",
        "fault tolerance for sweep-style experiments: per-cell "
        "timeouts, retries and subprocess isolation.  With "
        "REPRO_RESULTS_DB_DIR set, rerunning a killed command serves "
        "its finished cells from the results database",
    )
    group.add_argument(
        "--timeout", type=float, metavar="SECONDS",
        help="per-cell wall-clock timeout, > 0 (cooperative when "
             "--workers 0; default: none)",
    )
    group.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="run cells in N worker subprocesses; 0 = in-process "
             "(default). Hung workers are killed and their cells retried.",
    )
    group.add_argument(
        "--max-retries", type=int, default=2, metavar="N",
        help="retries per cell on transient failures (default: 2)",
    )


def _fail(message: str, code: int = EXIT_BAD_INPUT) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _not_a_directory(label: str, root: str | None) -> str | None:
    """The error for a configured store root that is not a directory."""
    if root and Path(root).exists() and not Path(root).is_dir():
        return f"{label} path is not a directory: {root}"
    return None


def _sweep_setup_error(args) -> str | None:
    """Why ``run``/``explore`` cannot start: bad flags or DB path."""
    if args.timeout is not None and args.timeout <= 0:
        return f"--timeout must be > 0, got {args.timeout}"
    if args.workers < 0:
        return f"--workers must be >= 0, got {args.workers}"
    if args.max_retries < 0:
        return f"--max-retries must be >= 0, got {args.max_retries}"
    from repro.harness import resultsdb

    return _not_a_directory(
        "results database", os.environ.get(resultsdb.ENV_VAR)
    )


def _policy_from_args(args):
    """The :class:`~repro.harness.resilient.ExecutionPolicy` of
    ``run``/``explore``'s resilience flags."""
    from repro.harness import resilient

    return resilient.ExecutionPolicy(
        workers=args.workers,
        timeout=args.timeout,
        retry=resilient.RetryPolicy(max_retries=args.max_retries),
        progress=(
            (lambda outcome, done, total: print(
                f"[{done}/{total}] {outcome.id}: {outcome.status}",
                file=sys.stderr,
            ))
            if args.workers else None
        ),
    )


def _interrupted() -> int:
    """Exit 130 with a hint on finishing the interrupted campaign."""
    from repro.harness import resultsdb

    root = os.environ.get(resultsdb.ENV_VAR)
    if root:
        print(
            f"interrupted; finished cells are in ${resultsdb.ENV_VAR} "
            f"({root}); rerun the same command to finish",
            file=sys.stderr,
        )
    else:
        print(
            f"interrupted; set {resultsdb.ENV_VAR} to keep finished "
            "cells, so a rerun of the same command computes only the rest",
            file=sys.stderr,
        )
    return 130


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        from repro.harness.presets import EXPLORE_GRIDS
        from repro.workloads.generator import SPECIAL_WORKLOADS
        from repro.workloads.profiles import ALL_WORKLOADS

        print("experiments:", ", ".join(sorted(_EXPERIMENTS)))
        print("explore grids:", ", ".join(sorted(EXPLORE_GRIDS)))
        print(f"workloads ({len(ALL_WORKLOADS)}):", ", ".join(ALL_WORKLOADS))
        print(
            f"special workloads ({len(SPECIAL_WORKLOADS)}):",
            ", ".join(SPECIAL_WORKLOADS),
        )
        return 0

    if args.command == "explore":
        return _explore_command(args)

    if args.command == "simulate":
        return _simulate_command(args)

    if args.command == "serve":
        return _serve_command(args)

    if args.command == "loadgen":
        return _loadgen_command(args)

    if args.command == "crashtest":
        return _crashtest_command(args)

    if args.command == "cache":
        return _cache_command(args)

    if args.command == "db":
        return _db_command(args)

    if args.command == "report":
        from repro.harness.report import generate_report

        scale = _scale(args.scale)
        report_text = generate_report(
            scale,
            sections=tuple(args.sections) if args.sections else None,
            progress=lambda s: print(f"running {s} ...", file=sys.stderr),
        )
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(report_text)
        print(f"wrote {args.output}", file=sys.stderr)
        return 0

    return _run_command(args)


def _print_db_summary() -> None:
    """One stderr line on results-database effectiveness, if it ran.

    Stderr only: stdout payloads must stay byte-identical between a
    clean run and a rerun that serves every cell from the database.
    """
    from repro.harness import resilient

    totals = resilient.db_usage_totals()
    if totals.lookups:
        print(
            f"# results-db: {totals.hits}/{totals.lookups} cells from "
            f"cache ({totals.hit_rate:.0%}), {totals.computed} computed, "
            f"{totals.stored} stored",
            file=sys.stderr,
        )


def _run_command(args) -> int:
    """The ``run`` subcommand: one experiment under a resilience policy."""
    error = _sweep_setup_error(args)
    if error:
        return _fail(error)

    from repro.harness import resilient

    function, takes_scale = _EXPERIMENTS[args.experiment]
    function = _resolve(function, "repro.harness.experiments")
    scale = _scale(args.scale)
    started = time.time()
    try:
        with resilient.use_policy(_policy_from_args(args)):
            result = function(scale) if takes_scale else function()
    except ValueError as exc:
        # Bad inputs surfaced by deeper layers (malformed predictor
        # specs, unknown workloads) are exit-code-2 material, not
        # tracebacks -- the PR-1 exit-code contract.
        return _fail(str(exc))
    except KeyboardInterrupt:
        return _interrupted()
    elapsed = time.time() - started

    print(json.dumps(result, indent=2, default=str))
    print(f"# {args.experiment} finished in {elapsed:.1f}s", file=sys.stderr)
    _print_db_summary()
    if args.json:
        atomic_write_json(args.json, result)

    failures = result.get("failures") if isinstance(result, dict) else None
    if failures:
        print(
            f"# {failures['failed_cells']}/{failures['total_cells']} sweep "
            "cells failed; partial results above (see 'failures')",
            file=sys.stderr,
        )
        return EXIT_PARTIAL_FAILURE
    return 0


def _explore_command(args) -> int:
    """The ``explore`` subcommand: successive-halving grid search."""
    from repro.harness import resilient
    from repro.harness.explore import METRICS, MODES, run_explore
    from repro.harness.presets import EXPLORE_GRIDS

    if args.grid not in EXPLORE_GRIDS:
        return _fail(
            f"unknown grid {args.grid!r}; valid grids: "
            + ", ".join(sorted(EXPLORE_GRIDS))
        )
    if args.scale not in _SCALES:
        return _fail(
            f"unknown scale {args.scale!r}; valid scales: "
            + ", ".join(sorted(_SCALES))
        )
    if args.mode not in MODES:
        return _fail(
            f"unknown mode {args.mode!r}; valid modes: " + ", ".join(MODES)
        )
    if args.metric not in METRICS[args.mode]:
        return _fail(
            f"unknown metric {args.metric!r} for mode {args.mode!r}; "
            "valid metrics: " + ", ".join(METRICS[args.mode])
        )
    if args.eta <= 1.0:
        return _fail(f"--eta must be > 1.0, got {args.eta}")
    if args.rungs is not None and args.rungs < 1:
        return _fail(f"--rungs must be >= 1, got {args.rungs}")
    error = _sweep_setup_error(args)
    if error:
        return _fail(error)

    started = time.time()
    try:
        with resilient.use_policy(_policy_from_args(args)):
            result = run_explore(
                EXPLORE_GRIDS[args.grid], _scale(args.scale),
                metric=args.metric, mode=args.mode, eta=args.eta,
                rungs=args.rungs,
            )
    except ValueError as exc:
        return _fail(str(exc))
    except KeyboardInterrupt:
        return _interrupted()
    elapsed = time.time() - started

    print(json.dumps(result, indent=2, default=str))
    print(
        f"# explore {args.grid} finished in {elapsed:.1f}s; evaluated "
        f"{result['evaluated_cells']} of {result['full_grid_cells']} "
        "full-grid cells",
        file=sys.stderr,
    )
    _print_db_summary()
    if args.output:
        atomic_write_json(args.output, result)
        print(f"# wrote {args.output}", file=sys.stderr)

    failures = result.get("failures")
    if failures:
        print(
            f"# {failures['failed_cells']} sweep cell(s) failed "
            "terminally; partial ranking above (see 'failures')",
            file=sys.stderr,
        )
        return EXIT_PARTIAL_FAILURE
    return 0


def _check_workload(name: str) -> str | None:
    """None when ``name`` is a known workload, else the error message."""
    from repro.workloads.generator import SPECIAL_WORKLOADS
    from repro.workloads.profiles import ALL_WORKLOADS

    valid = tuple(ALL_WORKLOADS) + tuple(SPECIAL_WORKLOADS)
    if name in valid:
        return None
    return f"unknown workload {name!r}; valid names: " + ", ".join(valid)


def _serve_command(args) -> int:
    """The ``serve`` subcommand: run the server until SIGTERM/SIGINT.

    ``--shards 1`` (the default) runs the classic single-process
    server; ``--shards N`` runs the sharded tier's router with N worker
    subprocesses behind it.  Either way the process prints the one
    ``serving on host:port`` line scripts parse.
    """
    from repro.serve.config import ServerConfig

    if not 0 <= args.port <= 65535:
        return _fail(f"--port must be in [0, 65535], got {args.port}")
    if args.max_queue < 1:
        return _fail(f"--max-queue must be >= 1, got {args.max_queue}")
    if args.max_batch < 1:
        return _fail(f"--max-batch must be >= 1, got {args.max_batch}")
    if args.request_timeout < 0:
        return _fail(
            f"--request-timeout must be >= 0, got {args.request_timeout}"
        )
    if args.max_sessions < 1:
        return _fail(f"--max-sessions must be >= 1, got {args.max_sessions}")
    if args.max_session_bytes is not None and args.max_session_bytes < 1:
        return _fail(
            f"--max-session-bytes must be >= 1, got {args.max_session_bytes}"
        )
    if args.shards < 1:
        return _fail(f"--shards must be >= 1, got {args.shards}")
    if args.ring_replicas < 1:
        return _fail(
            f"--ring-replicas must be >= 1, got {args.ring_replicas}"
        )
    if args.stats_interval < 0:
        return _fail(
            f"--stats-interval must be >= 0, got {args.stats_interval}"
        )
    for flag, value in (
        ("--seq-cache-size", args.seq_cache_size),
        ("--seq-cache-bytes", args.seq_cache_bytes),
    ):
        if value is not None and value < 1:
            return _fail(f"{flag} must be >= 1, got {value}")
    if args.standbys not in (0, 1):
        return _fail(f"--standbys must be 0 or 1, got {args.standbys}")
    if args.health_interval <= 0:
        return _fail(
            f"--health-interval must be > 0, got {args.health_interval}"
        )
    if args.health_backoff_max < args.health_interval:
        return _fail(
            f"--health-backoff-max must be >= --health-interval, got "
            f"{args.health_backoff_max} < {args.health_interval}"
        )
    if args.standbys and args.data_dir is None:
        return _fail("--standbys requires --data-dir (a WAL to ship)")
    if args.standby_of is not None:
        if not 0 < args.standby_of <= 65535:
            return _fail(
                f"--standby-of must be a port in [1, 65535], "
                f"got {args.standby_of}"
            )
        if args.data_dir is None:
            return _fail("--standby-of requires --data-dir")
        if args.shards > 1 or args.standbys:
            return _fail(
                "--standby-of runs a single standby process; it is "
                "incompatible with --shards > 1 and --standbys"
            )
    problem = _check_durability_flags(args)
    if problem:
        return _fail(problem)
    extra = {}
    if args.seq_cache_size is not None:
        extra["seq_cache_size"] = args.seq_cache_size
    if args.seq_cache_bytes is not None:
        extra["seq_cache_bytes"] = args.seq_cache_bytes
    # The one server config of this invocation: this process's own, or
    # (sharded) every worker's and standby's.
    config = ServerConfig(
        host=args.host,
        port=args.port,
        max_queue=args.max_queue,
        max_batch=args.max_batch,
        request_timeout=args.request_timeout or None,
        max_sessions=args.max_sessions,
        max_session_bytes=args.max_session_bytes,
        data_dir=args.data_dir,
        fsync_interval=args.fsync_interval,
        checkpoint_every=args.checkpoint_every,
        wal_segment_bytes=args.wal_segment_bytes,
        shard_name=args.shard_name,
        parent_pid=args.parent_pid,
        **extra,
    )
    if args.standby_of is not None:
        return _serve_standby(args, config)
    if args.shards > 1 or args.standbys:
        return _serve_router(args, config)

    from repro.serve.server import PredictionServer

    def announce(server) -> None:
        if server.recovery.get("recovered_sessions"):
            print(
                f"# recovered {server.recovery['recovered_sessions']} "
                f"durable session(s) by replaying "
                f"{server.recovery['replayed_records']} WAL record(s)",
                file=sys.stderr, flush=True,
            )

    return _run_until_drained(
        args, lambda: PredictionServer(config), announce
    )


def _run_until_drained(args, make_server, announce=None, final=None) -> int:
    """Run one serving process until SIGTERM/SIGINT drains it.

    ``make_server()`` builds the server, router or standby inside the
    event loop; after it starts, ``announce(server)`` may print to
    stderr before the ``serving on host:port`` line scripts parse.  On
    a clean drain the final stats (``final(server)``, by default
    ``server.stats()``) go to stdout as JSON and ``# drained cleanly``
    to stderr (exit 0); a bind failure exits 2 and SIGINT 130.
    """
    import asyncio

    async def _serve() -> dict:
        server = make_server()
        await server.start()
        if announce is not None:
            announce(server)
        # The one line scripts and the shard manager parse to learn the
        # ephemeral port; a tier prints it too, as a drop-in replacement
        # behind one address.
        print(f"serving on {args.host}:{server.port}", flush=True)
        logger = _start_stats_logger(server.stats, args.stats_interval)
        try:
            await server.serve_until_shutdown()
        finally:
            if logger is not None:
                logger.cancel()
        return server.stats() if final is None else final(server)

    try:
        stats = asyncio.run(_serve())
    except OSError as exc:
        return _fail(f"cannot bind {args.host}:{args.port}: {exc}")
    except KeyboardInterrupt:
        return 130
    print(json.dumps(stats, indent=2))
    print("# drained cleanly", file=sys.stderr)
    return 0


def _start_stats_logger(get_stats, interval: float):
    """Spawn the ``--stats-interval`` task: one stats JSON line per
    tick on stderr (sync or async stats callables both work)."""
    import asyncio
    import inspect

    if not interval:
        return None

    async def _log() -> None:
        while True:
            await asyncio.sleep(interval)
            try:
                payload = get_stats()
                if inspect.isawaitable(payload):
                    payload = await payload
            except Exception as exc:  # logging must never kill serving
                print(f"# stats-error {exc}", file=sys.stderr, flush=True)
                continue
            print(
                "# stats " + json.dumps(payload, separators=(",", ":")),
                file=sys.stderr, flush=True,
            )

    return asyncio.get_running_loop().create_task(_log())


def _serve_router(args, worker) -> int:
    """``serve --shards N``: run the sharded tier until SIGTERM; every
    worker runs the ``worker`` server config."""
    from repro.serve.router import RouterConfig, ShardRouter
    from repro.serve.shardmgr import ShardError

    config = RouterConfig(
        host=args.host,
        port=args.port,
        shards=args.shards,
        data_dir=args.data_dir,
        replicas=args.ring_replicas,
        standbys=args.standbys,
        health_interval=args.health_interval,
        health_backoff_max=args.health_backoff_max,
        worker=worker,
    )

    def announce(router) -> None:
        ports = {
            name: shard.port
            for name, shard in router.manager.shards.items()
        }
        print(
            f"# {len(ports)} worker shard(s): " + ", ".join(
                f"{name}@{port}" for name, port in sorted(ports.items())
            ),
            file=sys.stderr, flush=True,
        )

    def final(router) -> dict:
        stats = router.describe()
        stats["router_counters"] = router.counters.as_dict()
        return stats

    try:
        return _run_until_drained(
            args, lambda: ShardRouter(config), announce, final
        )
    except ShardError as exc:
        return _fail(f"sharded tier failed to start: {exc}", code=1)


def _serve_standby(args, config) -> int:
    """``serve --standby-of PORT``: run one warm standby process.

    Spawned by the shard manager behind each primary; replicates the
    primary's WAL into live session state and answers only admin ops
    (``standby-status``/``promote``) until promoted, after which it is
    a full primary on the port it has held all along.  It prints the
    same parseable line as a primary: the manager learns the standby's
    port the same way it learns a worker's.
    """
    from repro.serve.standby import StandbyServer

    return _run_until_drained(args, lambda: StandbyServer(
        config, primary_port=args.standby_of, primary_host=args.host
    ))


def _check_durability_flags(args) -> str | None:
    """Shared flag validation for ``serve`` and ``crashtest``."""
    if args.fsync_interval < 0:
        return f"--fsync-interval must be >= 0, got {args.fsync_interval}"
    if args.checkpoint_every < 1:
        return f"--checkpoint-every must be >= 1, got {args.checkpoint_every}"
    segment_bytes = getattr(args, "wal_segment_bytes", None)
    if segment_bytes is not None and segment_bytes < 4096:
        return f"--wal-segment-bytes must be >= 4096, got {segment_bytes}"
    if args.data_dir is not None:
        path = Path(args.data_dir)
        if path.exists() and not path.is_dir():
            return f"--data-dir exists and is not a directory: {path}"
    return None


def _crashtest_command(args) -> int:
    """The ``crashtest`` subcommand: the durability acceptance gate."""
    from repro.serve.crashtest import CrashTestError, run_crashtest
    from repro.serve.session import SessionError, spec_from_name

    if args.length < 100:
        return _fail(f"--length must be >= 100, got {args.length}")
    if args.seed < 0:
        return _fail(f"--seed must be >= 0, got {args.seed}")
    if args.kills < 1:
        return _fail(f"--kills must be >= 1, got {args.kills}")
    if args.entries < 1:
        return _fail(f"--entries must be >= 1, got {args.entries}")
    if args.events_per_request < 1:
        return _fail(
            f"--events-per-request must be >= 1, "
            f"got {args.events_per_request}"
        )
    if args.timeout <= 0:
        return _fail(f"--timeout must be > 0, got {args.timeout}")
    if args.shards < 1:
        return _fail(f"--shards must be >= 1, got {args.shards}")
    if args.sessions < 1:
        return _fail(f"--sessions must be >= 1, got {args.sessions}")
    if args.migrations < 0:
        return _fail(f"--migrations must be >= 0, got {args.migrations}")
    if args.shards == 1 and args.kill_router:
        return _fail(
            "--kill-router needs a sharded tier: "
            "pass --shards N with N > 1"
        )
    if args.standbys not in (0, 1):
        return _fail(f"--standbys must be 0 or 1, got {args.standbys}")
    if args.standbys and args.shards == 1:
        return _fail(
            "--standbys needs a sharded tier: pass --shards N with N > 1"
        )
    problem = _check_workload(args.workload) or _check_durability_flags(args)
    if problem:
        return _fail(problem)
    try:
        spec_from_name(args.predictor.lower(), args.entries)
    except SessionError as exc:
        return _fail(str(exc))

    try:
        report = run_crashtest(
            workload=args.workload,
            length=args.length,
            seed=args.seed,
            predictor=args.predictor.lower(),
            entries=args.entries,
            shards=args.shards,
            sessions=args.sessions,
            kills=args.kills,
            kill_router=args.kill_router,
            migrations=args.migrations,
            standbys=args.standbys,
            events_per_request=args.events_per_request,
            data_dir=args.data_dir,
            fsync_interval=args.fsync_interval,
            checkpoint_every=args.checkpoint_every,
            timeout=args.timeout,
            progress=lambda msg: print(f"crashtest: {msg}", file=sys.stderr),
        )
    except CrashTestError as exc:
        return _fail(str(exc), code=1)
    except KeyboardInterrupt:
        return 130
    if args.output:
        atomic_write_json(args.output, report)
        print(f"# wrote {args.output}", file=sys.stderr)
    # The full per-chunk payloads are for the report file; the printed
    # summary keeps the verdict and the evidence.
    keys = [
        "workload", "predictor", "shards", "sessions", "placements",
        "chunks", "events", "kills_done", "router_kills", "worker_restarts",
        "migrations", "reconnects", "retries", "acked_chunks", "lost_acks",
        "mismatched_chunks", "final_state_match", "final_state",
        "durability", "equivalent",
    ]
    if args.standbys:
        keys[4:4] = ["standbys", "promotions"]
        keys.append("rto")
    summary = {key: report[key] for key in keys}
    print(json.dumps(summary, indent=2))
    if not report["equivalent"]:
        print(
            "# crashtest FAILED: acknowledged state diverged from the "
            "uninterrupted reference run",
            file=sys.stderr,
        )
        return EXIT_PARTIAL_FAILURE
    return 0


def _loadgen_command(args) -> int:
    """The ``loadgen`` subcommand: a burst against a running server."""
    import asyncio

    from repro.serve import loadgen
    from repro.serve.session import SessionError, spec_from_name
    from repro.workloads.generator import ensure_stored, generate_trace

    if not args.connect:
        return _fail("--connect HOST:PORT is required (the server to drive)")
    for flag, value in (
        ("--length", args.length), ("--sessions", args.sessions),
        ("--events-per-request", args.events_per_request),
        ("--pipeline-depth", args.pipeline_depth),
        ("--entries", args.entries),
    ):
        if value < 1:
            return _fail(f"{flag} must be >= 1, got {value}")
    if args.length < 100:
        return _fail(f"--length must be >= 100, got {args.length}")
    if args.seed < 0:
        return _fail(f"--seed must be >= 0, got {args.seed}")
    problem = _check_workload(args.workload)
    if problem:
        return _fail(problem)
    try:
        spec = spec_from_name(args.predictor.lower(), args.entries)
    except SessionError as exc:
        return _fail(str(exc))
    host, _, port_text = args.connect.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        port = -1
    if not host or not 0 < port <= 65535:
        return _fail(f"--connect expects HOST:PORT, got {args.connect!r}")

    ensure_stored(args.workload, args.length, args.seed)
    events = loadgen.trace_to_events(
        generate_trace(args.workload, args.length, args.seed)
    )
    try:
        lane = asyncio.run(loadgen.run_loadgen(
            host, port, events, spec,
            workload={
                "name": args.workload, "length": args.length,
                "seed": args.seed,
            },
            sessions=args.sessions,
            events_per_request=args.events_per_request,
            pipeline_depth=args.pipeline_depth,
            durable=args.durable,
        ))
    except (ConnectionError, OSError) as exc:
        return _fail(f"cannot reach server at {args.connect}: {exc}")
    print(json.dumps(lane, indent=2))
    failed = lane["requests_failed"] + lane["stream_errors"]
    if failed:
        print(
            f"# {failed} request(s) failed (see 'error_codes')",
            file=sys.stderr,
        )
        return EXIT_PARTIAL_FAILURE
    return 0


_CACHE_KINDS = ("trace", "results", "all")


def _cache_command(args) -> int:
    """The ``cache`` subcommand: inspect or clear the on-disk caches.

    ``--which trace`` (the default) keeps the historical single-store
    output shape; ``--which results`` targets the results database;
    ``--which all`` reports both under named keys (either may be null
    when unconfigured, but at least one must be configured).
    """
    from repro.harness import resultsdb
    from repro.workloads import store as trace_store

    if args.which not in _CACHE_KINDS:
        return _fail(
            f"unknown cache {args.which!r}; valid caches: "
            + ", ".join(_CACHE_KINDS)
        )
    trace_root = args.cache_dir or os.environ.get(trace_store.ENV_VAR)
    results_root = args.results_dir or os.environ.get(resultsdb.ENV_VAR)
    if args.which == "trace" and not trace_root:
        return _fail(
            "no trace store configured: set "
            f"{trace_store.ENV_VAR} or pass --dir PATH"
        )
    if args.which == "results" and not results_root:
        return _fail(
            "no results database configured: set "
            f"{resultsdb.ENV_VAR} or pass --results-dir PATH"
        )
    if args.which == "all" and not trace_root and not results_root:
        return _fail(
            f"no caches configured: set {trace_store.ENV_VAR} and/or "
            f"{resultsdb.ENV_VAR} (or pass --dir/--results-dir)"
        )
    for label, root in (("trace store", trace_root),
                        ("results database", results_root)):
        error = _not_a_directory(label, root)
        if error:
            return _fail(error)

    def trace_stats() -> dict:
        stats = trace_store.TraceStore(Path(trace_root)).scan()
        # A standalone handle has no hit/miss history to report.
        del stats["process_stats"]
        return stats

    def results_stats() -> dict:
        return resultsdb.ResultsDb(Path(results_root)).scan()

    if args.clear:
        lines = []
        if args.which in ("trace", "all") and trace_root:
            removed = trace_store.TraceStore(Path(trace_root)).clear()
            lines.append(f"removed {removed} file(s) from {trace_root}")
        if args.which in ("results", "all") and results_root:
            removed = resultsdb.ResultsDb(Path(results_root)).clear()
            lines.append(f"removed {removed} file(s) from {results_root}")
        print("\n".join(lines))
        return 0

    if args.which == "trace":
        payload: dict = trace_stats()
    elif args.which == "results":
        payload = results_stats()
    else:
        payload = {
            "trace_store": trace_stats() if trace_root else None,
            "results_db": results_stats() if results_root else None,
        }
    print(json.dumps(payload, indent=2))
    return 0


def _db_command(args) -> int:
    """The ``db`` subcommand: results-database maintenance.

    ``gc`` evicts entries whose recorded code/semantics versions no
    longer match the running package -- their fingerprints can never be
    queried again, so they only waste disk.
    """
    from repro.harness import resultsdb

    results_root = args.results_dir or os.environ.get(resultsdb.ENV_VAR)
    if not results_root:
        return _fail(
            "no results database configured: set "
            f"{resultsdb.ENV_VAR} or pass --results-dir PATH"
        )
    error = _not_a_directory("results database", results_root)
    if error:
        return _fail(error)

    report = resultsdb.ResultsDb(Path(results_root)).gc(dry_run=args.dry_run)
    print(json.dumps(report, indent=2))
    if args.dry_run:
        print(
            f"# dry run: {report['stale']} stale entr(y/ies) would be "
            "evicted",
            file=sys.stderr,
        )
    else:
        print(
            f"# evicted {report['removed']} stale entr(y/ies), kept "
            f"{report['kept']}",
            file=sys.stderr,
        )
    return 0


def _simulate_command(args) -> int:
    """Run one trace file through the timing model and print stats."""
    from dataclasses import asdict

    from repro.composite.build import build_predictor
    from repro.isa.trace import Trace
    from repro.pipeline.core import simulate
    from repro.serve.session import resolve_spec, spec_from_name

    try:
        trace = Trace.load(args.trace)
    except FileNotFoundError:
        return _fail(f"trace file not found: {args.trace}")
    except IsADirectoryError:
        return _fail(f"trace path is a directory, not a file: {args.trace}")
    except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
        return _fail(f"trace file {args.trace} is corrupt or not a trace: {exc}")
    except OSError as exc:
        return _fail(f"cannot read trace file {args.trace}: {exc}")

    if trace.initial_memory is None:
        print(
            "warning: trace has no initial-memory section; predicted-"
            "address probes of never-stored locations will mispredict",
            file=sys.stderr,
        )

    try:
        predictor = build_predictor(
            resolve_spec(spec_from_name(args.predictor.lower(), args.entries))
        )
    except ValueError as exc:
        return _fail(str(exc))

    result = simulate(trace, predictor)
    payload = asdict(result)
    payload["ipc"] = result.ipc
    payload["coverage"] = result.coverage
    payload["accuracy"] = result.accuracy
    payload["branch_mpki"] = result.branch_mpki
    print(json.dumps(payload, indent=2, default=str))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
