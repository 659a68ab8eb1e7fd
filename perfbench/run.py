"""The repository benchmark: one workload, one run, one result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fig6_mini --seed 0 --seconds 25 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``fig6_mini`` -- Figure 6 over the smoke workloads with 5K-instruction
  traces, in-process;
* ``explore_functional`` -- a cold functional table6 search at smoke
  scale plus its
  warm rerun against the same results database;
* ``serve_durable`` -- a closed loop of durable applies through
  ``repro-lvp serve --shards 2 --data-dir D``.

``--seed`` picks the input set (seeds map onto a ring of 16 pinned
input sets; 0 is the default seed and 11 the held-out seed for
re-checking a claim).  ``--trace 0`` measures the end-to-end metrics
with tracing off; ``--trace 1`` makes a traced run that reports the
per-layer metrics, reconciles their self times with the traced total,
names the largest layer and writes its spans under
``.perfbench/spans/``.

End-to-end metrics (every workload reports all of them):

* ``setup_s`` -- imports plus the median of three set-ups (trace-store
  warm-up; for serve also tier spawn, connect and session open);
* ``campaign_s`` -- median time of one unit of fixed work: a Figure 6
  campaign, a cold explore search, or one serve pass replaying both
  traces (apply phase);
* ``sim_kips`` -- trace instructions processed (serve: acknowledged)
  per second, thousands;
* ``op_p50_ms`` / ``op_tail_ms`` -- median and tail latency of one
  operation (a computed cell, or an apply request); the tail is the
  highest of p99/p95/p90/p80/p75 with ten samples beyond it, named in
  the output;
* ``peak_rss_mb`` -- peak RSS of the processes doing the work (serve:
  router plus workers).

Times are reported at reference host speed: every unit of work is
scaled by a host-speed factor from a frozen probe run just before,
during and after it (``benchlib.Pace``), because a shared host's vCPU
speed drifts by tens of percent within seconds.  The raw wall medians
and the factors seen are printed beside the metrics.  Failures are not
a metric (they are zero on a correct program): ``failed`` of
``attempted`` in the result line is the error rate.

Human-readable lines go to stderr and stdout; the last stdout line is
the JSON result ``{"correct", "attempted", "failed", "metrics"}``.
Every run also appends a fingerprinted record to
``.perfbench/results.jsonl`` for ``perfbench/compare.py``.  The exit
code is 0 only when the run completed (a failed correctness check is
reported in the result, not by the exit code); 2 means the program is
missing from the checkout.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse
import datetime
import json
import sys
import traceback

from benchlib import (
    DEFAULT_SEED,
    HELD_OUT_SEED,
    RESULTS,
    ROOT,
    SPANS,
    SRC,
    Workspace,
    environment,
    fingerprint,
    note,
)

WORKLOADS = ("fig6_mini", "explore_functional", "serve_durable")


def _load_entry(workload: str):
    """Import the workload's module (and the program) lazily."""
    if workload == "serve_durable":
        from serve_workload import run_serve
        return run_serve
    from sim_workloads import run_explore_workload, run_fig6
    return run_fig6 if workload == "fig6_mini" else run_explore_workload


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _metric_block(values: dict, declared: list, fill_absent: bool) -> dict:
    """Shape ``values`` into the declared metric list, in order."""
    names = [m["name"] for m in declared]
    unknown = sorted(set(values) - set(names))
    if unknown:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {unknown}")
    block = {}
    for metric in declared:
        name = metric["name"]
        if name not in values:
            if not fill_absent:
                raise KeyError(f"end-to-end metric {name} was not measured")
            value = 0  # this workload does not exercise the layer
        else:
            value = values[name]
        block[name] = {"value": value, "unit": metric["unit"]}
    return block


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program is missing: no {SRC.name}/repro in "
              "this checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    declared = _declared()

    entry = _load_entry(args.workload)
    import_s = time.perf_counter() - _STARTED
    traced = bool(args.trace)
    with Workspace() as ws:
        result = entry(ws, args.seed, args.seconds, traced, import_s)

    env = environment()
    key = fingerprint(args.workload, result["config"], env)
    if traced:
        tracer = result["tracer"]
        rec = tracer.reconcile(result["roots"])
        values = dict(result["per_layer"])
        values.update({
            "trace.total_s": rec["total_s"],
            "trace.unattributed_s": rec["unattributed_s"],
            "trace.reconcile_error_s": rec["error_s"],
            "trace.top_layer_share": rec["top_layer_share"],
        })
        metrics = _metric_block(values, declared["per_layer"], True)
        stamp = datetime.datetime.now(datetime.timezone.utc)
        spans = SPANS / (f"{args.workload}-s{args.seed}-"
                         f"{stamp.strftime('%Y%m%dT%H%M%S')}.jsonl")
        tracer.write(spans, {
            "workload": args.workload, "seed": args.seed,
            "fingerprint": key["id"], "reconcile": rec,
        })
        print(f"# traced total {rec['total_s']:.4f} s = layers "
              f"{rec['attributed_s']:.4f} s + unattributed "
              f"{rec['unattributed_s']:.4f} s "
              f"(error {rec['error_s']:.2e} s)")
        print(f"# top layer: {rec['top_layer']} "
              f"({rec['top_layer_share'] * 100:.1f}% of traced total)")
        for name, seconds in sorted(rec["layer_self_s"].items(),
                                    key=lambda kv: -kv[1]):
            print(f"#   {name:40s} {seconds:10.4f} s self")
        print(f"# spans: {spans.relative_to(ROOT)}")
    else:
        metrics = _metric_block(result["metrics"], declared["end_to_end"],
                                False)
    for line in result.get("notes", []):
        print(f"# {line}")
    for name, metric in metrics.items():
        print(f"# {name:40s} {metric['value']:>14.6g} {metric['unit']}")
    attempted = int(result["attempted"])
    failed = int(result["failed"])
    print(f"# error_rate {failed / attempted if attempted else 1.0:.6g} "
          f"({failed} failed of {attempted} attempted)")
    print(f"# fingerprint {key['id']} (comparable {key['comparable']})")

    RESULTS.parent.mkdir(parents=True, exist_ok=True)
    with open(RESULTS, "a") as out:
        out.write(json.dumps({
            "fingerprint": key, "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "seeds": {"default": DEFAULT_SEED, "held_out": HELD_OUT_SEED},
            "correct": failed == 0, "attempted": attempted,
            "failed": failed,
            "metrics": {k: m["value"] for k, m in metrics.items()},
            "bookkeeping": result.get("bookkeeping"),
        }) + "\n")
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except KeyboardInterrupt:
        sys.exit(130)
    except Exception:
        traceback.print_exc()
        note("the run failed; no result was produced")
        sys.exit(1)
