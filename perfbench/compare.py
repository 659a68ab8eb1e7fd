"""Spread reporting and fingerprint-checked comparison of benchmark runs.

Usage (from the root of a checkout)::

    python3 perfbench/compare.py summary [RESULTS.jsonl]
    python3 perfbench/compare.py diff BASE.jsonl HEAD.jsonl [--trace 1]

``run.py`` appends one fingerprinted record per run to
``.perfbench/results.jsonl``; copy that file aside after measuring each
commit.  ``summary`` prints, per workload and metric, the median,
quartiles, minimum and sample count of the recorded runs.

``diff`` sets the head commit's runs against the base commit's.  A
delta of medians within the base's own quartile spread is labelled
``noise``, never a win or a regression; outside it, the direction
decides ``better`` or ``worse``, and a worsening past the metric's
bound in ``BENCHMARK.json`` is flagged ``REGRESSION``.  It refuses
(exit 2) to compare runs whose fingerprints differ in anything but
the commit -- workload config, machine, Python, numpy -- and to pool
runs of different commits on one side.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

from benchlib import RESULTS, ROOT, spread


class Refused(Exception):
    """The records cannot be compared as asked."""


def load(path: Path, trace: int) -> dict:
    """Records of one results file, grouped by workload."""
    groups: dict[str, list[dict]] = defaultdict(list)
    for line in path.read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            if record.get("trace") == trace:
                groups[record["workload"]].append(record)
    return groups


def side(records: list[dict], label: str) -> dict:
    """Check that one side's runs share one fingerprint; spread them."""
    ids = {r["fingerprint"]["id"] for r in records}
    if len(ids) != 1:
        raise Refused(
            f"{label}: {records[0]['workload']} has runs of {len(ids)} "
            "fingerprints (different commits or configs); split the file"
        )
    metrics: dict[str, list[float]] = defaultdict(list)
    for record in records:
        for name, value in record["metrics"].items():
            metrics[name].append(value)
    return {
        "fingerprint": records[0]["fingerprint"],
        "failed": sum(r["failed"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "metrics": {name: spread(values) for name, values in metrics.items()},
    }


def verdict(base: dict, head: dict, better: str, bound: float | None) -> str:
    delta = head["median"] - base["median"]
    if abs(delta) <= base["q3"] - base["q1"]:
        return "noise"
    improved = delta < 0 if better == "lower" else delta > 0
    if improved:
        return "better"
    if bound is not None and base["median"] and (
        abs(delta) / abs(base["median"]) > bound
    ):
        return "REGRESSION"
    return "worse"


def _declared(trace: int) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in bench["per_layer" if trace else "end_to_end"]}


def summary(path: Path, trace: int) -> None:
    declared = _declared(trace)
    for workload, records in sorted(load(path, trace).items()):
        by_id: dict[str, list[dict]] = defaultdict(list)
        for record in records:
            by_id[record["fingerprint"]["id"]].append(record)
        for fid, group in by_id.items():
            s = side(group, str(path))
            print(f"{workload}  fingerprint {fid}  commit "
                  f"{s['fingerprint']['environment']['commit']}  "
                  f"failed {s['failed']}/{s['attempted']}")
            for name, st in s["metrics"].items():
                unit = declared.get(name, {}).get("unit", "")
                iqr = (st["q3"] - st["q1"]) / st["median"] if st["median"] else 0.0
                print(f"  {name:36s} median {st['median']:<12.6g} "
                      f"q1 {st['q1']:<12.6g} q3 {st['q3']:<12.6g} "
                      f"min {st['min']:<12.6g} n {st['n']:<3d} "
                      f"iqr/median {iqr:6.1%} {unit}")


def diff(base_path: Path, head_path: Path, trace: int) -> None:
    declared = _declared(trace)
    base_groups = load(base_path, trace)
    head_groups = load(head_path, trace)
    for workload in sorted(set(base_groups) & set(head_groups)):
        base = side(base_groups[workload], "base")
        head = side(head_groups[workload], "head")
        if base["fingerprint"]["comparable"] != head["fingerprint"]["comparable"]:
            raise Refused(
                f"{workload}: base and head differ in more than the commit "
                f"(base {json.dumps(base['fingerprint']['config'])} on "
                f"{json.dumps(base['fingerprint']['environment'])}; head "
                f"{json.dumps(head['fingerprint']['config'])} on "
                f"{json.dumps(head['fingerprint']['environment'])})"
            )
        print(f"{workload}  base {base['fingerprint']['environment']['commit']}"
              f" (n={len(base_groups[workload])}, failed {base['failed']})"
              f"  head {head['fingerprint']['environment']['commit']}"
              f" (n={len(head_groups[workload])}, failed {head['failed']})")
        for name, b in base["metrics"].items():
            h = head["metrics"].get(name)
            if h is None:
                continue
            meta = declared.get(name, {})
            change = (h["median"] - b["median"]) / b["median"] if b["median"] else 0.0
            print(f"  {name:36s} {b['median']:<12.6g} -> {h['median']:<12.6g}"
                  f" {change:+7.1%}  [base q1..q3 {b['q1']:.6g}..{b['q3']:.6g}]"
                  f"  {verdict(b, h, meta.get('better', 'lower'), meta.get('bound'))}")
    only = sorted(set(base_groups) ^ set(head_groups))
    if only:
        print(f"# measured on one side only: {', '.join(only)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    s = sub.add_parser("summary", help="spread of each metric per workload")
    s.add_argument("results", nargs="?", type=Path, default=RESULTS)
    s.add_argument("--trace", type=int, choices=(0, 1), default=0)
    d = sub.add_parser("diff", help="head against base, noise-aware")
    d.add_argument("base", type=Path)
    d.add_argument("head", type=Path)
    d.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.command == "summary":
            summary(args.results, args.trace)
        else:
            diff(args.base, args.head, args.trace)
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
