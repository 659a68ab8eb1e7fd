"""Regenerate ``perfbench/pinned.json``, the correctness digests.

Usage (from the root of a checkout)::

    python3 perfbench/pin.py [--workload fig6_mini|explore_functional] [--seeds 0 1 ...]

For every input set of the seed ring it records the digest of each
Figure 6 cell's result dict and of the explore search's ranked report.
Pin from a commit whose results are trusted: a change that only makes
the program faster must reproduce these digests exactly, so re-pinning
is for changes that mean to alter results, and says so.
"""

from __future__ import annotations

import argparse
import json
import sys

from benchlib import PINNED, SEED_RING, SRC, Workspace, digest, load_pinned, note

sys.path.insert(0, str(SRC))

from sim_workloads import (  # noqa: E402
    explore_core,
    explore_pass,
    explore_scale,
    fig6_campaign,
    fig6_cell_digests,
    fig6_scale,
    warm_trace_store,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=("fig6_mini", "explore_functional"))
    parser.add_argument("--seeds", type=int, nargs="+",
                        default=list(range(SEED_RING)))
    args = parser.parse_args(argv)
    workloads = args.workload or ["fig6_mini", "explore_functional"]
    pinned = load_pinned()
    for seed in args.seeds:
        if not 0 <= seed < SEED_RING:
            parser.error(f"seeds are input sets 0..{SEED_RING - 1}")
        with Workspace() as ws:
            if "fig6_mini" in workloads:
                scale = fig6_scale(seed)
                warm_trace_store(ws, scale)
                run = fig6_campaign(ws, scale)
                cells = fig6_cell_digests(run)
                if len(cells) != len(run["outcomes"]):
                    raise RuntimeError(f"fig6 seed {seed}: cells failed")
                pinned.setdefault("fig6_mini", {})[str(seed)] = cells
                note(f"fig6_mini seed {seed}: {len(cells)} cells")
            if "explore_functional" in workloads:
                scale = explore_scale(seed)
                warm_trace_store(ws, scale)
                report = explore_pass(ws, scale)["cold"]["payload"]
                if "failures" in report:
                    raise RuntimeError(f"explore seed {seed}: cells failed")
                pinned.setdefault("explore_functional", {})[str(seed)] = (
                    digest(explore_core(report))
                )
                note(f"explore_functional seed {seed}: pinned")
        PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
