"""Shared pieces of the perfbench runner: paths, seeds, statistics,
digests, fingerprints and the scratch workspace.

Everything the benchmark reads or writes lives inside the checkout it
runs from: the program under ``src/`` and a git-ignored ``.perfbench/``
directory for scratch state, result records and span dumps.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

#: The checkout the benchmark runs in (the parent of ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
RESULTS = WORK / "results.jsonl"
SPANS = WORK / "spans"
BENCH = Path(__file__).resolve().parent
PINNED = BENCH / "pinned.json"

#: Workload seeds map onto a ring of this many input sets, every one of
#: which has its correctness digests pinned in ``pinned.json``.
SEED_RING = 16
#: The seed a claim is measured on, and the one kept back to re-check it.
DEFAULT_SEED = 0
HELD_OUT_SEED = 11

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def input_seed(seed: int) -> int:
    """The input set (trace seed) a benchmark ``--seed`` selects."""
    return seed % SEED_RING


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

def percentile(sorted_values: list, fraction: float):
    """Nearest-rank percentile of an ascending list (exact rank)."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    rank = math.ceil(len(sorted_values) * Fraction(str(fraction)))
    return sorted_values[min(len(sorted_values), max(1, rank)) - 1]


#: Tail percentiles tried, highest first, for the reported tail latency.
TAIL_CANDIDATES = (0.99, 0.95, 0.9, 0.8, 0.75, 0.5)


def tail(sorted_values: list, beyond: int = 10) -> tuple[float, float]:
    """The highest candidate percentile with ``beyond`` samples past it.

    Returns ``(fraction, value)``; falls back to the median when the
    sample is too small for any candidate.
    """
    n = len(sorted_values)
    for fraction in TAIL_CANDIDATES:
        if n - math.ceil(n * Fraction(str(fraction))) >= beyond:
            return fraction, percentile(sorted_values, fraction)
    return 0.5, percentile(sorted_values, 0.5)


def spread(values: list[float]) -> dict:
    """Median, quartiles, extremes and count of a sample."""
    ordered = sorted(values)
    if len(ordered) >= 2:
        q1, med, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = med = q3 = ordered[0]
    return {
        "n": len(ordered), "median": med, "q1": q1, "q3": q3,
        "min": ordered[0], "max": ordered[-1],
    }


class Budget:
    """Repeats a unit of work for about ``seconds`` of wall time.

    :meth:`more` is true for the first unit, then again only while one
    more unit (as long as the last one) would end nearer the mark than
    stopping now, so a run measures close to ``seconds`` whatever the
    unit's length.
    """

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.started = time.perf_counter()
        self._last: float | None = None

    def more(self) -> bool:
        now = time.perf_counter()
        if self._last is None:
            self._last = now
            return True
        unit, self._last = now - self._last, now
        return (now - self.started) + unit / 2 < self.seconds


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------

#: Seconds :func:`probe` takes on the reference host (a 2 GHz Xeon vCPU
#: running CPython 3.11, uncontended).
PROBE_REF_S = 0.01
#: Probes averaged at each boundary between units of work.
BOUNDARY_PROBES = 5
#: Least seconds of work between two probes taken inside a unit.
PROBE_EVERY_S = 0.1


def probe() -> float:
    """Time a fixed piece of pure-Python work (about 10 ms); returns it.

    The work is frozen here, independent of the program, so its time
    moves only with the host: on a shared host the speed of a vCPU
    drifts by tens of percent within seconds, and probes taken between
    and inside units of measured work track that drift.
    """
    start = time.perf_counter()
    tags = [[-1] * 4 for _ in range(256)]
    counters = [1] * 4096
    x = 12345
    for _ in range(15_000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        ways = tags[(x >> 6) & 255]
        tag = x >> 14
        if tag not in ways:
            ways.pop(0)
            ways.append(tag)
        slot = x & 4095
        c = counters[slot]
        counters[slot] = min(3, c + 1) if (x >> 3) & 1 else max(0, c - 1)
    return time.perf_counter() - start


class Pace:
    """Host-speed factors for consecutive units of measured work.

    Probes at every boundary between units (and, through
    :meth:`maybe_sample`, inside a unit as it runs).  A unit's factor is
    ``PROBE_REF_S`` over the mean probe time from the boundary before
    it to the boundary after it; multiplying the unit's wall time by
    its factor gives its time at reference host speed, which is what
    the timing metrics report.
    """

    def __init__(self) -> None:
        self.factors: list[float] = []
        self._unit = [self._boundary()]
        self._last = time.perf_counter()

    @staticmethod
    def _boundary() -> float:
        return sum(probe() for _ in range(BOUNDARY_PROBES)) / BOUNDARY_PROBES

    def maybe_sample(self) -> float:
        """Probe inside a unit if ``PROBE_EVERY_S`` passed since the last
        probe; returns the seconds spent probing (to leave out of the
        unit's time)."""
        now = time.perf_counter()
        if now - self._last < PROBE_EVERY_S:
            return 0.0
        self._unit.append(probe())
        self._last = time.perf_counter()
        return self._last - now

    def local_factor(self) -> float:
        """The factor from the two latest probes: the host speed around
        the piece of work that just ended inside the current unit."""
        recent = self._unit[-2:]
        return PROBE_REF_S / (sum(recent) / len(recent))

    def factor(self) -> float:
        """Close the unit that just ended and return its factor."""
        end = self._boundary()
        self._unit.append(end)
        value = PROBE_REF_S / (sum(self._unit) / len(self._unit))
        self._unit = [end]
        self._last = time.perf_counter()
        self.factors.append(value)
        return value


# ----------------------------------------------------------------------
# Digests and fingerprints
# ----------------------------------------------------------------------

def digest(value) -> str:
    """A short stable digest of a JSON-serialisable value."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def tree_digest(root: Path) -> str:
    """Content digest of the Python files under ``root``.

    The checkout the benchmark runs in need not be a git repository,
    so code is identified by what it contains.
    """
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment() -> dict:
    """The machine and toolchain a result was measured on."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy_version,
        "machine": platform.machine(),
        # The benchmark's own code: runs of different benchmark versions
        # measure different things and are never compared.
        "benchmark": tree_digest(BENCH),
        "commit": tree_digest(SRC),
    }


def fingerprint(workload: str, config: dict, env: dict) -> dict:
    """Key a result by (workload, config, environment).

    ``id`` covers everything; ``comparable`` leaves out the commit, so
    two commits measured with the same workload, config and machine
    share it and may be compared.
    """
    comparable = {
        "workload": workload, "config": config,
        "environment": {k: v for k, v in env.items() if k != "commit"},
    }
    return {
        "id": digest({**comparable, "commit": env.get("commit")}),
        "comparable": digest(comparable),
        "workload": workload,
        "config": config,
        "environment": env,
    }


# ----------------------------------------------------------------------
# Process memory
# ----------------------------------------------------------------------

def peak_rss_mb_self() -> float:
    """Peak resident set of this process, in MB."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_pids(pids) -> float:
    """Summed peak resident set (``VmHWM``) of live processes, in MB."""
    total_kb = 0
    for pid in pids:
        try:
            text = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in text.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
                break
    return total_kb / 1024.0


# ----------------------------------------------------------------------
# Workspace
# ----------------------------------------------------------------------

class Workspace:
    """A scratch directory under ``.perfbench/``, removed on exit.

    Also points ``TMPDIR`` (for this process and its children) into it,
    so nothing the program creates lands outside the checkout.
    """

    def __init__(self) -> None:
        self.root = WORK / f"tmp-{os.getpid()}"
        self._count = 0

    def __enter__(self) -> "Workspace":
        if self.root.exists():
            shutil.rmtree(self.root)
        self.root.mkdir(parents=True)
        os.environ["TMPDIR"] = str(self.root)
        tempfile.tempdir = str(self.root)
        return self

    def __exit__(self, *exc_info) -> None:
        tempfile.tempdir = None
        shutil.rmtree(self.root, ignore_errors=True)

    def fresh(self, prefix: str) -> Path:
        """A new empty directory inside the workspace."""
        self._count += 1
        path = self.root / f"{prefix}-{self._count}"
        path.mkdir()
        return path


def load_pinned() -> dict:
    return json.loads(PINNED.read_text()) if PINNED.exists() else {}


def note(message: str) -> None:
    """Progress for humans, on stderr (stdout's last line is the result)."""
    print(f"# {message}", file=sys.stderr, flush=True)
