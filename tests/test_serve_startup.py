"""Sharded tier start-up: concurrent launch, a real deadline, no leaks.

The shard manager launches every primary before it reads any port and
then reads all their ``serving on`` lines under one deadline
(:func:`repro.serve.shardmgr.wait_for_serving`).  These tests replace
the worker command with tiny stand-in scripts -- one that reports a
port, one that sleeps without printing, one that exits at once -- so
each start-up path runs in well under a second.
"""

import os
import subprocess
import sys
import time

import pytest

from repro.serve import shardmgr
from repro.serve.shardmgr import ShardError, ShardManager, wait_for_serving

REPORTS = "print('serving on 127.0.0.1:{port}', flush=True)\n" \
          "import time; time.sleep(60)"
SILENT = "import time; time.sleep(60)"
EXITS = "raise SystemExit(3)"


def _standin(script: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-c", script],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )


def _reaped(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


@pytest.fixture
def standins(monkeypatch):
    """Make ``ShardManager._launch`` start ``scripts[shard name]``;
    records every launch and port read in ``events``."""
    scripts: dict[str, str] = {}
    events: list = []
    launched: list[subprocess.Popen] = []
    read_ports = ShardManager._read_ports

    def launch(self, shard, *extra):
        events.append(("launch", shard.name, extra))
        shard.proc = _standin(scripts[shard.name])
        launched.append(shard.proc)

    def read(self, shards):
        shards = list(shards)
        events.append(("read", [shard.name for shard in shards]))
        read_ports(self, shards)

    monkeypatch.setattr(ShardManager, "_launch", launch)
    monkeypatch.setattr(ShardManager, "_read_ports", read)
    yield scripts, events, launched
    for proc in launched:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


class TestWaitForServing:
    def test_reads_every_port_and_split_lines(self):
        split = (
            "import sys, time\n"
            "sys.stdout.write('# noise\\nserv'); sys.stdout.flush()\n"
            "time.sleep(0.2)\n"
            "print('ing on 127.0.0.1:7002', flush=True); time.sleep(60)"
        )
        procs = {"a": _standin(REPORTS.format(port=7001)),
                 "b": _standin(split)}
        try:
            assert wait_for_serving(procs, 30.0) == {"a": 7001, "b": 7002}
        finally:
            for proc in procs.values():
                proc.kill()
                proc.wait()

    def test_silent_process_hits_the_deadline(self):
        proc = _standin(SILENT)
        try:
            began = time.monotonic()
            with pytest.raises(ShardError, match="never reported a port"):
                wait_for_serving({"hung": proc}, 0.5)
            assert time.monotonic() - began < 5.0
        finally:
            proc.kill()
            proc.wait()

    def test_exit_before_the_line_is_an_error(self):
        proc = _standin(EXITS)
        try:
            with pytest.raises(ShardError, match="exited during startup"):
                wait_for_serving({"gone": proc}, 30.0)
        finally:
            proc.wait()


class TestStartAll:
    def test_primaries_then_standbys_launch_together(
        self, standins, tmp_path
    ):
        scripts, events, _ = standins
        manager = ShardManager(2, data_dir=tmp_path / "tier", standbys=1)
        for index, name in enumerate(
            ["shard-00", "shard-01", "shard-00-standby", "shard-01-standby"]
        ):
            scripts[name] = REPORTS.format(port=7100 + index)
        manager.start_all()
        assert [event[:2] for event in events] == [
            ("launch", "shard-00"),
            ("launch", "shard-01"),
            ("read", ["shard-00", "shard-01"]),
            ("launch", "shard-00-standby"),
            ("launch", "shard-01-standby"),
            ("read", ["shard-00-standby", "shard-01-standby"]),
        ]
        # Each standby streams from its own primary's port.
        assert events[3][2] == ("--standby-of", "7100")
        assert events[4][2] == ("--standby-of", "7101")
        state = shardmgr.read_state(tmp_path / "tier")
        assert state["workers"]["shard-01"]["port"] == 7101
        assert state["standbys"]["shard-00"]["port"] == 7102

    def test_hung_worker_times_out_and_nothing_leaks(
        self, standins, monkeypatch
    ):
        scripts, _, launched = standins
        monkeypatch.setattr(shardmgr, "WORKER_START_TIMEOUT", 0.5)
        scripts["shard-00"] = REPORTS.format(port=7200)
        scripts["shard-01"] = SILENT
        manager = ShardManager(2)
        began = time.monotonic()
        with pytest.raises(ShardError, match="shard-01 never reported"):
            manager.start_all()
        assert time.monotonic() - began < 5.0
        assert len(launched) == 2
        assert all(_reaped(proc.pid) for proc in launched)

    def test_failed_start_kills_every_launched_worker(self, standins):
        scripts, _, launched = standins
        scripts["shard-00"] = REPORTS.format(port=7300)
        scripts["shard-01"] = EXITS
        scripts["shard-02"] = SILENT
        manager = ShardManager(3)
        with pytest.raises(ShardError, match="shard-01 exited"):
            manager.start_all()
        assert len(launched) == 3
        assert all(_reaped(proc.pid) for proc in launched)
