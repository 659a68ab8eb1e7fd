"""Worker-shard lifecycle: spawn, fence, health-check, restart.

A :class:`ShardManager` owns N ``repro-lvp serve`` subprocesses (the
worker shards of the sharded tier), each bound to an ephemeral
loopback port with its own ``--data-dir`` under the tier's root.  The
manager's whole job is making shard death boring:

* **spawn** -- workers are started with ``--parent-pid`` so an orphan
  (its router SIGKILLed) hard-exits the moment it is reparented,
  instead of surviving as a split-brain writer on WAL files a
  replacement tier is about to recover;
* **fence** -- on startup the manager reads the previous incarnation's
  state file (``router.json``) and SIGKILLs any worker pid that is
  still alive and verifiably ours (its ``/proc`` cmdline names our
  data root) before touching the data dirs;
* **restart** -- a dead worker is relaunched on the *same* data dir;
  the fresh process replays its WAL + checkpoints before accepting
  connections, so every acknowledged request survives the kill -9.

The state file is rewritten (tmp+rename) after every spawn, so the
crashtest harness -- and any operator -- can always find the current
worker pids and ports.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.common.atomicfile import atomic_write_json, read_json_object

#: Seconds to wait for a (re)started worker to print its port.
WORKER_START_TIMEOUT = 30.0

#: The tier's state file, under the root data dir.
STATE_FILE = "router.json"


class ShardError(RuntimeError):
    """A worker shard could not be started or recovered."""


def shard_name(index: int) -> str:
    """Canonical worker-shard name (``shard-00``, ``shard-01``, ...)."""
    return f"shard-{index:02d}"


def poll_backoff(
    base: float, cap: float, streak: int, key: str = ""
) -> float:
    """The health monitor's next sleep, seconds.

    Exponential in the *healthy* streak -- a tier that has been fine
    for many consecutive probes is polled lazily, any failure resets to
    ``base`` -- and jittered so a fleet of routers sharing a machine
    never probes in lockstep.  The jitter is **deterministic**, hashed
    from ``(key, streak)`` exactly like the resilient harness derives
    retry jitter from ``(cell, attempt)``: reproducible runs stay
    reproducible, byte for byte.
    """
    base = max(0.001, base)
    cap = max(base, cap)
    interval = min(cap, base * (2 ** min(max(0, streak), 20)))
    digest = hashlib.sha256(f"{key}:{streak}".encode("utf-8")).digest()
    jitter = int.from_bytes(digest[:4], "little") / 2 ** 32
    return interval * (1.0 + 0.25 * jitter)


class WorkerShard:
    """One worker subprocess: its process handle, port, and counters."""

    def __init__(self, name: str, data_dir: Path | None) -> None:
        self.name = name
        self.data_dir = data_dir
        self.proc: subprocess.Popen | None = None
        self.port: int | None = None
        self.restarts = 0
        self.promotions = 0

    @property
    def pid(self) -> int | None:
        return self.proc.pid if self.proc is not None else None

    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None


class ShardManager:
    """Spawns and supervises the worker shards of one sharded tier."""

    def __init__(
        self,
        shards: int,
        data_dir: str | Path | None = None,
        host: str = "127.0.0.1",
        max_queue: int = 1024,
        max_batch: int = 16,
        max_sessions: int = 64,
        fsync_interval: float = 0.02,
        checkpoint_every: int = 2000,
        wal_segment_bytes: int = 1 << 20,
        standbys: int = 0,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if standbys < 0 or standbys > 1:
            raise ValueError(
                f"standbys must be 0 or 1 per shard, got {standbys}"
            )
        if standbys and data_dir is None:
            raise ValueError("standbys require a data_dir (WAL to ship)")
        self.host = host
        self.root = Path(data_dir) if data_dir is not None else None
        self.max_queue = max_queue
        self.max_batch = max_batch
        self.max_sessions = max_sessions
        self.fsync_interval = fsync_interval
        self.checkpoint_every = checkpoint_every
        self.wal_segment_bytes = wal_segment_bytes
        self.standby_count = standbys
        self.shards: dict[str, WorkerShard] = {}
        #: Warm standby per shard, keyed by the *shard* name.  Primary
        #: and standby alternate between the two per-shard data dirs as
        #: promotions swap their roles.
        self.standbys: dict[str, WorkerShard] = {}
        for index in range(shards):
            name = shard_name(index)
            directory = self.root / name if self.root is not None else None
            self.shards[name] = WorkerShard(name, directory)
            if standbys:
                self.standbys[name] = WorkerShard(
                    f"{name}-standby", self.root / f"{name}-standby"
                )
        #: Extra JSON-serializable keys merged into the state file on
        #: every write (the router parks its migration overrides here,
        #: so restarts triggered by *any* code path persist them).
        self.extra: dict[str, object] = {}
        self._router_port: int | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start_all(self) -> None:
        """Fence any previous incarnation's workers, then spawn ours."""
        if self.root is not None:
            # Workers create their own shard dirs lazily (on the first
            # durable open); the state file needs the root right away.
            self.root.mkdir(parents=True, exist_ok=True)
        self.fence_stale_workers()
        for shard in self.shards.values():
            self._spawn(shard)
        for name in self.standbys:
            self._spawn_standby(name, fresh=True)
        self.write_state()

    def restart(self, name: str) -> int:
        """Relaunch one (dead) worker on its data dir; returns the port.

        SIGKILLs the old process first if it is somehow still running
        (a hung worker that failed health checks) -- there must never
        be two writers on one shard's WAL files.
        """
        shard = self.shards[name]
        if shard.proc is not None and shard.proc.poll() is None:
            shard.proc.send_signal(signal.SIGKILL)
            shard.proc.wait()
        shard.restarts += 1
        self._spawn(shard)
        self.write_state()
        return shard.port

    def promote(self, name: str) -> int:
        """Swap one shard's warm standby in as primary; returns the port.

        The promotion state machine, in fencing order:

        1. SIGKILL the old primary if anything is left of it -- there
           must never be two writers on one shard's WAL lineage;
        2. ask the standby (synchronously) to ``promote``, pointing it
           at the dead primary's data dir so it replays the un-shipped
           tail before serving;
        3. swap the shard's port/process/data-dir to the standby's --
           from here the router opens upstreams to the promoted
           process;
        4. recycle the old primary's dir as the home of a *fresh*
           standby behind the new primary.

        Raises :class:`ShardError` when the standby is missing or the
        promotion RPC fails; the caller falls back to
        :meth:`restart` (cold restart-and-replay), which is always
        safe because step 3 never ran.
        """
        from repro.serve.standby import AdminError, sync_request

        shard = self.shards[name]
        standby = self.standbys.get(name)
        if standby is None or not standby.alive() or standby.port is None:
            raise ShardError(f"shard {name} has no live standby")
        if shard.proc is not None and shard.proc.poll() is None:
            shard.proc.send_signal(signal.SIGKILL)
            shard.proc.wait()
        old_dir = shard.data_dir
        try:
            sync_request(
                standby.port, "promote",
                host=self.host,
                timeout=WORKER_START_TIMEOUT,
                source=str(old_dir),
            )
        except (AdminError, ConnectionError, OSError) as exc:
            # The standby is unusable; put it down so the monitor
            # respawns a clean one, and let the caller cold-restart.
            if standby.alive():
                standby.proc.send_signal(signal.SIGKILL)
                standby.proc.wait()
            raise ShardError(
                f"standby promotion for {name} failed: {exc}"
            ) from exc
        shard.proc = standby.proc
        shard.port = standby.port
        shard.data_dir = standby.data_dir
        shard.promotions += 1
        # The old primary's dir is recycled as the home of the *next*
        # standby, but spawning it here would add a whole process
        # startup to the recovery critical path -- the placeholder is
        # left unspawned for the monitor to bring up in the background.
        self.standbys[name] = WorkerShard(f"{name}-standby", old_dir)
        self.write_state()
        return shard.port

    def kill(self, name: str) -> None:
        """SIGKILL one worker (the chaos harness's entry point)."""
        shard = self.shards[name]
        if shard.proc is not None and shard.proc.poll() is None:
            shard.proc.send_signal(signal.SIGKILL)
            shard.proc.wait()

    def stop_all(self, timeout: float = 10.0) -> None:
        """Graceful tier shutdown: SIGTERM every worker, then reap."""
        procs = list(self.shards.values()) + list(self.standbys.values())
        for shard in procs:
            if shard.alive():
                shard.proc.terminate()
        deadline = time.monotonic() + timeout
        for shard in procs:
            if shard.proc is None:
                continue
            remaining = max(0.1, deadline - time.monotonic())
            try:
                shard.proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                shard.proc.kill()
                shard.proc.wait()

    def dead_shards(self) -> list[str]:
        """Names of workers whose process has exited."""
        return [
            name for name, shard in self.shards.items()
            if shard.proc is not None and shard.proc.poll() is not None
        ]

    def dead_standbys(self) -> list[str]:
        """Shard names whose standby has exited or was never spawned.

        A just-promoted shard leaves an unspawned placeholder standby
        (``proc is None``) behind on purpose -- reporting it here is
        how the monitor knows to bring the replacement up off the
        recovery critical path.
        """
        return [
            name for name, standby in self.standbys.items()
            if standby.proc is None or standby.proc.poll() is not None
        ]

    def restart_standby(self, name: str) -> int:
        """Respawn one shard's standby from scratch (fresh stream)."""
        standby = self.standbys[name]
        if standby.proc is not None and standby.proc.poll() is None:
            standby.proc.send_signal(signal.SIGKILL)
            standby.proc.wait()
        standby.restarts += 1
        self._spawn_standby(name, fresh=True)
        self.write_state()
        return standby.port

    # ------------------------------------------------------------------
    # Spawning
    # ------------------------------------------------------------------

    def _spawn(self, shard: WorkerShard) -> None:
        env = dict(os.environ)
        src_root = str(Path(__file__).resolve().parents[2])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_root, env.get("PYTHONPATH")) if p
        )
        command = [
            sys.executable, "-m", "repro", "serve",
            "--host", self.host,
            "--port", "0",
            "--max-queue", str(self.max_queue),
            "--max-batch", str(self.max_batch),
            "--max-sessions", str(self.max_sessions),
            "--shard-name", shard.name,
            "--parent-pid", str(os.getpid()),
        ]
        if shard.data_dir is not None:
            command += [
                "--data-dir", str(shard.data_dir),
                "--fsync-interval", str(self.fsync_interval),
                "--checkpoint-every", str(self.checkpoint_every),
                "--wal-segment-bytes", str(self.wal_segment_bytes),
            ]
        shard.proc = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
            text=True,
        )
        shard.port = self._read_port(shard)

    def _spawn_standby(self, name: str, fresh: bool = False) -> None:
        """Launch one shard's standby, streaming from its primary.

        ``fresh`` wipes the standby's data dir first: a standby's local
        WAL copy is only meaningful relative to its in-memory cursor
        state, which dies with the process, so every (re)spawn streams
        from ``(1, 0)`` -- in the background, off the serving path.
        """
        primary = self.shards[name]
        if primary.port is None:
            raise ShardError(
                f"cannot spawn standby for {name}: primary has no port"
            )
        standby = self.standbys[name]
        if fresh and standby.data_dir is not None:
            shutil.rmtree(standby.data_dir, ignore_errors=True)
        env = dict(os.environ)
        src_root = str(Path(__file__).resolve().parents[2])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_root, env.get("PYTHONPATH")) if p
        )
        command = [
            sys.executable, "-m", "repro", "serve",
            "--host", self.host,
            "--port", "0",
            "--max-queue", str(self.max_queue),
            "--max-batch", str(self.max_batch),
            "--max-sessions", str(self.max_sessions),
            "--shard-name", standby.name,
            "--parent-pid", str(os.getpid()),
            "--standby-of", str(primary.port),
            "--data-dir", str(standby.data_dir),
            "--fsync-interval", str(self.fsync_interval),
            "--checkpoint-every", str(self.checkpoint_every),
            "--wal-segment-bytes", str(self.wal_segment_bytes),
        ]
        standby.proc = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
            text=True,
        )
        standby.port = self._read_port(standby)

    def _read_port(self, shard: WorkerShard) -> int:
        """Block until the worker prints ``serving on host:port``."""
        deadline = time.monotonic() + WORKER_START_TIMEOUT
        while time.monotonic() < deadline:
            line = shard.proc.stdout.readline()
            if not line:
                raise ShardError(
                    f"worker {shard.name} exited during startup "
                    f"(code {shard.proc.poll()})"
                )
            if line.startswith("serving on"):
                return int(line.rsplit(":", 1)[1])
        raise ShardError(f"worker {shard.name} never reported its port")

    # ------------------------------------------------------------------
    # State file + fencing
    # ------------------------------------------------------------------

    def state_path(self) -> Path | None:
        return self.root / STATE_FILE if self.root is not None else None

    def write_state(self, router_port: int | None = None) -> None:
        path = self.state_path()
        if path is None:
            return
        if router_port is not None:
            self._router_port = router_port
        state: dict = {
            "router_pid": os.getpid(),
            "router_port": self._router_port,
            "data_dir": str(self.root),
            "workers": {
                name: {
                    "pid": shard.pid,
                    "port": shard.port,
                    "restarts": shard.restarts,
                    "promotions": shard.promotions,
                    "data_dir": str(shard.data_dir)
                    if shard.data_dir is not None else None,
                }
                for name, shard in self.shards.items()
            },
            "standbys": {
                name: {
                    "pid": standby.pid,
                    "port": standby.port,
                    "restarts": standby.restarts,
                    "data_dir": str(standby.data_dir)
                    if standby.data_dir is not None else None,
                }
                for name, standby in self.standbys.items()
            },
        }
        for key, value in self.extra.items():
            state[key] = dict(value) if isinstance(value, dict) else value
        atomic_write_json(path, state)

    def fence_stale_workers(self, wait: float = 3.0) -> list[int]:
        """SIGKILL surviving workers of a previous (crashed) tier.

        A router that was itself SIGKILLed leaves orphan workers behind
        for the fraction of a second their ``--parent-pid`` watchdogs
        need to fire.  Before this incarnation touches any shard data
        dir it kills every recorded pid that is still alive *and*
        provably one of ours -- its ``/proc`` cmdline must name this
        data root, so a recycled pid is never shot -- then waits for
        the processes to vanish.  Classic replica fencing: at most one
        writer per WAL, ever.
        """
        state = read_state(self.root) if self.root is not None else None
        recorded = []
        for key in ("workers", "standbys"):
            infos = (state or {}).get(key)
            if isinstance(infos, dict):
                recorded += infos.values()
        fenced = []
        for info in recorded:
            pid = info.get("pid") if isinstance(info, dict) else None
            if not isinstance(pid, int) or pid <= 0:
                continue
            if not self._is_our_worker(pid):
                continue
            try:
                os.kill(pid, signal.SIGKILL)
                fenced.append(pid)
            except (ProcessLookupError, PermissionError):
                continue
        deadline = time.monotonic() + wait
        for pid in fenced:
            while time.monotonic() < deadline and _pid_alive(pid):
                time.sleep(0.01)
        return fenced

    def _is_our_worker(self, pid: int) -> bool:
        """True when ``pid``'s cmdline names this tier's data root."""
        try:
            cmdline = Path(f"/proc/{pid}/cmdline").read_bytes()
        except OSError:
            return False  # gone already, or no /proc on this platform
        parts = cmdline.decode("utf-8", "replace").split("\x00")
        return "repro" in " ".join(parts) and any(
            part.startswith(str(self.root)) for part in parts
        )


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def read_state(data_dir: str | Path) -> dict | None:
    """The tier's state file (worker pids/ports), or None."""
    return read_json_object(Path(data_dir) / STATE_FILE)


__all__ = [
    "STATE_FILE",
    "WORKER_START_TIMEOUT",
    "ShardError",
    "ShardManager",
    "WorkerShard",
    "poll_backoff",
    "read_state",
    "shard_name",
]
