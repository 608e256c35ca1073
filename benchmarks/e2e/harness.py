"""Load loops, phase statistics, process hygiene and digests.

The load generator is this one process with at most ``config.NPROC``
threads; servers and shards under test are subprocesses in their own
process groups on ephemeral ports, always reaped.  All scratch files
live under ``benchmarks/e2e/.work/<run>/`` and are removed on exit.
"""

from __future__ import annotations

import atexit
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

import config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK_ROOT = HERE / ".work"
OUT = HERE / "out"


# -- scratch directory and child processes ---------------------------------

#: Registered children -> seconds of grace (SIGTERM first) when stopped.
_children: dict[subprocess.Popen, float] = {}
_workdirs: list[Path] = []
_hygiene_installed = False


def _cleanup() -> None:
    for proc in list(_children):
        stop_process(proc)
    for path in list(_workdirs):
        shutil.rmtree(path, ignore_errors=True)
        _workdirs.remove(path)
    try:
        WORK_ROOT.rmdir()  # only when no other run is using it
    except OSError:
        pass


def _on_signal(signum, _frame) -> None:
    _cleanup()
    signal.signal(signum, signal.SIG_DFL)
    os.kill(os.getpid(), signum)


def install_hygiene() -> None:
    """Reap children and remove scratch on exit, SIGINT and SIGTERM."""
    global _hygiene_installed
    if _hygiene_installed:
        return
    _hygiene_installed = True
    atexit.register(_cleanup)
    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, _on_signal)


def new_workdir() -> Path:
    """A fresh scratch directory; its name carries neither seed nor workload."""
    install_hygiene()
    WORK_ROOT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    _workdirs.append(path)
    return path


def drop_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    if path in _workdirs:
        _workdirs.remove(path)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def spawn(args: list[str], grace_s: float = 0.0, **popen_kw) -> subprocess.Popen:
    """Start a child in its own process group and register it for reaping.

    ``grace_s`` is for a child that has children of its own (a repetition
    and its servers): it is sent SIGTERM and given that long to reap them
    before its group is killed.
    """
    install_hygiene()
    proc = subprocess.Popen(
        args, env=child_env(), start_new_session=True, **popen_kw
    )
    _children[proc] = grace_s
    return proc


def start_server(cli_args: list[str]) -> subprocess.Popen:
    """Start ``repro-gdelt <cli_args>``; pair with :func:`await_listening`."""
    return spawn(
        [sys.executable, "-m", "repro.cli", *cli_args],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )


def spawn_server(cli_args: list[str]) -> tuple[subprocess.Popen, str, int]:
    """Start a server and wait for its listening banner."""
    proc = start_server(cli_args)
    host, port = await_listening(proc)
    return proc, host, port


def spawn_cluster(shard_dirs: list[Path]):
    """Two-tier serving: one ``serve`` per shard directory plus a router.

    The shard servers start together before any banner is awaited.
    Returns ``(router, "host:port", [(proc, host, port), ...])``.
    """
    starting = [start_server(["serve", str(d), "--port", "0"]) for d in shard_dirs]
    shards = [(p, *await_listening(p)) for p in starting]
    backends = [a for _, h, p in shards for a in ("--backend", f"{h}:{p}")]
    router, host, port = spawn_server(["shard-serve", *backends, "--port", "0"])
    return router, f"{host}:{port}", shards


def await_listening(proc: subprocess.Popen, timeout_s: float = 60.0) -> tuple[str, int]:
    """Parse the ``listening on host:port`` banner (ephemeral ports only)."""
    found: list[tuple[str, int]] = []

    def read() -> None:
        for line in proc.stdout:
            if line.startswith("listening on "):
                host, _, port = line.split()[-1].rpartition(":")
                found.append((host, int(port)))
                return

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    reader.join(timeout_s)
    if not found:
        stop_process(proc)
        raise RuntimeError(f"server {proc.args[3:5]} never reported its address")
    return found[0]


def peak_rss_mb_of(pid: int) -> float:
    """High-water RSS of a live process (``VmHWM``), in MB."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def stop_process(proc: subprocess.Popen) -> None:
    """Kill the child's whole process group and wait for it.

    No graceful drain for servers: nothing a server writes on shutdown is
    measured, and a drain would add seconds to every set-up repetition.
    """
    grace_s = _children.pop(proc, 0.0)
    if grace_s and proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(grace_s)
        except subprocess.TimeoutExpired:
            pass
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass  # already gone
    proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


# -- canonical digests ------------------------------------------------------


def canonical(value):
    """JSON-able canonical form of any analysis or query result."""
    if isinstance(value, np.ndarray):
        return [canonical(v) for v in value.tolist()]
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float):
        return None if value != value else value
    if is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: canonical(getattr(value, f.name))
            for f in fields(value) if f.name != "profile"
        }
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    return value


def digest(value) -> str:
    """Canonical JSON -> BLAKE2 hex digest."""
    text = json.dumps(canonical(value), sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


# -- samples, windows, percentiles -----------------------------------------


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile (no interpolation: a measured value)."""
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass
class Phase:
    """Samples of one timed phase: ``(t_ref, latency_ms, ok)``.

    ``t_ref`` is the completion time in a closed loop and the *due* time
    in an open loop.
    """

    kind: str  # "closed" | "open"
    t0: float = 0.0
    t1: float = 0.0
    samples: list[tuple[float, float, bool]] = field(default_factory=list)
    late_ms: list[float] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.samples)

    @property
    def failed(self) -> int:
        return sum(1 for s in self.samples if not s[2])

    def timed(self) -> list[tuple[float, float, bool]]:
        """Samples inside ``[t0, t1]``; an op that completes later is left out."""
        return [s for s in self.samples if self.t0 <= s[0] <= self.t1]

    def rate(self) -> float:
        """Correct operations per second of the phase."""
        return sum(1 for s in self.timed() if s[2]) / (self.t1 - self.t0)

    def latencies(self) -> list[float]:
        """Latency (ms) of every correct timed operation."""
        return [s[1] for s in self.timed() if s[2]]

    def half_spread(self) -> float:
        """Relative difference between the two halves' completion counts."""
        mid = (self.t0 + self.t1) / 2
        timed = self.timed()
        first = sum(1 for s in timed if s[0] < mid)
        second = len(timed) - first
        return abs(first - second) / max(1.0, (first + second) / 2)


def closed_loop(n_threads: int, seconds: float, make_op) -> Phase:
    """``n_threads`` callers, each issuing its next op when the last returns.

    ``make_op(thread_index)`` returns a zero-argument callable that runs
    one operation and returns whether its answer was correct.
    """
    assert n_threads <= config.NPROC
    phase = Phase(kind="closed")
    ops = [make_op(i) for i in range(n_threads)]
    per_thread: list[list] = [[] for _ in range(n_threads)]
    lates: list[list] = [[] for _ in range(n_threads)]
    start = threading.Barrier(n_threads + 1)

    def run(idx: int) -> None:
        op, out, late = ops[idx], per_thread[idx], lates[idx]
        start.wait()
        end = phase.t0 + seconds
        t1 = None
        while True:
            t0 = time.perf_counter()
            if t0 >= end:
                return
            if t1 is not None:
                # An op is due when the one before returns: the gap is
                # the harness's own bookkeeping.
                late.append((t0 - t1) * 1e3)
            ok = safe(op)
            t1 = time.perf_counter()
            out.append((t1, (t1 - t0) * 1e3, ok))

    threads = [threading.Thread(target=run, args=(i,)) for i in range(n_threads)]
    for t in threads:
        t.start()
    phase.t0 = time.perf_counter()
    start.wait()
    for t in threads:
        t.join()
    phase.t1 = phase.t0 + seconds
    phase.samples = sorted(s for out in per_thread for s in out)
    phase.late_ms = [v for late in lates for v in late]
    return phase


def open_loop(due_offsets: list[list[float]], make_op) -> Phase:
    """One thread per schedule; op ``i`` is *due* at ``t0 + due_offsets[i]``.

    Latency runs from the due time, so the wait a stall imposes on later
    operations is counted.  A generator more than ``MAX_BACKLOG_S``
    behind aborts the phase: its remaining operations count as failed.
    """
    n_threads = len(due_offsets)
    assert n_threads <= config.NPROC
    phase = Phase(kind="open")
    ops = [make_op(i) for i in range(n_threads)]
    per_thread: list[list] = [[] for _ in range(n_threads)]
    lates: list[list] = [[] for _ in range(n_threads)]
    start = threading.Barrier(n_threads + 1)

    def run(idx: int) -> None:
        op, out, late = ops[idx], per_thread[idx], lates[idx]
        start.wait()
        t0 = phase.t0
        for k, offset in enumerate(due_offsets[idx]):
            due = t0 + offset
            now = time.perf_counter()
            if due > now:
                time.sleep(due - now)
                now = time.perf_counter()
            if now - due > config.MAX_BACKLOG_S:
                out.extend(
                    (t0 + o, math.nan, False) for o in due_offsets[idx][k:]
                )
                return
            late.append((now - due) * 1e3)
            ok = safe(op)
            out.append((due, (time.perf_counter() - due) * 1e3, ok))

    threads = [threading.Thread(target=run, args=(i,)) for i in range(n_threads)]
    for t in threads:
        t.start()
    phase.t0 = time.perf_counter() + 0.01
    start.wait()
    for t in threads:
        t.join()
    phase.t1 = phase.t0 + max((o[-1] for o in due_offsets if o), default=0.0) + 1e-9
    phase.samples = sorted(s for out in per_thread for s in out)
    phase.late_ms = [v for late in lates for v in late]
    return phase


def safe(op) -> bool:
    """Run one operation; an exception is a failed operation, not a crash."""
    try:
        return bool(op())
    except Exception as exc:  # boundary: the run must finish and report
        print(f"op failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return False


def poisson_schedule(rng, rate: float, seconds: float) -> list[float]:
    """Seeded exponential inter-arrival offsets in ``[0, seconds)``."""
    out: list[float] = []
    t = float(rng.exponential(1.0 / rate))
    while t < seconds:
        out.append(t)
        t += float(rng.exponential(1.0 / rate))
    return out
