"""Per-shard server subprocess management.

``repro-gdelt shard-serve`` needs N real backend *processes*, each
serving one shard dataset over the LDJSON protocol.
:func:`launch_shards` spawns them with ``--port 0`` (ephemeral), reads
the bound address from each child's ``listening on host:port`` line —
the same line operators see — and hands the addresses to a
:class:`~repro.shard.router.ShardRouter`.

Children are plain ``repro-gdelt serve`` invocations: a shard backend
IS a single-store server; nothing shard-specific runs inside it.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

__all__ = ["ShardProcess", "launch_shards"]

#: How long a spawned backend may take to print its ``listening on`` line.
_STARTUP_TIMEOUT_S = 30.0


class ShardProcess:
    """One spawned ``repro-gdelt serve`` backend."""

    def __init__(self, dataset: Path) -> None:
        self.dataset = Path(dataset)
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2])
        env["PYTHONPATH"] = (
            src + os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH")
            else src
        )
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve", str(self.dataset),
                "--port", "0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=env,
        )
        self.host, self.port = self._await_listening()

    def _await_listening(self) -> tuple[str, int]:
        deadline = time.monotonic() + _STARTUP_TIMEOUT_S
        assert self.proc.stdout is not None
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            if line.startswith("listening on "):
                host, _, port = line.split()[-1].rpartition(":")
                return host, int(port)
        self.kill()
        raise RuntimeError(
            f"shard backend for {self.dataset} never reported its address"
        )

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def alive(self) -> bool:
        return self.proc.poll() is None

    def kill(self) -> None:
        """Hard-stop the backend (chaos / teardown); idempotent."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=10.0)
        if self.proc.stdout is not None:
            self.proc.stdout.close()

    def __repr__(self) -> str:
        state = "up" if self.alive() else "dead"
        return f"ShardProcess({self.dataset.name}, {self.address}, {state})"


def launch_shards(shard_dirs: list[Path]) -> list[ShardProcess]:
    """Spawn one backend per shard directory; kills all on any failure."""
    procs: list[ShardProcess] = []
    try:
        for d in shard_dirs:
            procs.append(ShardProcess(d))
    except Exception:
        for p in procs:
            p.kill()
        raise
    return procs
