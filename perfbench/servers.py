"""Spawning and reaping the ``repro`` server processes of a serve run.

Every server runs in its own session (process group), so stopping it
also reaches the pool workers it forked.  :class:`ServerSet` is a context
manager: leaving it -- normally or through an exception -- asks each
server to drain with SIGTERM, waits, and SIGKILLs whatever is left of
each process group, so no gateway, router, node or worker outlives a run.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
_ADDRESS = re.compile(r"on ([0-9.]+):(\d+)")
ANNOUNCE_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 30.0


def env() -> dict:
    out = dict(os.environ)
    out["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([out["PYTHONPATH"]] if out.get("PYTHONPATH") else []))
    return out


def repro_command(args: Sequence[str], spans_out: Optional[Path]) -> List[str]:
    """``repro <args>``, through the tracing launcher when ``spans_out``."""
    if spans_out is None:
        return [sys.executable, "-m", "repro.cli", *args]
    return [sys.executable, str(HERE / "launch.py"), str(spans_out), *args]


def peak_rss_mb(pid: int) -> float:
    """A live process's peak resident set (VmHWM), in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Server:
    def __init__(self, name: str, proc: subprocess.Popen):
        self.name = name
        self.proc = proc
        self.address: Optional[Tuple[str, int]] = None

    @property
    def pid(self) -> int:
        return self.proc.pid


class ServerSet:
    """The servers of one set-up; stopped and reaped on exit."""

    def __init__(self, cwd: Path):
        self.cwd = cwd
        self.servers: List[Server] = []

    def __enter__(self) -> "ServerSet":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def spawn(self, name: str, command: Sequence[str],
              cpu: Optional[int] = None) -> Server:
        """Start ``command``; pin it (and its threads) to ``cpu`` when the
        host has that many CPUs."""
        pin = None
        if cpu is not None and cpu < (os.cpu_count() or 1):
            def pin() -> None:
                os.sched_setaffinity(0, {cpu})
        proc = subprocess.Popen(
            list(command), cwd=self.cwd, env=env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            start_new_session=True, preexec_fn=pin,
        )
        server = Server(name, proc)
        self.servers.append(server)
        return server

    def await_address(self, server: Server) -> Tuple[str, int]:
        """Block until ``server`` prints ``... on HOST:PORT`` on stderr."""
        deadline = time.monotonic() + ANNOUNCE_TIMEOUT_S
        while time.monotonic() < deadline:
            line = server.proc.stderr.readline()
            if not line:
                raise RuntimeError(
                    f"{server.name} exited before announcing its address "
                    f"(rc={server.proc.poll()})")
            match = _ADDRESS.search(line)
            if match:
                server.address = (match.group(1), int(match.group(2)))
                return server.address
        raise RuntimeError(f"{server.name} did not announce within "
                           f"{ANNOUNCE_TIMEOUT_S} s")

    def signal_all(self, signum: int) -> None:
        for server in self.servers:
            if server.proc.poll() is None:
                os.kill(server.pid, signum)

    def peak_rss_mb(self) -> float:
        return sum(peak_rss_mb(s.pid) for s in self.servers)

    def stop(self) -> None:
        """Drain every server (reverse start order), then reap groups."""
        for server in reversed(self.servers):
            if server.proc.poll() is None:
                try:
                    os.kill(server.pid, signal.SIGTERM)
                except ProcessLookupError:
                    pass
            try:
                server.proc.communicate(timeout=DRAIN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                _kill_group(server.pid)
                server.proc.communicate()
            _kill_group(server.pid)
        self.servers = []


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
