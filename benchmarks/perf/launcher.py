"""Start, watch and stop the real ``python -m repro serve --listen`` child.

Everything a failed run can look like is decided here: the child gets
``src/`` on its path from this file's own location, binds port 0 and is
ready when its ``listening on`` line arrives; a thread drains its stderr
so a full pipe can never stall it; every wait has a timeout; and
``stop`` always ends the whole process group (SIGTERM first, so the
server writes its ``--metrics-json`` snapshot, then SIGKILL).  Failures
raise :class:`BenchError` with a one-line reason.
"""

from __future__ import annotations

import collections
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

READY = re.compile(r"listening on ([\d.]+):(\d+)")
START_TIMEOUT_S = 30.0
STOP_TIMEOUT_S = 15.0
_CLK_TCK = os.sysconf("SC_CLK_TCK")


class BenchError(RuntimeError):
    """The run is invalid; the message is the one-line reason."""


def child_env() -> dict[str, str]:
    """This process's environment with ``src/`` first on the module path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH", "")) if part
    )
    return env


def require_src() -> None:
    """Fail early (and in one line) when the program is not there."""
    if not (SRC / "repro" / "__main__.py").is_file():
        raise BenchError(f"program source not found under {SRC}")


def live_processes():
    """``(pid, fields)`` of every live process; ``fields`` is what follows
    the command name in ``/proc/<pid>/stat``: state, ppid, pgrp, ...,
    utime (11), stime (12), cutime (13), cstime (14)."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                fields = handle.read().rsplit(b") ", 1)[1].split()
        except (OSError, IndexError):
            continue
        if fields[0] != b"Z":
            yield int(entry), fields


def _group(pgid: int) -> list[tuple[int, list[bytes]]]:
    """The live members of process group ``pgid`` (the server tree)."""
    return [(pid, f) for pid, f in live_processes() if int(f[2]) == pgid]


class Server:
    """One ``repro serve --listen 127.0.0.1:0`` child in its own group."""

    def __init__(self, flags: tuple[str, ...] = (), metrics_json: Path | None = None,
                 cpus: set[int] | None = None):
        self.flags = tuple(flags)
        self.metrics_json = metrics_json
        #: CPUs the child (and everything it starts) is confined to.
        self.cpus = cpus
        self.process: subprocess.Popen | None = None
        self.address: tuple[str, int] | None = None
        self._ready = threading.Event()
        self._tail: collections.deque[str] = collections.deque(maxlen=20)
        self._drain: threading.Thread | None = None

    # -- lifecycle --------------------------------------------------------

    def start(self) -> tuple[str, int]:
        require_src()
        command = [sys.executable, "-m", "repro", "serve",
                   "--listen", "127.0.0.1:0", *self.flags]
        if self.metrics_json is not None:
            command += ["--metrics-json", str(self.metrics_json)]
        # A child inherits its parent's affinity, so narrow ours around the
        # fork instead of running code between fork and exec.
        mine = os.sched_getaffinity(0)
        os.sched_setaffinity(0, self.cpus or mine)
        try:
            self.process = subprocess.Popen(
                command,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
                env=child_env(),
                cwd=str(ROOT),
                start_new_session=True,
            )
        finally:
            os.sched_setaffinity(0, mine)
        self._drain = threading.Thread(
            target=self._drain_stderr, name="server-stderr", daemon=True
        )
        self._drain.start()
        if not self._ready.wait(START_TIMEOUT_S) or self.address is None:
            reason = self.last_words() or "no output"
            self.stop()
            raise BenchError(f"server never became ready: {reason}")
        return self.address

    def _drain_stderr(self) -> None:
        assert self.process is not None and self.process.stderr is not None
        for line in self.process.stderr:
            self._tail.append(line.rstrip())
            if self.address is None:
                match = READY.search(line)
                if match:
                    self.address = (match.group(1), int(match.group(2)))
                    self._ready.set()
        self._ready.set()  # EOF: wake a waiter so it can report the death

    def last_words(self) -> str:
        return " | ".join(line for line in self._tail if line)[-300:]

    def check_alive(self) -> None:
        if self.process is None or self.process.poll() is not None:
            code = None if self.process is None else self.process.returncode
            raise BenchError(
                f"server died (exit {code}): {self.last_words() or 'no output'}"
            )

    def stop(self) -> None:
        """SIGTERM (metrics dump), bounded wait, then kill the group."""
        process = self.process
        if process is None:
            return
        pgid = process.pid
        try:
            if process.poll() is None:
                process.send_signal(signal.SIGTERM)
                try:
                    process.wait(STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    pass
        finally:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
            try:
                process.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pass
            if self._drain is not None:
                self._drain.join(STOP_TIMEOUT_S)
            if process.stderr is not None:
                process.stderr.close()
            self.process = None
        deadline = time.monotonic() + STOP_TIMEOUT_S
        while _group(pgid):
            if time.monotonic() > deadline:
                raise BenchError(f"server process group {pgid} survived the kill")
            time.sleep(0.01)

    # -- resource sampling (no psutil: /proc only) ------------------------

    def cpu_seconds(self) -> float:
        """user+sys CPU of the tree: live members plus reaped children."""
        assert self.process is not None
        ticks = 0
        for pid, fields in _group(self.process.pid):
            ticks += int(fields[11]) + int(fields[12])
            if pid == self.process.pid:
                ticks += int(fields[13]) + int(fields[14])
        return ticks / _CLK_TCK

    def peak_rss_mb(self) -> float:
        """Sum of the tree members' resident-set high-water marks."""
        assert self.process is not None
        total_kb = 0
        for pid, _fields in _group(self.process.pid):
            try:
                with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
                            break
            except OSError:
                continue
        return total_kb / 1024.0
