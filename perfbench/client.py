"""The server under test as a subprocess, and a keep-alive HTTP client."""

from __future__ import annotations

import http.client
import os
import pathlib
import re
import selectors
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

#: BLAS pools pinned to one thread, in the server and in this client
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

_READY_LINE = re.compile(r"^serving \S+ on http://([0-9.]+):(\d+)")
_METRIC_LINE = re.compile(r"^([A-Za-z_:][A-Za-z0-9_:]*) (\S+)$")

TRACE_HEADER = "X-Repro-Trace-Id"


@dataclass
class Reply:
    status: int
    body: bytes
    seconds: float


class Connection:
    """One keep-alive HTTP/1.1 connection; each call waits for its reply."""

    def __init__(self, host: str, port: int, timeout: float = 120.0):
        self._conn = http.client.HTTPConnection(host, port, timeout=timeout)
        #: requests sent and answered with a status other than 200
        self.sent = 0
        self.failed = 0

    def request(self, method: str, path: str, body: Optional[bytes] = None,
                trace_id: Optional[str] = None) -> Reply:
        headers = {}
        if body is not None:
            headers["Content-Type"] = "application/json"
        if trace_id is not None:
            headers[TRACE_HEADER] = trace_id
        self.sent += 1
        started = time.perf_counter()
        self._conn.request(method, path, body=body, headers=headers)
        response = self._conn.getresponse()
        data = response.read()
        seconds = time.perf_counter() - started
        self.failed += response.status != 200
        return Reply(response.status, data, seconds)

    def close(self) -> None:
        self._conn.close()


def parse_metrics(text: str) -> Dict[str, float]:
    """Unlabelled samples of a Prometheus text exposition."""
    out = {}
    for line in text.splitlines():
        match = _METRIC_LINE.match(line)
        if match:
            out[match.group(1)] = float(match.group(2))
    return out


class ServerProcess:
    """``python -m repro.cli serve`` (or the traced launcher) as a child.

    ``start`` returns once the server printed its listening address;
    ``stop`` sends SIGINT, the server's clean-shutdown signal, and waits
    for the process to end.
    """

    def __init__(self, root: pathlib.Path, serve_args: List[str],
                 workdir: pathlib.Path, *, traced: bool = False,
                 env: Optional[Dict[str, str]] = None):
        self.root = root
        self.serve_args = list(serve_args)
        self.workdir = workdir
        self.traced = traced
        self.env = dict(os.environ)
        self.env.update(PINNED_ENV)
        self.env["PYTHONPATH"] = str(root / "src")
        self.env.update(env or {})
        self.proc: Optional[subprocess.Popen] = None
        self.host = "127.0.0.1"
        self.port = 0
        self.spawned_at = 0.0

    def start(self, timeout: float = 120.0) -> "ServerProcess":
        if self.traced:
            argv = [sys.executable,
                    str(pathlib.Path(__file__).with_name("traced_server.py"))]
        else:
            argv = [sys.executable, "-m", "repro.cli"]
        argv += ["serve", "--port", "0"] + self.serve_args
        log = open(self.workdir / f"server-{len(os.listdir(self.workdir))}"
                   ".log", "wb")
        self.spawned_at = time.perf_counter()
        try:
            self.proc = subprocess.Popen(argv, cwd=str(self.root),
                                         env=self.env, stdout=subprocess.PIPE,
                                         stderr=log)
        finally:
            log.close()
        deadline = time.monotonic() + timeout
        selector = selectors.DefaultSelector()
        selector.register(self.proc.stdout, selectors.EVENT_READ)
        try:
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not selector.select(remaining):
                    raise RuntimeError("server did not start listening")
                line = self.proc.stdout.readline().decode("utf-8", "replace")
                if not line:
                    raise RuntimeError(
                        f"server exited with {self.proc.wait()} before "
                        "listening")
                match = _READY_LINE.match(line)
                if match:
                    self.host, self.port = match.group(1), int(match.group(2))
                    return self
        except BaseException:
            self.stop()
            raise
        finally:
            selector.close()

    def connect(self) -> Connection:
        return Connection(self.host, self.port)

    def _proc_file(self, name: str) -> str:
        return pathlib.Path(f"/proc/{self.proc.pid}/{name}").read_text()

    def peak_rss_mb(self) -> float:
        for line in self._proc_file("status").splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def cpu_seconds(self) -> float:
        """utime + stime of the server process so far."""
        fields = self._proc_file("stat").rsplit(")", 1)[1].split()
        ticks = int(fields[11]) + int(fields[12])
        return ticks / os.sysconf("SC_CLK_TCK")

    def stop(self, timeout: float = 60.0) -> None:
        proc = self.proc
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        proc.stdout.close()
        self.proc = None


def metrics(conn: Connection) -> Dict[str, float]:
    reply = conn.request("GET", "/metrics")
    if reply.status != 200:
        raise RuntimeError(f"GET /metrics answered {reply.status}")
    return parse_metrics(reply.body.decode("utf-8"))
