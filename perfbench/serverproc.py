"""Build an artifact with ``repro build`` and run ``repro serve`` as a subprocess."""

from __future__ import annotations

import http.client
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from perfbench.workloads import DATASET, GRAPH_K, Workload

ROOT = Path(__file__).resolve().parent.parent
#: The server runs at a lower scheduling priority than the generator, so
#: on a host with as many busy threads as cores the generator still sends
#: on time and its own lateness does not land in the measured latency.
SERVER_NICENESS = 5
_PORT_LINE = re.compile(rb"on http://127\.0\.0\.1:(\d+)")


def _server_preexec() -> None:
    os.nice(SERVER_NICENESS)
    # A benchmark started in the background of a non-interactive shell
    # inherits an ignored SIGINT; the server must still stop on it.
    signal.signal(signal.SIGINT, signal.SIG_DFL)


def repro_env() -> dict:
    """Environment that runs the checkout's own ``src/repro``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env["PYTHONUNBUFFERED"] = "1"
    return env


def corpus_flags(scale: float) -> list:
    return ["--dataset", DATASET, "--scale", str(scale)]


class ServerProcess:
    """A running ``repro serve`` (or the traced launcher) on a free port."""

    def __init__(self, command: list, workdir: Path, name: str = "serve"):
        self.log_path = workdir / f"{name}.log"
        self._log = open(self.log_path, "wb")
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            command,
            stdout=self._log,
            stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL,
            cwd=workdir,
            env=repro_env(),
            preexec_fn=_server_preexec,
        )
        self.port: int | None = None

    def log_tail(self) -> str:
        return self.log_path.read_bytes()[-2000:].decode("utf-8", "replace")

    def wait_ready(self, timeout: float = 120.0) -> float:
        """Block until ``/healthz`` answers 200; returns the instant it did."""
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode}:\n{self.log_tail()}"
                )
            if self.port is None:
                match = _PORT_LINE.search(self.log_path.read_bytes())
                if match:
                    self.port = int(match.group(1))
            if self.port is not None and self._healthz() == 200:
                return time.perf_counter()
            time.sleep(0.005)
        raise RuntimeError(f"server not ready after {timeout}s:\n{self.log_tail()}")

    def _healthz(self) -> int | None:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
        try:
            connection.request("GET", "/healthz")
            return connection.getresponse().status
        except OSError:
            return None
        finally:
            connection.close()

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the server process, in MB (10^6 bytes)."""
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024 / 1e6
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> int:
        """Interrupt the server, wait for it to exit (kill if it hangs)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()
        return self.proc.returncode


def build_artifact(workload: Workload, scale: float, workdir: Path) -> Path:
    """``repro build`` the workload's artifact into ``workdir``."""
    artifact = workdir / workload.artifact
    command = [
        sys.executable, "-m", "repro", "build", *corpus_flags(scale),
        "--k", str(GRAPH_K), "--out", str(artifact), *workload.build_flags,
    ]
    with open(workdir / "build.log", "wb") as log:
        done = subprocess.run(
            command, stdout=log, stderr=subprocess.STDOUT, cwd=workdir,
            env=repro_env(), timeout=170,
        )
    if done.returncode != 0:
        tail = (workdir / "build.log").read_bytes()[-2000:].decode("utf-8", "replace")
        raise RuntimeError(f"repro build failed ({done.returncode}):\n{tail}")
    return artifact


def serve_command(
    workload: Workload, artifact: Path, scale: float, spans_out: Path | None = None
) -> list:
    """The ``repro serve`` command line (through the traced launcher if asked)."""
    args = [
        str(artifact), *corpus_flags(scale), "--knn", str(GRAPH_K),
        "--port", "0", *workload.serve_flags,
    ]
    if spans_out is None:
        return [sys.executable, "-m", "repro", "serve", *args]
    launcher = str(Path(__file__).resolve().parent / "traced_serve.py")
    return [sys.executable, launcher, str(spans_out), *args]


class Setup:
    """One set-up: empty directory -> ``repro build`` -> server answering 200.

    ``seconds`` is ``setup_s`` for this set-up; ``startup_seconds`` the
    part from spawning the server to its first 200 on ``/healthz``.
    """

    def __init__(
        self, workload: Workload, scale: float, parent: Path,
        spans_out: Path | None = None,
    ):
        self.workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=parent))
        started = time.perf_counter()
        self.artifact = build_artifact(workload, scale, self.workdir)
        self.server = ServerProcess(
            serve_command(workload, self.artifact, scale, spans_out),
            self.workdir,
            name="traced" if spans_out is not None else "serve",
        )
        try:
            ready = self.server.wait_ready()
        except BaseException:
            self.close()
            raise
        self.seconds = ready - started
        self.startup_seconds = ready - self.server.spawned

    def close(self) -> None:
        self.server.stop()
        shutil.rmtree(self.workdir, ignore_errors=True)
