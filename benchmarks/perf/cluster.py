"""The system under test: three ``repro.runtime.server`` OS processes.

``line3`` and not ``line2`` on purpose: between two equal-degree brokers
the timer-mode period driver loses pending subscriptions (``period_act``
clears ``broker.pending`` before ``select_period_target`` returns None
because the peer's frame already marked it contacted).  On ``line3`` the
leaves only ever send and the hub only ever receives.
"""

from __future__ import annotations

import atexit
import os
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

from benchmarks.perf.workloads import BROKERS

__all__ = ["BrokerDied", "Cluster", "cpu_seconds", "host_cpu_ticks", "peak_rss_mb"]

ROOT = Path(__file__).resolve().parents[2]
TOPOLOGY = "line3"
PERIOD_INTERVAL = 0.5
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
#: What the ``repro-broker`` console script runs (it is not installed in a
#: source checkout).  ``python -m repro.runtime.server`` reaches the same
#: ``main`` but imports the module twice — once through the package, once
#: as ``__main__`` — and says so on stderr, which this harness keeps clean
#: because any broker stderr output invalidates a run.
_CONSOLE_SCRIPT = "import sys; from repro.runtime.server import main; sys.exit(main())"
_SPAWN_ATTEMPTS = 3
_LISTEN_TIMEOUT = 30.0


class BrokerDied(RuntimeError):
    """A broker process exited before the harness stopped it."""


def parse_cpu_seconds(stat_line: str) -> float:
    """utime + stime of one ``/proc/<pid>/stat`` line, in seconds.  The
    command name may hold spaces and parentheses, so fields are counted
    from the last ``)``."""
    fields = stat_line[stat_line.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def cpu_seconds(pid: int) -> float:
    return parse_cpu_seconds(Path(f"/proc/{pid}/stat").read_text())


def parse_peak_rss_mb(status_text: str) -> float:
    """``VmHWM`` of one ``/proc/<pid>/status`` file, in MiB."""
    for line in status_text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise ValueError("no VmHWM line")


def peak_rss_mb(pid: int) -> float:
    return parse_peak_rss_mb(Path(f"/proc/{pid}/status").read_text())


def host_cpu_ticks() -> Dict[str, int]:
    """The ``cpu`` line of ``/proc/stat``: all jiffies the guest's cores
    spent, and those of them the hypervisor gave to someone else."""
    fields = [int(field) for field in Path("/proc/stat").read_text().split("\n")[0].split()[1:]]
    return {"total": sum(fields[:8]), "steal": fields[7]}


def _free_ports(count: int) -> List[int]:
    """Ports the kernel just handed out for bind-0 (held together so they
    differ).  Another process can still grab one before the broker binds;
    :meth:`Cluster.start` retries with a fresh set when that happens."""
    sockets = [socket.socket() for _ in range(count)]
    try:
        for sock in sockets:
            sock.bind(("127.0.0.1", 0))
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


class Cluster:
    """Spawn, observe and always reap the three brokers."""

    def __init__(self, out_dir: Path, traced: bool):
        self.out_dir = out_dir
        self.traced = traced
        self.ports: Dict[int, int] = {}
        self._procs: Dict[int, subprocess.Popen] = {}
        self._logs: list = []
        atexit.register(self.stop)

    def _command(self, broker: int, peers: str) -> List[str]:
        server_args = [
            "--broker-id", str(broker), "--topology", TOPOLOGY,
            "--port", str(self.ports[broker]), "--peers", peers,
            "--period-interval", str(PERIOD_INTERVAL),
        ]
        if self.traced:
            return [
                sys.executable, str(Path(__file__).with_name("traced_broker.py")),
                "--trace-out", str(self.trace_path(broker)), *server_args,
            ]
        return [sys.executable, "-c", _CONSOLE_SCRIPT, *server_args]

    def trace_path(self, broker: int) -> Path:
        return self.out_dir / f"broker{broker}.trace.json"

    def stderr_path(self, broker: int) -> Path:
        return self.out_dir / f"broker{broker}.stderr"

    def start(self) -> None:
        """Spawn all brokers and wait until each one listens."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        for _ in range(_SPAWN_ATTEMPTS):
            self.ports = dict(zip(BROKERS, _free_ports(len(BROKERS))))
            peers = ",".join(f"{b}=127.0.0.1:{p}" for b, p in self.ports.items())
            for broker in BROKERS:
                log = open(self.stderr_path(broker), "ab")
                self._logs.append(log)
                self._procs[broker] = subprocess.Popen(
                    self._command(broker, peers), cwd=ROOT, env=env,
                    stdout=subprocess.PIPE, stderr=log,
                )
            if all(self._await_listening(broker) for broker in BROKERS):
                return
            self.stop()
        raise BrokerDied(
            f"brokers failed to listen in {_SPAWN_ATTEMPTS} attempts; see "
            f"{self.out_dir}/broker*.stderr"
        )

    def _await_listening(self, broker: int) -> bool:
        """The broker prints one ``listening`` line once its port is
        bound; EOF instead means it died (most likely a lost port race)."""
        proc = self._procs[broker]
        os.set_blocking(proc.stdout.fileno(), False)
        deadline = time.monotonic() + _LISTEN_TIMEOUT
        seen = b""
        while time.monotonic() < deadline:
            chunk = proc.stdout.read()
            if chunk:
                seen += chunk
                if b"listening" in seen:
                    return True
            elif chunk == b"" or proc.poll() is not None:
                return False
            time.sleep(0.01)
        return False

    def check_alive(self) -> None:
        for broker, proc in self._procs.items():
            if proc.poll() is not None:
                raise BrokerDied(
                    f"broker {broker} exited early with code {proc.returncode}; "
                    f"see {self.stderr_path(broker)}"
                )

    def cpu_seconds(self) -> Dict[int, float]:
        self.check_alive()
        return {broker: cpu_seconds(proc.pid) for broker, proc in self._procs.items()}

    def peak_rss_mb(self) -> Dict[int, float]:
        self.check_alive()
        return {broker: peak_rss_mb(proc.pid) for broker, proc in self._procs.items()}

    def signal_all(self, signum: int) -> None:
        self.check_alive()
        for proc in self._procs.values():
            proc.send_signal(signum)

    def stop(self, grace: float = 10.0) -> None:
        """SIGTERM (graceful drain; traced brokers write their ledger),
        then SIGKILL whatever is left, and wait for every child."""
        procs, self._procs = self._procs, {}
        for proc in procs.values():
            if proc.poll() is None:
                proc.terminate()
        deadline = time.monotonic() + grace
        for proc in procs.values():
            try:
                proc.wait(max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        for log in self._logs:
            log.close()
        self._logs = []

    def stderr_warnings(self) -> List[str]:
        """Lines the brokers logged at WARNING or above (dropped frames,
        failed sends, dropped connections, tracebacks)."""
        lines: List[str] = []
        for broker in BROKERS:
            path = self.stderr_path(broker)
            if path.exists():
                lines += [
                    f"broker {broker}: {line}"
                    for line in path.read_text(errors="replace").splitlines()
                    if line.strip()
                ]
        return lines
