"""End-to-end benchmark: paper report, million-device lot, estimator service.

Run from the repository root::

    python3 e2ebench/run.py --workload report --seed 1 --seconds 36 --trace 0

Workloads (``README.md`` says why each one exists):

* ``report``  -- the canonical paper run, one fresh process each;
* ``lot``     -- a 10^6-device streaming lot, one fresh process each;
* ``service`` -- ``repro serve`` answering batch queries it has never
  seen, so the estimator computes every response.

A report or lot operation is timed from process spawn to exit.  A service
operation is one request from a single closed-loop client over one
keep-alive loopback connection (the next request leaves when the previous
reply has arrived).  All inputs are drawn from ``--seed``.

The speed of a shared host drifts by tens of percent over tens of
seconds, and differently on each CPU.  So the benchmark and every process
it starts run on one CPU, and a fixed reference loop is timed on that CPU
between slices of operations.  Each slice's median latency is scaled to
the speed at which the reference takes :data:`NOMINAL_REF_S`; the
reported timings are medians of those scaled values.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``; with ``--trace 1`` the same workload runs with spans
around each layer and the per-layer metrics are reported instead.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

WORKLOADS = ("report", "lot", "service")

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Consecutive operations are grouped into slices of at least this many
#: seconds; the reference loop runs between slices.  A report or lot
#: operation is a slice on its own.
SLICE_S = 1.0

#: Iterations of the reference loop, and the time it takes at the
#: nominal speed the reported timings are scaled to (about the fastest
#: this loop runs on the 2-CPU Xeon host the benchmark was tuned on).
REF_ITERATIONS = 400_000
NOMINAL_REF_S = 0.05

#: A worker still running after this long is killed and the run fails;
#: well inside the 180 s one run may take.
WORKER_TIMEOUT_S = 120.0

#: Service responses per run compared byte for byte against the
#: in-process estimator.
IDENTITY_SAMPLE = 64

#: Layers whose self time the traced run reports, as a share of the
#: summed operation latencies (the remainder is ``other``).
LAYERS = ("import", "ifa.adjacency", "ifa.extract", "campaign",
          "estimator", "population", "classify", "testplan", "extensions",
          "lot.generate", "lot.runner", "service.dispatch",
          "service.schema", "service.cache", "service.render")

#: Layers whose calls per operation the traced run reports.
COUNTED = ("ifa.adjacency", "ifa.extract", "estimator", "classify")

_SERVING = re.compile(rb"serving on http://[^\s:]+:(\d+)")

#: Worker processes not yet reaped; killed if the run aborts.
_LIVE: set[subprocess.Popen] = set()


class BenchError(RuntimeError):
    """The workload could not be run to the end."""


class HostSpeed:
    """Scale factors from the host's current speed to the nominal one.

    Each :meth:`scale` times the reference loop once and compares the
    mean of that time and the previous one (which bracket the work done
    in between) with :data:`NOMINAL_REF_S`.
    """

    def __init__(self) -> None:
        self._last = self._reference()

    @staticmethod
    def _reference() -> float:
        started = time.perf_counter()
        total = 0
        table: dict[int, int] = {}
        for i in range(REF_ITERATIONS):
            total += i * i
            table[i & 1023] = total
        return time.perf_counter() - started

    def scale(self) -> float:
        """Factor turning times measured since the last call nominal."""
        now = self._reference()
        factor = 2.0 * NOMINAL_REF_S / (self._last + now)
        self._last = now
        return factor


@dataclass
class Measured:
    """What one run measured.

    Attributes:
        latencies: Seconds per operation, in order.
        slices: Scaled median latency of each slice (untraced runs).
        peak_mb: Peak resident set of the worker doing the work.
        failed: Operations whose output was wrong.
        problems: Descriptions of the wrong outputs.
        spans: Span tables (name -> [calls, total s, self s]).
        cache_hits / cache_misses: The service's own cache counters
            over the measured window.
    """

    latencies: list[float] = field(default_factory=list)
    slices: list[float] = field(default_factory=list)
    peak_mb: float = 0.0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    spans: list[dict[str, list]] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0


def _measure(operation: Callable[[], float], seconds: float,
             measured: Measured, speed: HostSpeed | None) -> None:
    """Run ``operation`` (which returns its latency) for ``seconds``."""
    group: list[float] = []
    deadline = time.perf_counter() + seconds
    while not measured.latencies or time.perf_counter() < deadline:
        latency = operation()
        measured.latencies.append(latency)
        group.append(latency)
        if speed is not None and sum(group) >= SLICE_S:
            measured.slices.append(statistics.median(group) * speed.scale())
            group = []
    if speed is not None and not measured.slices:
        measured.slices.append(statistics.median(group) * speed.scale())


# ----------------------------------------------------------------------
# Worker processes
# ----------------------------------------------------------------------
def _spawn(*args: str) -> subprocess.Popen:
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], cwd=ROOT,
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
    _LIVE.add(proc)
    return proc


def _reap(proc: subprocess.Popen) -> tuple[bytes, float]:
    """Read a worker's output to EOF and wait for it to end.

    Returns:
        Its standard output and its peak resident set in MB.
    """
    timer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    _LIVE.discard(proc)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(proc.args[2:])} exited with "
                         f"status {proc.returncode}")
    return out, usage.ru_maxrss / 1024.0


def _kill_live() -> None:
    for proc in list(_LIVE):
        proc.kill()
        proc.wait()
        _LIVE.discard(proc)


def _last_json(out: bytes) -> dict:
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


# ----------------------------------------------------------------------
# report / lot: one fresh process per operation
# ----------------------------------------------------------------------
def _run_processes(mode: str, rng: random.Random, seconds: float,
                   trace: int, setups: list[float]) -> Measured:
    speed = None if trace else HostSpeed()
    for _ in range(1 if trace else SETUP_REPEATS):
        started = time.perf_counter()
        _reap(_spawn("ready", "--workload", mode))
        elapsed = time.perf_counter() - started
        setups.append(elapsed * speed.scale() if speed else elapsed)

    measured = Measured()
    peaks: list[float] = []

    def operation() -> float:
        seed = str(rng.randrange(1 << 30))
        started = time.perf_counter()
        out, peak = _reap(_spawn(mode, "--seed", seed,
                                 "--trace", str(trace)))
        latency = time.perf_counter() - started
        peaks.append(peak)
        result = _last_json(out)
        measured.failed += bool(result["failed"])
        measured.problems += result["failed"]
        measured.spans.append(result["spans"])
        return latency

    _measure(operation, seconds, measured, speed)
    measured.peak_mb = statistics.median(peaks)
    return measured


# ----------------------------------------------------------------------
# service: repro serve in a child process, a closed-loop client here
# ----------------------------------------------------------------------
class Client:
    """One keep-alive HTTP/1.1 connection to the service."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=WORKER_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def request(self, method: str, path: str, body: bytes = b"",
                connection: str = "keep-alive",
                ) -> tuple[int, dict[str, str], bytes]:
        """Send one request; return status, headers and body."""
        self.sock.sendall(
            f"{method} {path} HTTP/1.1\r\nHost: e2ebench\r\n"
            f"Connection: {connection}\r\n"
            f"Content-Length: {len(body)}\r\n\r\n".encode("latin-1") + body)
        data = b""
        while (end := data.find(b"\r\n\r\n")) < 0:
            data += self._recv()
        lines = data[:end].decode("latin-1").split("\r\n")
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        payload = data[end + 4:]
        while len(payload) < int(headers.get("content-length", "0")):
            payload += self._recv()
        return int(lines[0].split()[1]), headers, payload

    def _recv(self) -> bytes:
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise BenchError("the service closed the connection")
        return chunk

    def cache_counters(self) -> tuple[int, int]:
        """The service's own response-cache (hits, misses)."""
        status, _, payload = self.request("GET", "/v1/health")
        if status != 200:
            raise BenchError(f"/v1/health answered {status}")
        cache = json.loads(payload)["cache"]
        return cache["hits"], cache["misses"]

    def close(self) -> None:
        """Let the server end the connection, so it is idle when stopped."""
        try:
            self.request("GET", "/v1/health", connection="close")
            while self.sock.recv(1 << 16):
                pass
        finally:
            self.sock.close()


def _start_server(trace: int) -> tuple[subprocess.Popen, Client, float]:
    """Start ``repro serve``; set-up ends at its first health answer."""
    started = time.perf_counter()
    proc = _spawn("serve", "--trace", str(trace))
    timer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        port = None
        for line in proc.stdout:
            match = _SERVING.search(line)
            if match:
                port = int(match.group(1))
                break
    finally:
        timer.cancel()
    if port is None:
        _reap(proc)
        raise BenchError("repro serve exited without listening")
    client = Client(port)
    client.cache_counters()
    return proc, client, time.perf_counter() - started


def _stop_server(proc: subprocess.Popen,
                 client: Client) -> tuple[bytes, float]:
    client.close()
    proc.send_signal(signal.SIGINT)
    return _reap(proc)


def _request_body(rng: random.Random) -> bytes:
    """One batch query: a bridge and an open estimate, random geometries."""
    queries = [{"geometry": {"rows": 64 * rng.randint(1, 1024),
                             "columns": 4 * rng.randint(1, 16),
                             "bits_per_word": rng.choice((4, 8, 16, 32))},
                "kind": kind}
               for kind in ("bridge", "open")]
    return json.dumps({"queries": queries}).encode("utf-8")


def _run_service(rng: random.Random, seconds: float, trace: int,
                 setups: list[float]) -> Measured:
    speed = None if trace else HostSpeed()
    proc = client = None
    for _ in range(1 if trace else SETUP_REPEATS):
        if proc is not None:
            _stop_server(proc, client)
        proc, client, elapsed = _start_server(trace)
        setups.append(elapsed * speed.scale() if speed else elapsed)

    seen: set[bytes] = set()
    measured = Measured()
    answered: list[tuple[bytes, bytes]] = []

    def operation() -> float:
        while (body := _request_body(rng)) in seen:
            pass
        seen.add(body)
        started = time.perf_counter()
        status, headers, payload = client.request("POST", "/v1/estimate",
                                                  body)
        latency = time.perf_counter() - started
        answered.append((body, payload))
        if status != 200 or headers.get("x-cache") != "miss":
            measured.failed += 1
            measured.problems.append(
                f"status {status}, X-Cache {headers.get('x-cache')!r} for "
                "a body never sent before")
        return latency

    if trace:
        proc.send_signal(signal.SIGUSR1)
    hits_before, misses_before = client.cache_counters()
    _measure(operation, seconds, measured, speed)
    hits_after, misses_after = client.cache_counters()
    measured.cache_hits = hits_after - hits_before
    measured.cache_misses = misses_after - misses_before
    out, measured.peak_mb = _stop_server(proc, client)
    measured.spans.append(_last_json(out)["spans"])

    # The service is a transport: its answers must be the bytes the
    # in-process estimator renders for the same queries.
    sample = rng.sample(answered, min(IDENTITY_SAMPLE, len(answered)))
    import worker

    expected = worker.expected_responses([body for body, _ in sample])
    for (body, served), want in zip(sample, expected):
        if served != want:
            measured.failed += 1
            measured.problems.append(
                f"response to {body.decode()} differs from the in-process "
                "estimator")
    return measured


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _end_to_end(measured: Measured, setups: list[float]) -> dict:
    return {
        "p50_ms": (1000.0 * statistics.median(measured.slices), "ms"),
        "peak_rss_mb": (measured.peak_mb, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }


def _per_layer(measured: Measured) -> dict:
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    for table in measured.spans:
        for name, (count, _total, self_s) in table.items():
            own[name] = own.get(name, 0.0) + self_s
            calls[name] = calls.get(name, 0) + count
    base = sum(measured.latencies)
    metrics = {f"{layer}.busy_pct": (100.0 * own.get(layer, 0.0) / base, "%")
               for layer in LAYERS}
    metrics["other.busy_pct"] = (
        100.0 - sum(value for value, _ in metrics.values()), "%")
    ops = len(measured.latencies)
    for layer in COUNTED:
        metrics[f"{layer}.calls_per_op"] = (calls.get(layer, 0) / ops,
                                            "count")
    probes = measured.cache_hits + measured.cache_misses
    metrics["service.cache_hit_pct"] = (
        100.0 * measured.cache_hits / probes if probes else 0.0, "%")
    metrics["ops"] = (ops, "count")
    return metrics


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload and return the result object."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    rng = random.Random(seed)
    setups: list[float] = []
    if workload in ("report", "lot"):
        measured = _run_processes(workload, rng, seconds, trace, setups)
    else:
        measured = _run_service(rng, seconds, trace, setups)
    for problem in measured.problems[:10]:
        print(f"e2ebench: {workload}: {problem}", file=sys.stderr)
    metrics = (_per_layer(measured) if trace
               else _end_to_end(measured, setups))
    return {
        "correct": measured.failed == 0,
        "attempted": len(measured.latencies),
        "failed": measured.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics of a traced run")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no repro sources under {ROOT / 'src'}; run from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"e2ebench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        _kill_live()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
