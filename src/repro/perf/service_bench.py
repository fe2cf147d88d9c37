"""``service`` benchmark suite: latency, throughput, cache behaviour.

Rows of ``BENCH_service.json`` (harness, schema and floors:
:mod:`repro.perf.bench`; field guide: ``docs/service.md``).  The suite
starts a real :func:`repro.service.app.serve` listener on an ephemeral
loopback port and drives it over one keep-alive HTTP connection -- the
measured latencies include request parsing, dispatch, rendering and
the socket round-trip, exactly what a client of ``repro serve`` sees.

Three measurements:

* **cold** -- every unique request body once, against an empty cache
  and a fresh snapshot: all responses must be ``X-Cache: miss`` (the
  estimator is actually computing, and the first request builds its
  per-kind coverage tables); p50/p99 latency and requests/sec of the
  uncached path;
* **warm** -- the same bodies repeated: every response must be
  ``X-Cache: hit`` (the warm hit rate is pinned to exactly 1.0 -- one
  miss means the content-addressed key leaked something
  non-deterministic into the request identity);
* **identity** -- each unique response body compared byte-for-byte
  against the document an in-process
  :class:`~repro.core.estimator.FaultCoverageEstimator` produces for
  the same queries (``byte_identical``): the service is a transport,
  never a reinterpretation.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass
from typing import Any

from repro.core.database import default_database_path
from repro.memory.geometry import MemoryGeometry
from repro.runner.atomic import canonical_json
from repro.service.app import EstimatorService, serve
from repro.service.schema import batch_response_document, report_document
from repro.service.state import DatabaseSnapshot, ServiceState


@dataclass(frozen=True)
class ServiceBenchConfig:
    """Shape of the estimator-service benchmark.

    Attributes:
        unique_requests: Distinct request bodies (distinct geometries),
            i.e. the cold-pass request count and the cache population.
        warm_repeats: How many times the warm pass replays each body.
        queries_per_request: Batch width of every request body.
        cache_size: Service response-cache capacity; must hold every
            unique body or the warm pass cannot be all-hits.
    """

    unique_requests: int = 96
    warm_repeats: int = 5
    queries_per_request: int = 2
    cache_size: int = 1024

    @classmethod
    def quick(cls) -> "ServiceBenchConfig":
        """A sub-second configuration for CI smoke runs.

        Fewer bodies and repeats, same structure: the hit-rate and
        byte-identity checks are exact regardless of scale, and the
        warm-throughput floor is structural (cache lookup vs estimator
        compute), not sample-count-dependent.  The cold pass keeps 64
        bodies so that the first request's coverage-table build
        (~10 ms) does not dominate the cold-throughput floor.
        """
        return cls(unique_requests=64, warm_repeats=3)

    def __post_init__(self) -> None:
        if self.unique_requests < 1 or self.warm_repeats < 1:
            raise ValueError(
                "unique_requests and warm_repeats must be >= 1, got "
                f"{self.unique_requests} and {self.warm_repeats}")
        if self.cache_size < self.unique_requests:
            raise ValueError(
                f"cache_size {self.cache_size} cannot hold "
                f"{self.unique_requests} unique requests -- the warm "
                "pass would evict its own entries")


def _request_bodies(config: ServiceBenchConfig,
                    kinds: list[str]) -> list[bytes]:
    """The unique request bodies: distinct geometries, cycled kinds."""
    bodies = []
    for i in range(config.unique_requests):
        queries = []
        for j in range(config.queries_per_request):
            k = i * config.queries_per_request + j
            queries.append({
                "geometry": {"rows": 128 * (k % 64 + 1),
                             "columns": 4 + 4 * (k // 64 % 4),
                             "bits_per_word": 8},
                "kind": kinds[k % len(kinds)],
            })
        bodies.append(json.dumps({"queries": queries}).encode("utf-8"))
    return bodies


def _percentile_ms(latencies: list[float], q: float) -> float:
    """Nearest-rank percentile of a latency sample, in milliseconds."""
    ranked = sorted(latencies)
    index = min(len(ranked) - 1, max(0, round(q * len(ranked)) - 1))
    return round(ranked[index] * 1000.0, 3)


async def _roundtrip(reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter,
                     body: bytes) -> tuple[float, dict[str, str], bytes]:
    """One timed POST /v1/estimate over an open keep-alive connection."""
    request = (f"POST /v1/estimate HTTP/1.1\r\nHost: bench\r\n"
               f"Content-Length: {len(body)}\r\n\r\n"
               ).encode("latin-1") + body
    started = time.perf_counter()
    writer.write(request)
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    headers: dict[str, str] = {}
    for line in head.decode("latin-1").split("\r\n")[1:]:
        if line:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
    payload = await reader.readexactly(int(headers["content-length"]))
    return time.perf_counter() - started, headers, payload


def _pass_stats(latencies: list[float], hits: int) -> dict[str, Any]:
    """Fold one pass's samples into its report row."""
    seconds = sum(latencies)
    return {
        "requests": len(latencies),
        "cache_hits": hits,
        "hit_rate": round(hits / len(latencies), 6),
        "seconds": round(seconds, 6),
        "qps": round(len(latencies) / seconds, 1) if seconds else None,
        "p50_ms": _percentile_ms(latencies, 0.50),
        "p99_ms": _percentile_ms(latencies, 0.99),
    }


def _expected_body(snapshot: DatabaseSnapshot, body: bytes) -> bytes:
    """What an in-process estimator renders for one request body."""
    results = []
    for query in json.loads(body)["queries"]:
        geometry = MemoryGeometry(**query["geometry"])
        report = snapshot.estimator.estimate(geometry, query["kind"])
        results.append(report_document(report))
    doc = batch_response_document(snapshot.etag, results)
    return canonical_json(doc).encode("utf-8") + b"\n"


async def _drive(service: EstimatorService,
                 config: ServiceBenchConfig,
                 bodies: list[bytes]) -> dict[str, Any]:
    """Run the cold and warm passes against a live listener."""
    server = await serve(service)
    port = server.sockets[0].getsockname()[1]
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        cold_latencies: list[float] = []
        cold_hits = 0
        responses: list[bytes] = []
        for body in bodies:
            elapsed, headers, payload = await _roundtrip(
                reader, writer, body)
            cold_latencies.append(elapsed)
            cold_hits += headers.get("x-cache") == "hit"
            responses.append(payload)
        warm_latencies: list[float] = []
        warm_hits = 0
        for _ in range(config.warm_repeats):
            for body in bodies:
                elapsed, headers, payload = await _roundtrip(
                    reader, writer, body)
                warm_latencies.append(elapsed)
                warm_hits += headers.get("x-cache") == "hit"
        return {
            "cold": _pass_stats(cold_latencies, cold_hits),
            "warm": _pass_stats(warm_latencies, warm_hits),
            "responses": responses,
        }
    finally:
        writer.close()
        server.close()
        await server.wait_closed()


def run_service(config: ServiceBenchConfig) -> dict[str, Any]:
    """Run the cold, warm and identity passes.

    Args:
        config: Benchmark shape.

    Returns:
        The ``rows`` of the ``service`` document: ``cold``, ``warm``
        and ``identity``.

    Raises:
        RuntimeError: a cold response was served from cache, a warm
            response missed, or a response body diverged from the
            in-process estimator -- contract bugs that must fail
            loudly, never be recorded as a benchmark row.
    """
    snapshot = DatabaseSnapshot.load(default_database_path())
    service = EstimatorService(ServiceState(snapshot),
                               cache_size=config.cache_size)
    bodies = _request_bodies(config, snapshot.database.kinds())
    measured = asyncio.run(_drive(service, config, bodies))
    cold, warm = measured["cold"], measured["warm"]
    if cold["cache_hits"]:
        raise RuntimeError(
            f"{cold['cache_hits']} cold response(s) came from the "
            "cache -- the unique request bodies collided")
    if warm["hit_rate"] != 1.0:
        raise RuntimeError(
            f"warm hit rate {warm['hit_rate']} != 1.0 -- the "
            "content-addressed cache key is unstable across identical "
            "requests")
    mismatches = sum(
        served != _expected_body(snapshot, body)
        for body, served in zip(bodies, measured["responses"]))
    if mismatches:
        raise RuntimeError(
            f"{mismatches} response body(ies) diverged from the "
            "in-process estimator -- the byte-identity contract is "
            "broken")
    return {
        "cold": cold,
        "warm": warm,
        "identity": {"checked_requests": len(bodies),
                     "byte_identical": True},
    }
