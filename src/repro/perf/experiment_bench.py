"""``experiment`` benchmark suite: throughput, memory, invariance.

Rows of ``BENCH_experiment.json`` (harness, schema and floors:
:mod:`repro.perf.bench`).  Six measurements, every equivalence checked
byte-identical (canonical JSON of the shard-payload form) before any
number is reported:

* **streaming** -- a full
  :class:`~repro.experiment.streaming.engine.StreamingExperiment` run
  at the configured device count (10^6 by default), timed serially
  on a warmed engine: the headline ``devices_per_sec`` figure, with the
  one-off engine set-up reported beside it as ``setup_seconds``;
* **memory** -- ``tracemalloc`` peaks of two streaming runs that differ
  only in device count: the O(classes) reduce means the peak must be a
  function of the shard/block shape, not of N (``memory_independent``);
* **legacy** -- the whole-lot Figure 11 path
  (:meth:`PopulationGenerator.generate` +
  :meth:`StressClassifier.classify`) timed at an equal, smaller N
  against the streaming path: ``speedup``;
* **legacy_identical** -- ``scheme="legacy"`` streaming folds the exact
  single-stream draw order, so its accumulator payload must equal the
  payload of the whole-lot path's accumulator;
* **shard_invariant** -- the same population reduced under a different
  shard layout must produce a byte-identical payload (the
  block-substream contract);
* **pool** -- the lot at the configured pool size (10^7 by default)
  timed end to end, engine set-up included, serially and on the
  supervised pool with one worker per visible CPU (at least two):
  ``speedup``, as measured, with ``worker_invariant`` checking the
  pooled payload against the serial one.  The pool is the only one
  left in the library; this row is the measurement that keeps it.
"""

from __future__ import annotations

import os
import statistics
import time
import tracemalloc
from dataclasses import dataclass
from typing import Any

from repro.defects.models import DefectKind
from repro.experiment.streaming.engine import StreamingExperiment
from repro.experiment.streaming.runner import StreamingRunner
from repro.runner.atomic import canonical_json

#: Timed runs per side of the equal-N legacy comparison (see
#: :func:`_bench_legacy`).
EQUAL_N_REPEATS = 5

#: Timed runs per side of the serial-vs-pool comparison (see
#: :func:`_bench_pool`).
POOL_REPEATS = 3


@dataclass(frozen=True)
class ExperimentBenchConfig:
    """Shape of the streaming-experiment benchmark.

    Attributes:
        devices: Population of the headline streaming run.
        seed: Root RNG seed (every half shares it).
        shard_devices: Shard size of the timed runs.
        alt_shard_devices: Second shard size for the invariance check.
        memory_devices: Device counts of the two tracemalloc probes.
        legacy_devices: Equal-N size of the legacy-vs-streaming timing
            (the legacy path draws the whole lot in one scalar-order
            pass, so this stays small enough to keep the benchmark
            seconds-scale).
        invariance_devices: Size of the shard-invariance runs.
        pool_devices: Size of the serial-vs-pool timing.  The pool
            width is not configurable: one worker per visible CPU, at
            least two, recorded in the row.
    """

    devices: int = 1_000_000
    seed: int = 1105
    shard_devices: int = 65_536
    alt_shard_devices: int = 16_384
    memory_devices: tuple[int, int] = (262_144, 1_048_576)
    legacy_devices: int = 40_960
    invariance_devices: int = 131_072
    pool_devices: int = 10_000_000

    @classmethod
    def quick(cls) -> "ExperimentBenchConfig":
        """A seconds-scale configuration for CI smoke runs.

        Every half shrinks but keeps the same structure: the
        invariance and identity checks are exact regardless of N, and
        the throughput/speedup floors are structural (vectorised block
        generation vs per-chip Python), not population-dependent.
        """
        return cls(devices=65_536,
                   shard_devices=16_384,
                   alt_shard_devices=8_192,
                   memory_devices=(32_768, 131_072),
                   legacy_devices=8_192,
                   invariance_devices=32_768,
                   pool_devices=131_072)

    def __post_init__(self) -> None:
        small, large = self.memory_devices
        if small >= large:
            raise ValueError(
                "memory_devices must be (small, large) with small < "
                f"large, got {self.memory_devices}")


def _engine(config: ExperimentBenchConfig, n_devices: int,
            shard_devices: int | None = None,
            scheme: str = "spawn") -> StreamingExperiment:
    """A fresh engine sharing the benchmark's seed and shard shape."""
    return StreamingExperiment(
        n_devices=n_devices,
        seed=config.seed,
        shard_devices=(shard_devices if shard_devices is not None
                       else config.shard_devices),
        scheme=scheme)


def _payload(config: ExperimentBenchConfig, n_devices: int,
             shard_devices: int | None = None, workers: int = 1,
             scheme: str = "spawn") -> dict[str, Any]:
    """Run a streaming experiment and return its canonical payload."""
    runner = StreamingRunner(
        _engine(config, n_devices, shard_devices, scheme),
        workers=workers)
    return runner.run().accumulator.as_payload()


def _warm(engine: StreamingExperiment) -> None:
    """Build an engine's one-off setup outside any benchmark clock.

    Classifier/tester construction and the extractor's site draw
    tables are identical fixed costs on the legacy and streaming
    sides; at small equal-N they would dominate both timings and
    flatten the per-device difference the speedup figure measures.
    """
    engine.classifier
    for kind in DefectKind:
        engine.extractor.draw_table(kind)


def _bench_streaming(config: ExperimentBenchConfig) -> dict[str, Any]:
    """Time the headline serial streaming run: devices/sec.

    The engine is warmed before the clock starts, as in
    :func:`_bench_legacy`: the one-off set-up (classifier, tester,
    site draw tables) does not scale with the lot, and at a
    small device count it would swamp the per-device rate the headline
    measures.  It is timed too, and reported as ``setup_seconds``.
    """
    engine = _engine(config, config.devices)
    started = time.perf_counter()
    _warm(engine)
    setup_seconds = time.perf_counter() - started
    runner = StreamingRunner(engine)
    started = time.perf_counter()
    result = runner.run()
    seconds = time.perf_counter() - started
    acc = result.accumulator
    return {
        "devices": acc.devices,
        "defective": acc.defective,
        "interesting": acc.interesting,
        "shards": result.executed_shards,
        "setup_seconds": round(setup_seconds, 6),
        "seconds": round(seconds, 6),
        "devices_per_sec": round(acc.devices / seconds, 1),
    }


def _peak_bytes(config: ExperimentBenchConfig, n_devices: int) -> int:
    """tracemalloc peak of one streaming run (numpy blocks included)."""
    tracemalloc.start()
    try:
        StreamingRunner(_engine(config, n_devices)).run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def _bench_memory(config: ExperimentBenchConfig) -> dict[str, Any]:
    """Peak-RSS probe: same shard shape, two device counts.

    Both runs stream the same 65k-device shards, so the per-shard
    working set (one block's count matrix, the shard's defect arrays
    joined for its one classification call, and their fail-bit words)
    is identical; only the O(classes) accumulator and the O(n_shards)
    plan differ.  A peak that grows with N -- a ``peak_ratio`` above
    its ``FLOORS`` ceiling -- means something is materialising the lot.
    """
    from repro.perf.bench import FLOORS  # the harness imports this module

    _, max_ratio = FLOORS[("experiment", "memory_peak_ratio")]
    small_n, large_n = config.memory_devices
    small_peak = _peak_bytes(config, small_n)
    large_peak = _peak_bytes(config, large_n)
    ratio = round(large_peak / max(1, small_peak), 3)
    return {
        "small_devices": small_n,
        "large_devices": large_n,
        "small_peak_bytes": small_peak,
        "large_peak_bytes": large_peak,
        "peak_ratio": ratio,
        "memory_independent": ratio <= max_ratio,
    }


def _bench_legacy(config: ExperimentBenchConfig) -> dict[str, Any]:
    """Equal-N legacy vs streaming timing plus the identity check.

    The legacy half is the whole-lot pipeline exactly as `repro venn`
    runs it: draw the lot as one block, then classify it.  The
    identity half re-folds the same single-stream draw order through
    ``scheme="legacy"`` streaming and compares canonical payloads.

    Both engines are warmed (classifier, tester, site draw tables)
    before their clocks start: those are shared one-off
    setup costs, identical on both sides, and at the small equal-N
    this comparison runs at they would otherwise swamp the per-device
    evaluation costs the speedup figure exists to measure.

    Each side is timed :data:`EQUAL_N_REPEATS` times, alternating, and
    reports its median: a single run of either side swings up to 2x
    with where the garbage collector happens to fire, which made a
    one-shot ratio at the quick size range from 4.4x to 9.6x.
    """
    n = config.legacy_devices
    legacy_engine = _engine(config, n, scheme="legacy")
    generator = legacy_engine.generator
    classifier = legacy_engine.classifier
    streaming_engine = _engine(config, n)
    _warm(legacy_engine)
    _warm(streaming_engine)
    legacy_runs: list[float] = []
    streaming_runs: list[float] = []
    for _ in range(EQUAL_N_REPEATS):
        started = time.perf_counter()
        legacy_result = classifier.classify(generator.generate())
        legacy_runs.append(time.perf_counter() - started)
        runner = StreamingRunner(streaming_engine)
        started = time.perf_counter()
        runner.run()
        streaming_runs.append(time.perf_counter() - started)
    legacy_seconds = statistics.median(legacy_runs)
    streaming_seconds = statistics.median(streaming_runs)
    legacy_payload = legacy_result.as_payload()

    identity_payload = _payload(config, n, scheme="legacy")
    legacy_identical = (canonical_json(identity_payload)
                        == canonical_json(legacy_payload))
    if not legacy_identical:
        raise RuntimeError(
            "scheme='legacy' streaming diverged from the materialised "
            "legacy pipeline -- the equivalence oracle is broken")
    return {
        "devices": n,
        "repeats": EQUAL_N_REPEATS,
        "legacy_seconds": round(legacy_seconds, 6),
        "streaming_seconds": round(streaming_seconds, 6),
        "speedup": (round(legacy_seconds / streaming_seconds, 2)
                    if streaming_seconds else None),
        "legacy_identical": legacy_identical,
    }


def _bench_invariance(config: ExperimentBenchConfig) -> dict[str, Any]:
    """Shard-layout invariance at a shared N."""
    n = config.invariance_devices
    base = _payload(config, n)
    resharded = _payload(config, n,
                         shard_devices=config.alt_shard_devices)
    shard_invariant = canonical_json(base) == canonical_json(resharded)
    if not shard_invariant:
        raise RuntimeError(
            "streaming results changed with the shard layout -- the "
            "block-substream contract is broken")
    return {
        "devices": n,
        "shard_devices": [config.shard_devices,
                          config.alt_shard_devices],
        "shard_invariant": shard_invariant,
    }


def _bench_pool(config: ExperimentBenchConfig) -> dict[str, Any]:
    """Serial vs supervised-pool lot: ``speedup`` and the worker check.

    Each side runs a fresh engine end to end, set-up included, because
    every pool worker rebuilds the engine it unpickles: that cost is
    the pool's to pay.  The sides alternate :data:`POOL_REPEATS` times
    and report their medians; the last payload of each side feeds
    ``worker_invariant``.
    """
    n = config.pool_devices
    workers = max(2, os.cpu_count() or 1)
    runs: dict[int, list[float]] = {1: [], workers: []}
    payloads: dict[int, dict[str, Any]] = {}
    for _ in range(POOL_REPEATS):
        for width in runs:
            started = time.perf_counter()
            payloads[width] = _payload(config, n, workers=width)
            runs[width].append(time.perf_counter() - started)
    worker_invariant = (canonical_json(payloads[1])
                        == canonical_json(payloads[workers]))
    if not worker_invariant:
        raise RuntimeError(
            "pooled streaming results diverged from serial -- the "
            "block-substream contract is broken")
    serial = statistics.median(runs[1])
    pooled = statistics.median(runs[workers])
    return {
        "devices": n,
        "repeats": POOL_REPEATS,
        "workers": workers,
        "serial_seconds": round(serial, 6),
        "pooled_seconds": round(pooled, 6),
        "speedup": round(serial / pooled, 3),
        "worker_invariant": worker_invariant,
    }


def run_experiment(config: ExperimentBenchConfig) -> dict[str, Any]:
    """Run all streaming-experiment measurements.

    Args:
        config: Benchmark shape (the default streams 10^6 devices and
            times the pool at 10^7).

    Returns:
        The ``rows`` of the ``experiment`` document: ``streaming``,
        ``memory``, ``legacy``, ``invariance`` and ``pool``.

    Raises:
        RuntimeError: an invariance or identity check failed -- a
            determinism bug that must fail loudly, never be recorded
            as a benchmark row.
    """
    return {"streaming": _bench_streaming(config),
            "memory": _bench_memory(config),
            "legacy": _bench_legacy(config),
            "invariance": _bench_invariance(config),
            "pool": _bench_pool(config)}
