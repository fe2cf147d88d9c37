"""Streaming lot payloads pinned byte for byte, however the lot runs.

A 65 536-device lot at three seeds, in four 16 384-device shards of four
RNG blocks each, is reduced to the canonical JSON of its accumulator
payload and hashed.  The serial run, the 2-worker pool, a run resumed
from a checkpoint after its first shard and a 2-worker run whose worker
dies on the second shard must all hash to the same digest; a diagnosed
run and the ``scheme="legacy"`` single-stream run have their own.  Any
change to the draws, the classification or the fold -- or to their
order -- shows up as a digest mismatch.
"""

import hashlib

import pytest

from repro.experiment.streaming.engine import StreamingExperiment
from repro.experiment.streaming.runner import StreamingRunner
from repro.runner.atomic import canonical_json
from repro.runner.chaos import WORKER_EXIT_SITE, FaultInjector
from repro.runner.checkpoint import CampaignCheckpoint

N_DEVICES = 65_536
SHARD_DEVICES = 16_384
SEEDS = (1, 7, 2005)

#: SHA-256 of each seed's canonical-JSON lot payload: the spawn-scheme
#: lot (serial, pooled, resumed and chaotic runs alike), the same lot
#: with ``diagnose=True``, and the ``scheme="legacy"`` lot.  Regenerate
#: (only for a deliberate change to the lot's numbers, named with its
#: reason in CHANGES.md) with::
#:
#:   PYTHONPATH=src:. python -c "from tests.experiment.test_lot_golden \
#:   import golden_digests; print(golden_digests())"
GOLDEN_DIGESTS = {
    1: {
        "spawn": "df914d232d5f30f8559b2442dd8e6104"
                 "5cb17c370367d469fe8c29995a89b84d",
        "diagnose": "3590ce53c72991d1ef0ec014faf7758a"
                    "780b478952f9b5576addce1bfda58088",
        "legacy": "2c629fe36a0d4692d845a21720246db1"
                  "e3036550e90a99b9a15c194ffaf6f1cb",
    },
    7: {
        "spawn": "7a5aa58bb84bdb2a1028ffe81c05cb93"
                 "35979a17d7734f149dffe139732667f4",
        "diagnose": "b43d9525a269325add26ce54fd5fa118"
                    "d648fbcd4370a348deccdb28433d338a",
        "legacy": "38324ee336b13ea09d26a43b9a07835c"
                  "9c698b4c963cc1c59c3d3de8e2a17ef9",
    },
    2005: {
        "spawn": "917fa3a89eaffd7fdaaec5c90b724bdf"
                 "753dddf21f6cc64861de98aba9e108eb",
        "diagnose": "d765035fd0d836f9eef2081d0cd25739"
                    "3dfb900f69b978e06829260070f53df0",
        "legacy": "6ae5f92d8f24dd2cf202d63513ea6c4e"
                  "7d14c45efcebd8c8696cb43eace64c06",
    },
}


def _engine(seed, **kwargs):
    return StreamingExperiment(n_devices=N_DEVICES, seed=seed,
                               shard_devices=SHARD_DEVICES, **kwargs)


def _serial(seed, tmp_path):
    return StreamingRunner(_engine(seed)).run()


def _pooled(seed, tmp_path):
    return StreamingRunner(_engine(seed), workers=2).run()


def _resumed(seed, tmp_path):
    """Run checkpointed, rewind to "killed after one shard", resume."""
    path = tmp_path / "lot.ckpt.json"
    StreamingRunner(_engine(seed), checkpoint_path=path).run()
    done = CampaignCheckpoint.load(path)
    engine = _engine(seed)
    first = engine.plan.shards()[0].unit_id
    partial = CampaignCheckpoint(engine.meta())
    partial.record_unit(first, done.result_for(first))
    partial.save(path)
    result = StreamingRunner(engine, checkpoint_path=path).run()
    assert (result.resumed_shards, result.executed_shards) == (1, 3)
    return result


def _chaotic(seed, tmp_path):
    victim = _engine(seed).plan.shards()[1].unit_id
    engine = _engine(seed, injector=FaultInjector(
        worker_faults={WORKER_EXIT_SITE: {victim: 1}}))
    result = StreamingRunner(engine, workers=2).run()
    assert result.supervisor_stats["worker_losses"] >= 1
    assert result.quarantine == []
    return result


def _diagnosed(seed, tmp_path):
    return StreamingRunner(_engine(seed, diagnose=True)).run()


def _legacy(seed, tmp_path):
    return StreamingRunner(_engine(seed, scheme="legacy")).run()


#: Each run and the golden lot whose digest it must reproduce.
RUNS = {
    "serial": ("spawn", _serial),
    "workers=2": ("spawn", _pooled),
    "resumed": ("spawn", _resumed),
    "chaotic": ("spawn", _chaotic),
    "diagnose": ("diagnose", _diagnosed),
    "legacy": ("legacy", _legacy),
}


def _digest(result) -> str:
    text = canonical_json(result.accumulator.as_payload())
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def golden_digests() -> dict[int, dict[str, str]]:
    """Each seed's digest of the serial, diagnosed and legacy lots."""
    return {seed: {lot: _digest(run(seed, None))
                   for lot, run in (("spawn", _serial),
                                    ("diagnose", _diagnosed),
                                    ("legacy", _legacy))}
            for seed in SEEDS}


@pytest.mark.parametrize("run", RUNS)
@pytest.mark.parametrize("seed", SEEDS)
def test_lot_payload_matches_golden_digest(seed, run, tmp_path):
    lot, evaluate = RUNS[run]
    assert _digest(evaluate(seed, tmp_path)) == GOLDEN_DIGESTS[seed][lot]
