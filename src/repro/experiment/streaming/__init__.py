"""Streaming sharded experiment engine (10^6 -- 10^7 devices).

Map-reduce over the Veqtor4 virtual-silicon experiment: a
deterministic :class:`ShardPlan` splits the device space into
block-aligned shards with independent RNG substreams, each shard's
:class:`~repro.experiment.streaming.engine.ShardEvaluator` generates
only defective chips (vectorised per block) and folds classifications
into an :class:`~repro.experiment.classify.ExperimentAccumulator`, and
:class:`StreamingRunner`
merges shard payloads in plan order -- O(classes) memory end to end,
with checkpoint/resume, journals and the supervised process pool
underneath.  See ``docs/performance.md`` ("Streaming
million-device experiment") and ``EXPERIMENTS.md``.
"""

from repro.experiment.streaming.engine import (
    ShardEvaluator,
    StreamingExperiment,
)
from repro.experiment.streaming.plan import (
    DEFAULT_BLOCK_DEVICES,
    DEFAULT_SHARD_DEVICES,
    SCHEMES,
    ShardPlan,
    ShardUnit,
)
from repro.experiment.streaming.runner import StreamingResult, StreamingRunner

__all__ = [
    "DEFAULT_BLOCK_DEVICES",
    "DEFAULT_SHARD_DEVICES",
    "SCHEMES",
    "ShardEvaluator",
    "ShardPlan",
    "ShardUnit",
    "StreamingExperiment",
    "StreamingResult",
    "StreamingRunner",
]
