"""Streaming test lots drawn in a chosen RNG block size.

A lot's block size is ``repro.experiment.streaming.engine``'s
``DEFAULT_BLOCK_DEVICES``, read once when the lot is built and kept in
``plan.block_devices`` (workers get it with the pickled plan), so the
constant is patched around the construction only.
"""

from __future__ import annotations

import contextlib
from collections.abc import Iterator

import pytest

from repro.experiment.streaming import engine


@contextlib.contextmanager
def block_devices(devices: int) -> Iterator[None]:
    """Lots built inside the block draw RNG blocks of ``devices``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "DEFAULT_BLOCK_DEVICES", devices)
        yield


def blocked_lot(devices: int, **kwargs) -> engine.StreamingExperiment:
    """A :class:`StreamingExperiment` in RNG blocks of ``devices``."""
    with block_devices(devices):
        return engine.StreamingExperiment(**kwargs)
