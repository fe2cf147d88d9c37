"""Crash-safe file writes: write-temp, fsync, atomic rename.

The paper's deployment model ships a "database with pre-calculated
simulation results" to customers; a truncated JSON produced by a crash
mid-``write_text`` silently poisons every later estimate.  This module
is the single place the library writes durable artefacts:

1. serialise into ``<path>.tmp`` (same directory, so the rename below
   stays on one filesystem);
2. ``flush`` + ``os.fsync`` the temp file (data reaches the platter
   before the rename makes it visible);
3. ``os.replace`` onto the destination (atomic on POSIX and Windows);
4. best-effort ``fsync`` of the directory entry.

A crash before step 3 leaves the previous file intact; a crash after
leaves the new file complete.  Readers therefore never observe a
half-written artefact -- at worst a stale one plus a ``.tmp`` sibling,
which :mod:`repro.runner.checkpoint` and
:mod:`repro.core.database` know how to recover from.

Every durable payload is wrapped in an envelope carrying a schema
version and a SHA-256 checksum of the canonicalised body, so corruption
that *does* slip through (bit rot, hand edits, partial copies) is
detected at load time instead of surfacing as a baffling ``KeyError``
three layers up.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from pathlib import Path
from typing import Any, Callable

#: Suffix of the intermediate file; also the recovery source when the
#: destination is corrupt but the temp survived a crash-after-write.
TMP_SUFFIX = ".tmp"

FaultHook = Callable[[str], None]


def temp_path_for(path: str | Path) -> Path:
    """The sibling temp file used by :func:`atomic_write_text`."""
    path = Path(path)
    return path.with_name(path.name + TMP_SUFFIX)


def atomic_write_text(path: str | Path, text: str,
                      fault_hook: FaultHook | None = None) -> None:
    """Durably replace ``path`` with ``text`` (write-fsync-rename).

    Args:
        path: Destination file.
        text: Full new content.
        fault_hook: Optional chaos hook (see :mod:`repro.runner.chaos`)
            called at the labelled crash points ``io.write``,
            ``io.fsync`` and ``io.replace``; a hook that raises
            simulates a crash at exactly that point and, like a
            kill, leaves the temp file behind.

    Raises:
        OSError: a real write, fsync or rename failed (``path`` is a
            directory, the disk is full, ...); the temp file is
            removed first.
    """
    path = Path(path)
    tmp = temp_path_for(path)
    if fault_hook is not None:
        fault_hook("io.write")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            if fault_hook is not None:
                fault_hook("io.fsync")
            os.fsync(fh.fileno())
        if fault_hook is not None:
            fault_hook("io.replace")
        os.replace(tmp, path)
    except OSError:
        with contextlib.suppress(OSError):  # the original error wins
            tmp.unlink()
        raise
    _fsync_dir(path.parent)


def _fsync_dir(directory: Path) -> None:
    """Best-effort directory fsync (persists the rename itself)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


# ----------------------------------------------------------------------
# Versioned + checksummed JSON envelopes
# ----------------------------------------------------------------------
def canonical_json(body: Any) -> str:
    """Deterministic serialisation used for checksums and payloads."""
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def body_checksum(body: Any) -> str:
    """SHA-256 hex digest of the canonicalised body."""
    return hashlib.sha256(canonical_json(body).encode("utf-8")).hexdigest()


def wrap_envelope(schema: str, version: int, body: Any) -> dict[str, Any]:
    """Wrap a JSON body with schema identity and integrity checksum."""
    return {
        "schema": schema,
        "version": version,
        "checksum": body_checksum(body),
        "body": body,
    }


class EnvelopeError(ValueError):
    """A JSON envelope failed structural or integrity validation."""


def unwrap_envelope(payload: Any, schema: str,
                    max_version: int) -> tuple[int, Any]:
    """Validate an envelope and return ``(version, body)``.

    Raises:
        EnvelopeError: wrong shape, wrong schema name, unsupported
            version, or checksum mismatch.  The message states the
            specific defect; callers prepend the file path.
    """
    if not isinstance(payload, dict):
        raise EnvelopeError(
            f"expected an envelope object, got {type(payload).__name__}")
    for key in ("schema", "version", "checksum", "body"):
        if key not in payload:
            raise EnvelopeError(f"envelope is missing the {key!r} key")
    if payload["schema"] != schema:
        raise EnvelopeError(
            f"schema mismatch: expected {schema!r}, "
            f"found {payload['schema']!r}")
    version = payload["version"]
    if not isinstance(version, int) or not 1 <= version <= max_version:
        raise EnvelopeError(
            f"unsupported schema version {version!r} "
            f"(this build reads versions 1..{max_version})")
    actual = body_checksum(payload["body"])
    if actual != payload["checksum"]:
        raise EnvelopeError(
            "checksum mismatch: payload is corrupt "
            f"(stored {str(payload['checksum'])[:12]}..., "
            f"computed {actual[:12]}...)")
    return version, payload["body"]
