"""Content fingerprints: deterministic identities of JSON-able state.

The estimator service (:mod:`repro.service`) answers from one coverage
database at a time; its HTTP ``ETag`` -- and the database half of every
response-cache key -- is :func:`fingerprint_digest` of the database's
records, so any change to any row yields a new identity and a reload
implicitly invalidates every cached response.

:func:`fingerprint_document` turns a value into a deterministic,
canonical JSON document.  Fingerprinting is structural: dataclasses,
enums, primitives, containers and plain attribute-holding objects are
walked recursively.  Objects that cannot be canonicalised (RNG handles,
callables, open files...) raise :class:`FingerprintError` -- refusing
to name an identity beats naming an incomplete one.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
from typing import Any

from repro.runner.atomic import canonical_json

#: Attribute prefixes skipped when walking plain objects: private state
#: (memoisation caches, lazily built tables) is derived, not identity.
_PRIVATE_PREFIX = "_"


class FingerprintError(TypeError):
    """An evaluation input cannot be canonicalised into a fingerprint.

    Raised instead of guessing: an identity built from an incomplete
    fingerprint would not change when the un-fingerprintable part
    does.  The message names the offending attribute path.
    """


def fingerprint_document(obj: Any, _path: str = "$",
                         _seen: frozenset[int] = frozenset()) -> Any:
    """Convert ``obj`` into a deterministic JSON-serialisable document.

    Supported shapes: ``None``/``bool``/``int``/``float``/``str``,
    enums (class + value), dataclasses (class + fields), mappings with
    string keys, sequences, sets (sorted), numpy scalars and arrays,
    and plain objects (class + public attributes, recursively).

    Args:
        obj: The value to canonicalise.
        _path: Attribute path accumulated for error messages.
        _seen: Object ids on the current recursion path (cycle guard).

    Returns:
        A JSON-serialisable structure that is equal for equal inputs
        and differs whenever any reachable public state differs.

    Raises:
        FingerprintError: ``obj`` (or something reachable from it)
            cannot be canonicalised, or the structure is cyclic.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        # repr round-trips exactly; avoids JSON float re-encoding drift.
        # Coerce first: numpy.float64 subclasses float but reprs as
        # "np.float64(x)", which would fork the key space.
        return ["f", repr(float(obj))]
    if isinstance(obj, enum.Enum):
        return ["enum", type(obj).__qualname__, obj.value]
    # numpy scalars/arrays without importing numpy eagerly.
    item = getattr(obj, "item", None)
    if item is not None and type(obj).__module__.startswith("numpy"):
        tolist = getattr(obj, "tolist", None)
        value = tolist() if tolist is not None else item()
        return fingerprint_document(value, _path, _seen)
    if id(obj) in _seen:
        raise FingerprintError(f"{_path}: cyclic structure "
                               f"({type(obj).__qualname__})")
    seen = _seen | {id(obj)}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {
            f.name: fingerprint_document(getattr(obj, f.name),
                                         f"{_path}.{f.name}", seen)
            for f in dataclasses.fields(obj)
        }
        return ["dc", type(obj).__qualname__, fields]
    if isinstance(obj, dict):
        out = {}
        for key in sorted(obj, key=str):
            if not isinstance(key, str):
                raise FingerprintError(
                    f"{_path}: mapping key {key!r} is not a string")
            out[key] = fingerprint_document(obj[key], f"{_path}[{key!r}]",
                                            seen)
        return out
    if isinstance(obj, (list, tuple)):
        return [fingerprint_document(v, f"{_path}[{i}]", seen)
                for i, v in enumerate(obj)]
    if isinstance(obj, (set, frozenset)):
        members = [fingerprint_document(v, f"{_path}{{}}", seen)
                   for v in obj]
        return ["set", sorted(members, key=canonical_json)]
    attrs = getattr(obj, "__dict__", None)
    if isinstance(attrs, dict):
        fields = {
            name: fingerprint_document(value, f"{_path}.{name}", seen)
            for name, value in sorted(attrs.items())
            if not name.startswith(_PRIVATE_PREFIX)
        }
        return ["obj", type(obj).__qualname__, fields]
    raise FingerprintError(
        f"{_path}: cannot fingerprint {type(obj).__qualname__!r} "
        "(no dataclass fields, no public __dict__)")


def fingerprint_digest(obj: Any) -> str:
    """SHA-256 hex digest of :func:`fingerprint_document` of ``obj``."""
    doc = fingerprint_document(obj)
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()
