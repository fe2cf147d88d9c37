"""Typed request/response schema of the estimator service.

One module owns every byte that crosses the wire:

* :func:`parse_request` turns a ``POST /v1/estimate`` body into a
  validated :class:`BatchRequest` -- every defect is rejected with a
  :class:`RequestError` carrying a stable kebab-case ``code`` (the
  service maps it to a 400-level response whose body names the code
  and the offending field);
* :func:`report_document` is the canonical JSON projection of an
  in-process :class:`~repro.core.estimator.EstimatorReport` -- the
  service's acceptance contract is that a batch response is
  *byte-identical* to :func:`repro.runner.atomic.canonical_json` of
  these documents, so a client can verify any response against a local
  :class:`~repro.core.estimator.FaultCoverageEstimator`;
* :class:`EstimateFragments` renders the same bytes without building
  the documents: one kind's per-condition coverage text is rendered
  once per database snapshot, and a query splices its geometry, yield
  and DPMs between those fragments (:func:`render_batch` wraps the
  results into the response body).  :func:`report_document` stays the
  oracle the fragments are tested against;
* :meth:`BatchRequest.canonical_body` is the normalised canonical
  request body -- defaults filled in, keys sorted -- that keys the
  response cache together with the database checksum, so two
  requests differing only in JSON key order or float spelling share a
  cache entry.

Wire reference with examples: ``docs/service.md``.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Any

from repro.core.database import CoverageRow
from repro.core.estimator import EstimatorReport, condition_dpms
from repro.memory.geometry import MemoryGeometry
from repro.runner.atomic import canonical_json

__all__ = [
    "MAX_QUERIES",
    "RESPONSE_SCHEMA",
    "RESPONSE_VERSION",
    "BatchRequest",
    "EstimateFragments",
    "EstimateQuery",
    "RequestError",
    "batch_response_document",
    "error_document",
    "parse_request",
    "render_batch",
    "report_document",
]

#: Identity of the batch-response document.
RESPONSE_SCHEMA = "repro.service-response"
RESPONSE_VERSION = 1

#: Upper bound on queries per batch request: a request is one unit of
#: admission control, and an unbounded batch would let a single POST
#: monopolise the single-threaded event loop.
MAX_QUERIES = 256

#: Defect kinds the estimator accepts (mirrors
#: :meth:`FaultCoverageEstimator.estimate`).
_KINDS = ("bridge", "open")

#: The complete field set of one query object.  Anything else is a
#: typo the client should hear about, not silently ignore.
_QUERY_FIELDS = frozenset(
    {"geometry", "kind", "conditions", "yield_fraction"})
_GEOMETRY_FIELDS = frozenset(
    {"rows", "columns", "bits_per_word", "blocks"})


class RequestError(ValueError):
    """A request failed schema validation (a named 400-level error).

    Attributes:
        code: Stable kebab-case error identifier (e.g. ``bad-json``,
            ``bad-geometry``, ``unknown-kind``).  Part of the wire
            contract -- clients may branch on it.
        detail: Human-readable description naming the offending field.
        status: HTTP status the service responds with (400 for schema
            defects, 404 for names absent from the database).
    """

    def __init__(self, code: str, detail: str, status: int = 400) -> None:
        self.code = code
        self.detail = detail
        self.status = status
        super().__init__(f"{code}: {detail}")


@dataclass(frozen=True)
class EstimateQuery:
    """One validated estimator query of a batch request.

    Attributes:
        geometry: The queried memory organisation.
        kind: Defect kind ("bridge" or "open").
        conditions: Optional condition-name filter; ``None`` reports
            the database's full suite.  Filtering happens *after*
            estimation, so ``dpm_normalised`` stays normalised against
            the whole suite's best condition (the paper's "1x").
        yield_fraction: Optional yield override in ``(0, 1]``; derived
            from area x D0 when ``None``.
    """

    geometry: MemoryGeometry
    kind: str = "bridge"
    conditions: tuple[str, ...] | None = None
    yield_fraction: float | None = None

    def as_document(self) -> dict[str, Any]:
        """The normalised JSON form (defaults made explicit)."""
        return {
            "geometry": {
                "rows": self.geometry.rows,
                "columns": self.geometry.columns,
                "bits_per_word": self.geometry.bits_per_word,
                "blocks": self.geometry.blocks,
            },
            "kind": self.kind,
            "conditions": (list(self.conditions)
                           if self.conditions is not None else None),
            "yield_fraction": self.yield_fraction,
        }


@dataclass(frozen=True)
class BatchRequest:
    """A validated batch of estimator queries.

    Attributes:
        queries: The queries, in request order (responses preserve it).
    """

    queries: tuple[EstimateQuery, ...]

    def canonical_body(self) -> str:
        """The normalised request as canonical JSON.

        This -- not the raw wire bytes -- is the request half of the
        response-cache key: key order, whitespace and ``1`` vs ``1.0``
        spellings all collapse onto one entry.
        """
        return canonical_json(
            {"queries": [q.as_document() for q in self.queries]})


def _require_int(doc: dict[str, Any], field: str, where: str) -> int:
    """A positive-int geometry field or a ``bad-geometry`` error."""
    value = doc.get(field)
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise RequestError(
            "bad-geometry",
            f"{where}: geometry field {field!r} must be a positive "
            f"integer, got {value!r}")
    return value


def _parse_geometry(doc: Any, where: str) -> MemoryGeometry:
    """Validate one query's ``geometry`` object."""
    if not isinstance(doc, dict):
        raise RequestError(
            "bad-geometry",
            f"{where}: 'geometry' must be an object with rows/columns/"
            f"bits_per_word[/blocks], got {type(doc).__name__}")
    unknown = sorted(set(doc) - _GEOMETRY_FIELDS)
    if unknown:
        raise RequestError(
            "bad-geometry",
            f"{where}: unknown geometry field(s) "
            f"{', '.join(repr(f) for f in unknown)}")
    rows = _require_int(doc, "rows", where)
    columns = _require_int(doc, "columns", where)
    bits = _require_int(doc, "bits_per_word", where)
    blocks = _require_int(doc, "blocks", where) if "blocks" in doc else 1
    return MemoryGeometry(rows, columns, bits, blocks)


def _parse_conditions(value: Any, where: str) -> tuple[str, ...] | None:
    """Validate one query's optional ``conditions`` filter."""
    if value is None:
        return None
    if (not isinstance(value, list) or not value
            or not all(isinstance(c, str) and c for c in value)):
        raise RequestError(
            "bad-conditions",
            f"{where}: 'conditions' must be a non-empty list of "
            f"condition names (or omitted), got {value!r}")
    return tuple(value)


def _parse_yield(value: Any, where: str) -> float | None:
    """Validate one query's optional ``yield_fraction`` override."""
    if value is None:
        return None
    if (not isinstance(value, (int, float)) or isinstance(value, bool)
            or not 0.0 < value <= 1.0):
        raise RequestError(
            "bad-yield",
            f"{where}: 'yield_fraction' must be a number in (0, 1], "
            f"got {value!r}")
    return float(value)


def _parse_query(doc: Any, index: int) -> EstimateQuery:
    """Validate one entry of the ``queries`` array."""
    where = f"queries[{index}]"
    if not isinstance(doc, dict):
        raise RequestError(
            "bad-query",
            f"{where}: must be an object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - _QUERY_FIELDS)
    if unknown:
        raise RequestError(
            "bad-query",
            f"{where}: unknown field(s) "
            f"{', '.join(repr(f) for f in unknown)}; "
            f"allowed: {', '.join(sorted(_QUERY_FIELDS))}")
    if "geometry" not in doc:
        raise RequestError(
            "bad-geometry", f"{where}: missing required field 'geometry'")
    kind = doc.get("kind", "bridge")
    if kind not in _KINDS:
        raise RequestError(
            "bad-kind",
            f"{where}: 'kind' must be one of {list(_KINDS)}, "
            f"got {kind!r}")
    return EstimateQuery(
        geometry=_parse_geometry(doc["geometry"], where),
        kind=kind,
        conditions=_parse_conditions(doc.get("conditions"), where),
        yield_fraction=_parse_yield(doc.get("yield_fraction"), where),
    )


def parse_request(body: bytes | str) -> BatchRequest:
    """Validate a ``POST /v1/estimate`` body into a :class:`BatchRequest`.

    Args:
        body: Raw request body (UTF-8 bytes or text).

    Returns:
        The validated batch, query order preserved.

    Raises:
        RequestError: any schema defect, with a stable ``code`` --
            ``bad-json``, ``not-an-object``, ``missing-queries``,
            ``empty-queries``, ``too-many-queries``, ``bad-query``,
            ``bad-geometry``, ``bad-kind``, ``bad-conditions`` or
            ``bad-yield``.
    """
    if isinstance(body, bytes):
        try:
            body = body.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise RequestError(
                "bad-json", f"body is not valid UTF-8 ({exc})") from exc
    try:
        doc = json.loads(body)
    except json.JSONDecodeError as exc:
        raise RequestError(
            "bad-json", f"body is not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise RequestError(
            "not-an-object",
            f"body must be a JSON object, got {type(doc).__name__}")
    if "queries" not in doc:
        raise RequestError(
            "missing-queries", "body is missing the 'queries' array")
    queries = doc["queries"]
    if not isinstance(queries, list):
        raise RequestError(
            "missing-queries",
            f"'queries' must be an array, got {type(queries).__name__}")
    if not queries:
        raise RequestError("empty-queries", "'queries' is empty")
    if len(queries) > MAX_QUERIES:
        raise RequestError(
            "too-many-queries",
            f"'queries' has {len(queries)} entries; the batch limit "
            f"is {MAX_QUERIES}")
    unknown = sorted(set(doc) - {"queries"})
    if unknown:
        raise RequestError(
            "not-an-object",
            f"unknown top-level field(s) "
            f"{', '.join(repr(f) for f in unknown)}")
    return BatchRequest(tuple(_parse_query(q, i)
                              for i, q in enumerate(queries)))


def report_document(report: EstimatorReport,
                    conditions: tuple[str, ...] | None = None,
                    ) -> dict[str, Any]:
    """The canonical JSON projection of one estimator report.

    This is the byte-identity contract: the service's per-query result
    equals this function applied to the equivalent in-process
    :meth:`FaultCoverageEstimator.estimate` call.

    Args:
        report: The in-process estimator output.
        conditions: Optional filter; estimates are re-ordered to the
            requested names.  Normalisation is untouched (it was
            computed against the full suite).

    Returns:
        A JSON-serialisable document; ``fault_coverage`` maps become
        sorted ``[resistance, coverage]`` pair lists (JSON object keys
        must be strings).

    Raises:
        RequestError: a requested condition is absent from the report
            (code ``unknown-condition``, status 404).
    """
    if conditions is None:
        estimates = list(report.estimates)
    else:
        by_name = {e.condition: e for e in report.estimates}
        missing = [c for c in conditions if c not in by_name]
        if missing:
            raise _unknown_condition(missing, by_name, report.kind)
        estimates = [by_name[c] for c in conditions]
    return {
        "kind": report.kind,
        "geometry": {
            "rows": report.geometry.rows,
            "columns": report.geometry.columns,
            "bits_per_word": report.geometry.bits_per_word,
            "blocks": report.geometry.blocks,
        },
        "yield_fraction": report.yield_fraction,
        "estimates": [
            {
                "condition": e.condition,
                "fault_coverage": _coverage_pairs(e.fault_coverage),
                "defect_coverage": e.defect_coverage,
                "dpm": e.dpm,
                "dpm_normalised": e.dpm_normalised,
                "relative_coverage": e.relative_coverage,
            }
            for e in estimates
        ],
    }


def _coverage_pairs(fault_coverage: dict[float, float],
                    ) -> list[list[float]]:
    """A ``fault_coverage`` map as sorted ``[resistance, coverage]``
    pairs (JSON object keys must be strings)."""
    return [[r, fault_coverage[r]] for r in sorted(fault_coverage)]


def _unknown_condition(missing: list[str], suite: Iterable[str],
                       kind: str) -> RequestError:
    """The ``unknown-condition`` 404 for names absent from ``suite``."""
    return RequestError(
        "unknown-condition",
        f"condition(s) {', '.join(repr(c) for c in missing)} "
        f"not in the database suite {sorted(suite)} for kind={kind!r}",
        status=404)


def _json_float(value: float) -> str:
    """``value`` spelled as :func:`json.dumps` spells a float."""
    if math.isfinite(value):
        return repr(value)
    if value != value:
        return "NaN"
    return "Infinity" if value > 0 else "-Infinity"


@dataclass(frozen=True)
class EstimateFragments:
    """One defect kind's estimate text, rendered once per snapshot.

    A query's result differs from another's of the same kind only in
    its geometry, its yield and each condition's two DPM numbers.  The
    rest of each estimate object -- condition name, defect coverage,
    ``fault_coverage`` pairs, relative coverage; most of a response's
    bytes -- is canonical JSON text here, split around the DPMs.
    :meth:`render` splices one query's numbers between the fragments;
    the text equals ``canonical_json(report_document(report,
    conditions))`` for the equivalent
    :meth:`~repro.core.estimator.FaultCoverageEstimator.estimate` call.

    Attributes:
        kind: The defect kind.
        table: The kind's coverage rows, in suite order (their defect
            coverages give each query's DPMs).
        heads: Per row, the estimate object up to ``"dpm":``.
        tails: Per row, the estimate object from ``,"fault_coverage":``
            to its closing brace.
        index: Condition name -> row position.
    """

    kind: str
    table: tuple[CoverageRow, ...]
    heads: tuple[str, ...]
    tails: tuple[str, ...]
    index: dict[str, int]

    @classmethod
    def build(cls, kind: str,
              table: tuple[CoverageRow, ...]) -> "EstimateFragments":
        """Render ``table``'s fragments.

        ``canonical_json`` sorts keys, so an estimate object reads
        ``condition``, ``defect_coverage``, ``dpm``, ``dpm_normalised``,
        ``fault_coverage``, ``relative_coverage``: the two per-query
        numbers sit between a head and a tail.
        """
        heads = tuple(
            canonical_json({"condition": row.condition,
                            "defect_coverage": row.defect_coverage})[:-1]
            + ',"dpm":'
            for row in table)
        tails = tuple(
            "," + canonical_json({
                "fault_coverage": _coverage_pairs(dict(row.fault_coverage)),
                "relative_coverage": row.relative_coverage})[1:]
            for row in table)
        return cls(kind, table, heads, tails,
                   {row.condition: i for i, row in enumerate(table)})

    def render(self, query: EstimateQuery, yield_fraction: float) -> str:
        """One query's result object as canonical JSON text.

        Args:
            query: A validated query of this kind.
            yield_fraction: The query's resolved yield
                (:meth:`~repro.core.estimator.FaultCoverageEstimator.
                yield_for`).

        Raises:
            RequestError: a requested condition is absent from the
                suite (``unknown-condition``, 404, the same body as
                :func:`report_document`'s).
        """
        dpms = condition_dpms(yield_fraction, self.table)
        if query.conditions is None:
            order: range | list[int] = range(len(self.table))
        else:
            missing = [c for c in query.conditions if c not in self.index]
            if missing:
                raise _unknown_condition(missing, self.index, self.kind)
            order = [self.index[c] for c in query.conditions]
        estimates = ",".join(
            f'{self.heads[i]}{_json_float(dpms[i][0])},"dpm_normalised":'
            f'{_json_float(dpms[i][1])}{self.tails[i]}'
            for i in order)
        g = query.geometry
        # The kind is one of ``_KINDS``: plain ASCII, no escaping.
        return (f'{{"estimates":[{estimates}],"geometry":{{'
                f'"bits_per_word":{g.bits_per_word},"blocks":{g.blocks},'
                f'"columns":{g.columns},"rows":{g.rows}}},'
                f'"kind":"{self.kind}",'
                f'"yield_fraction":{_json_float(yield_fraction)}}}')


def batch_response_document(etag: str,
                            results: list[dict[str, Any]],
                            ) -> dict[str, Any]:
    """Assemble the full batch-response document.

    Args:
        etag: Fingerprint digest of the serving database snapshot
            (also sent as the ``ETag`` header).
        results: Per-query :func:`report_document` outputs, in request
            order.
    """
    return {
        "schema": RESPONSE_SCHEMA,
        "version": RESPONSE_VERSION,
        "etag": etag,
        "results": results,
    }


#: The batch-response object after its ``results`` array.
_BATCH_TAIL = "]," + canonical_json(
    {"schema": RESPONSE_SCHEMA, "version": RESPONSE_VERSION})[1:]


def render_batch(etag: str, results: list[str]) -> bytes:
    """The response body over :meth:`EstimateFragments.render` results.

    Byte-identical to the canonical JSON (plus newline) of
    :func:`batch_response_document` over the equivalent
    :func:`report_document` outputs.  ``etag`` is a hex digest, so it
    needs no escaping.
    """
    return (f'{{"etag":"{etag}","results":['
            f'{",".join(results)}{_BATCH_TAIL}\n').encode("utf-8")


def error_document(code: str, detail: str) -> dict[str, Any]:
    """The error-response body: ``{"error": {"code", "detail"}}``."""
    return {"error": {"code": code, "detail": detail}}
