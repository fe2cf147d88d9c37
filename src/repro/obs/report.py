"""Run reports: fold a journal's event stream into a human summary.

:func:`build_report` replays a run journal (header meta plus ordered
:class:`~repro.obs.events.ObsEvent` stream) into one JSON-serialisable
report document; :func:`render_text` and :func:`render_json` format it
for terminals and machines respectively.  This is the read side of the
``repro report <journal>`` CLI.

The report is a pure function of the journal, which is itself a pure
function of what the campaign computed -- so reports inherit the
journal's determinism and a report regenerated from a resumed run (or
a pooled lot) matches the uninterrupted serial one.

Sections always render (with an explicit ``(none)`` marker when empty)
so downstream tooling -- ``scripts/check.sh`` greps for the quarantine
and demotion tables -- never has to distinguish "clean run" from
"section missing".
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.obs.events import ObsEvent
from repro.runner.atomic import canonical_json

__all__ = [
    "REPORT_SCHEMA",
    "REPORT_VERSION",
    "build_report",
    "render_json",
    "render_text",
]

#: Identity of the report document produced by :func:`build_report`.
REPORT_SCHEMA = "repro.run-report"

#: Version of the report document layout.
REPORT_VERSION = 1


def build_report(meta: dict[str, Any],
                 events: Iterable[ObsEvent]) -> dict[str, Any]:
    """Fold journal events into one report document.

    Args:
        meta: Journal header metadata (as returned by
            :func:`repro.obs.bus.read_journal`).
        events: The journal's events, in sequence order.

    Returns:
        A JSON-serialisable dict: run totals, per-condition unit
        table, retry / quarantine / batch-demotion tables, pool-supervision
        counters (worker losses, rebuilds, poison units), checkpoint
        activity and -- when present -- shmoo, streaming-experiment
        and estimator-service summaries.
    """
    events = list(events)
    totals: dict[str, Any] = {"events": len(events)}
    conditions: dict[str, dict[str, int]] = {}
    unit_condition: dict[str, str] = {}
    retries: dict[str, Any] = {"attempts": 0, "by_unit": {}}
    quarantines: list[dict[str, Any]] = []
    batch_demotions: list[dict[str, Any]] = []
    checkpoints = {"saves": 0, "resumes": 0}
    pool: dict[str, Any] = {"worker_losses": 0, "deadline_losses": 0,
                            "rebuilds": 0, "redispatched_units": 0,
                            "degraded_units": 0, "degraded": False,
                            "poison_units": []}
    database = {"discarded_corrupt_tmp": []}
    shmoo: dict[str, Any] | None = None
    experiment: dict[str, Any] | None = None
    service: dict[str, Any] | None = None
    sources: dict[str, int] = {}

    def service_section() -> dict[str, Any]:
        nonlocal service
        if service is None:
            service = {"requests": 0, "queries": 0, "cached": 0,
                       "by_status": {}, "cache_hits": 0, "rejects": {},
                       "reloads": []}
        return service

    for event in events:
        data = event.data
        if event.name == "run.start":
            totals["plan_units"] = data["plan_units"]
        elif event.name == "run.done":
            for key in ("executed_units", "resumed_units",
                        "quarantined_sites"):
                totals[key] = data[key]
        elif event.name == "unit.start":
            unit_condition[data["unit"]] = data["condition"]
        elif event.name == "unit.done":
            condition = data.get(
                "condition", unit_condition.get(data["unit"], "?"))
            row = conditions.setdefault(
                condition,
                {"units": 0, "detected": 0, "total": 0, "errors": 0})
            row["units"] += 1
            row["detected"] += data["detected"]
            row["total"] += data["total"]
            row["errors"] += data["errors"]
            sources[data["source"]] = sources.get(data["source"], 0) + 1
        elif event.name == "unit.retry":
            retries["attempts"] += 1
            by_unit = retries["by_unit"]
            by_unit[data["unit"]] = by_unit.get(data["unit"], 0) + 1
        elif event.name == "unit.quarantine":
            quarantines.append(dict(data))
        elif event.name == "checkpoint.save":
            checkpoints["saves"] += 1
        elif event.name == "checkpoint.resume":
            checkpoints["resumes"] += 1
        elif event.name == "pool.worker_lost":
            pool["worker_losses"] += 1
            if data["cause"] == "chunk-deadline":
                pool["deadline_losses"] += 1
        elif event.name == "pool.rebuild":
            pool["rebuilds"] += 1
        elif event.name == "pool.redispatch":
            pool["redispatched_units"] += data["units"]
        elif event.name == "pool.poison_unit":
            pool["poison_units"].append(dict(data))
        elif event.name == "pool.degrade_serial":
            pool["degraded"] = True
            pool["degraded_units"] += data["units"]
        elif event.name == "batch.demote":
            batch_demotions.append(dict(data))
        elif event.name == "database.discard_corrupt_tmp":
            database["discarded_corrupt_tmp"].append(dict(data))
        elif event.name == "shmoo.start":
            shmoo = {"voltages": data["voltages"],
                     "periods": data["periods"],
                     "rows": 0, "fallbacks": 0,
                     "tester_invocations": None}
        elif event.name == "shmoo.row" and shmoo is not None:
            shmoo["rows"] += 1
        elif event.name == "shmoo.fallback" and shmoo is not None:
            shmoo["fallbacks"] += 1
        elif event.name == "shmoo.done" and shmoo is not None:
            shmoo["tester_invocations"] = data["tester_invocations"]
        elif event.name == "experiment.shard":
            if experiment is None:
                experiment = {"shards": 0, "devices": 0, "defective": 0,
                              "interesting": 0, "standard_fails": None,
                              "shard_sources": {}}
            experiment["shards"] += 1
            experiment["devices"] += data["devices"]
            experiment["defective"] += data["defective"]
            experiment["interesting"] += data["interesting"]
            sources_row = experiment["shard_sources"]
            sources_row[data["source"]] = (
                sources_row.get(data["source"], 0) + 1)
        elif event.name == "service.request":
            row = service_section()
            row["requests"] += 1
            row["queries"] += data["queries"]
            if data["cached"]:
                row["cached"] += 1
            status = str(data["status"])
            row["by_status"][status] = row["by_status"].get(status, 0) + 1
        elif event.name == "service.cache_hit":
            service_section()["cache_hits"] += 1
        elif event.name == "service.reload":
            service_section()["reloads"].append(dict(data))
        elif event.name == "service.reject":
            rejects = service_section()["rejects"]
            rejects[data["reason"]] = rejects.get(data["reason"], 0) + 1
        elif event.name == "experiment.merge" and experiment is not None:
            # The merge event is authoritative (it carries the reduced
            # accumulator); per-shard sums above double as a
            # consistency cross-check for readers.
            experiment["devices"] = data["devices"]
            experiment["defective"] = data["defective"]
            experiment["interesting"] = data["interesting"]
            experiment["standard_fails"] = data["standard_fails"]

    return {
        "schema": REPORT_SCHEMA,
        "version": REPORT_VERSION,
        "meta": dict(meta),
        "totals": totals,
        "conditions": {name: conditions[name]
                       for name in sorted(conditions)},
        "sources": dict(sorted(sources.items())),
        "retries": retries,
        "quarantines": quarantines,
        "batch": {"demotions": batch_demotions},
        "pool": pool,
        "checkpoints": checkpoints,
        "database": database,
        "shmoo": shmoo,
        "experiment": experiment,
        "service": service,
    }


def render_json(report: dict[str, Any]) -> str:
    """The report as one canonical-JSON document (machine format)."""
    return canonical_json(report) + "\n"


def _table(header: list[str], rows: list[list[str]]) -> list[str]:
    """Left-aligned fixed-width text table (header + rows)."""
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    lines = [fmt.format(*header)]
    lines.extend(fmt.format(*row) for row in rows)
    return lines


def render_text(report: dict[str, Any]) -> str:
    """The report as a terminal-friendly multi-section summary."""
    lines: list[str] = []
    totals = report["totals"]
    lines.append(f"Run report ({report['schema']} v{report['version']})")
    if report["meta"]:
        meta_bits = ", ".join(
            f"{k}={v}" for k, v in sorted(report["meta"].items()))
        lines.append(f"meta: {meta_bits}")
    lines.append(
        "totals: plan={} executed={} resumed={} quarantined={}".format(
            totals.get("plan_units", "?"),
            totals.get("executed_units", "?"),
            totals.get("resumed_units", "?"),
            totals.get("quarantined_sites", "?")))

    lines.append("")
    lines.append("Per-condition units:")
    if report["conditions"]:
        rows = [[name, str(row["units"]), str(row["detected"]),
                 str(row["total"]), str(row["errors"])]
                for name, row in report["conditions"].items()]
        lines.extend("  " + ln for ln in _table(
            ["condition", "units", "detected", "total", "errors"], rows))
    else:
        lines.append("  (none)")

    retries = report["retries"]
    lines.append("")
    lines.append(
        f"Retries: {retries['attempts']} failed attempt(s) across "
        f"{len(retries['by_unit'])} unit(s)")
    for unit, count in sorted(retries["by_unit"].items()):
        lines.append(f"  {unit}: {count}")

    lines.append("")
    lines.append("Quarantines:")
    if report["quarantines"]:
        rows = [[q["unit"], str(q["site_index"]), str(q["attempts"]),
                 q["error"]] for q in report["quarantines"]]
        lines.extend("  " + ln for ln in _table(
            ["unit", "site", "attempts", "error"], rows))
    else:
        lines.append("  (none)")

    lines.append("")
    lines.append("Batch demotions:")
    if report["batch"]["demotions"]:
        rows = [[d["kind"], d["condition"], str(d["site_index"]),
                 d["reason"], d["stage"]]
                for d in report["batch"]["demotions"]]
        lines.extend("  " + ln for ln in _table(
            ["kind", "condition", "site", "reason", "stage"], rows))
    else:
        lines.append("  (none)")

    pool = report["pool"]
    lines.append("")
    lines.append(
        "Pool supervision: worker_losses={} (deadline={}) rebuilds={} "
        "redispatched_units={}{}".format(
            pool["worker_losses"], pool["deadline_losses"],
            pool["rebuilds"], pool["redispatched_units"],
            (f" DEGRADED-SERIAL units={pool['degraded_units']}"
             if pool["degraded"] else "")))
    lines.append("Poison units:")
    if pool["poison_units"]:
        rows = [[p["unit"], str(p["attempts"]), p["error"]]
                for p in pool["poison_units"]]
        lines.extend("  " + ln for ln in _table(
            ["unit", "attempts", "error"], rows))
    else:
        lines.append("  (none)")

    checkpoints = report["checkpoints"]
    lines.append("")
    lines.append("Checkpoints: saves={} resumes={}".format(
        checkpoints["saves"], checkpoints["resumes"]))
    for entry in report["database"]["discarded_corrupt_tmp"]:
        lines.append(
            f"Discarded corrupt database temp {entry['path']}: "
            f"{entry['error']}")

    shmoo = report["shmoo"]
    if shmoo is not None:
        lines.append("")
        lines.append(
            "Shmoo: grid={}x{} rows={} fallbacks={} "
            "tester_invocations={}".format(
                shmoo["voltages"], shmoo["periods"],
                shmoo["rows"], shmoo["fallbacks"],
                shmoo["tester_invocations"]))

    experiment = report.get("experiment")
    if experiment is not None:
        lines.append("")
        lines.append(
            "Streaming experiment: shards={} devices={} defective={} "
            "interesting={} standard_fails={}".format(
                experiment["shards"], experiment["devices"],
                experiment["defective"], experiment["interesting"],
                experiment["standard_fails"]))
        source_bits = ", ".join(
            f"{name}={count}" for name, count in
            sorted(experiment["shard_sources"].items()))
        lines.append(f"  shard sources: {source_bits}")

    service = report.get("service")
    if service is not None:
        lines.append("")
        status_bits = ", ".join(
            f"{status}={count}" for status, count in
            sorted(service["by_status"].items()))
        lines.append(
            "Service: requests={} queries={} cache_hits={} "
            "cached_responses={}".format(
                service["requests"], service["queries"],
                service["cache_hits"], service["cached"]))
        lines.append(f"  by status: {status_bits or '(none)'}")
        reject_bits = ", ".join(
            f"{reason}={count}" for reason, count in
            sorted(service["rejects"].items()))
        lines.append(f"  rejected connections: {reject_bits or '(none)'}")
        lines.append("  reloads:")
        if service["reloads"]:
            for entry in service["reloads"]:
                bits = "{}: etag={}".format(
                    entry["outcome"], entry["etag"][:12])
                if "error" in entry:
                    bits += f" error={entry['error']}"
                lines.append(f"    {bits}")
        else:
            lines.append("    (none)")
    return "\n".join(lines) + "\n"
