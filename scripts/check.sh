#!/usr/bin/env bash
# CI / pre-commit gate: style lint, type check, domain lint, docs links,
# benchmark smoke, tier-1 tests.
#
#   scripts/check.sh            # full sequence
#   STRICT_LINT=1 scripts/check.sh   # repro lint treats warnings as errors
#
# ruff and mypy are skipped with a notice when not installed (offline
# images bake only the runtime toolchain); the pytest tier-1 suite, the
# repro-lint smoke, the docs link check and the benchmark-schema smoke
# always run.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

status=0

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff =="
    ruff check src tests || status=$?
else
    echo "== ruff == (not installed; skipped)"
fi

if command -v mypy >/dev/null 2>&1; then
    echo "== mypy =="
    mypy || status=$?
else
    echo "== mypy == (not installed; skipped)"
fi

echo "== repro lint =="
lint_flags=()
if [ "${STRICT_LINT:-0}" = "1" ]; then
    lint_flags+=(--strict)
fi
python -m repro lint "${lint_flags[@]}" || status=$?

echo "== repro lint code (determinism / IO / observability rules) =="
python -m repro lint "${lint_flags[@]}" code src tests benchmarks scripts \
    || status=$?

echo "== docs (dead-link check) =="
python scripts/check_links.py || status=$?

echo "== docs (public docstrings: runner / perf / obs / lint.code / service) =="
python scripts/check_docstrings.py || status=$?

echo "== benchmark smoke (every suite: --quick run, then schema/checks/floors) =="
for suite in fastpath experiment service; do
    bench_out="$(mktemp /tmp/bench_smoke.XXXXXX.json)"
    python benchmarks/perf/bench.py "$suite" --quick --out "$bench_out" \
        && python benchmarks/perf/bench.py --validate "$bench_out" \
        || status=$?
    rm -f "$bench_out"
done

echo "== committed benchmark artefacts (every BENCH_*.json validates) =="
for artefact in BENCH_*.json; do
    python benchmarks/perf/bench.py --validate "$artefact" || status=$?
done

echo "== service smoke (repro serve: estimate/cache/reload-reject chain) =="
svc_db="$(mktemp /tmp/service_smoke_db.XXXXXX.json)"
svc_journal="$(mktemp /tmp/service_smoke.XXXXXX.jsonl)"
svc_log="$(mktemp /tmp/service_smoke_log.XXXXXX.txt)"
python -m repro campaign run --rows 8 --columns 2 --bits 4 --sites 40 \
    --save-db "$svc_db" >/dev/null || status=$?
python -m repro serve --db "$svc_db" --port 0 --journal "$svc_journal" \
    >"$svc_log" 2>&1 &
svc_pid=$!
svc_port=""
for _ in $(seq 1 100); do
    svc_port="$(sed -n 's#^serving on http://127.0.0.1:##p' "$svc_log")"
    [ -n "$svc_port" ] && break
    sleep 0.1
done
if [ -z "$svc_port" ]; then
    echo "service smoke: server never announced its port"
    cat "$svc_log"
    status=1
else
    python - "$svc_port" "$svc_db" <<'PYEOF' || status=$?
import json
import socket
import sys

port, db = int(sys.argv[1]), sys.argv[2]


def http(method, path, body=b""):
    s = socket.create_connection(("127.0.0.1", port))
    s.sendall((f"{method} {path} HTTP/1.1\r\nHost: smoke\r\n"
               f"Content-Length: {len(body)}\r\n"
               "Connection: close\r\n\r\n").encode() + body)
    data = b""
    while chunk := s.recv(65536):
        data += chunk
    s.close()
    head, _, payload = data.partition(b"\r\n\r\n")
    headers = {}
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.decode().partition(":")
        headers[name.strip().lower()] = value.strip()
    return int(head.split(b" ")[1]), headers, payload


status, _, payload = http("GET", "/v1/health")
assert status == 200, (status, payload)
body = json.dumps({"queries": [{"geometry": {
    "rows": 8, "columns": 2, "bits_per_word": 4},
    "kind": "bridge"}]}).encode()
s1, h1, p1 = http("POST", "/v1/estimate", body)
assert s1 == 200 and h1["x-cache"] == "miss", (s1, h1)
s2, h2, p2 = http("POST", "/v1/estimate", body)
assert s2 == 200 and h2["x-cache"] == "hit" and p1 == p2, (s2, h2)
s3, _, p3 = http("POST", "/v1/reload")
assert s3 == 200 and json.loads(p3)["outcome"] == "unchanged", p3
with open(db, "r+") as fh:
    fh.write("corrupt!")
s4, _, p4 = http("POST", "/v1/reload")
assert s4 == 409 and json.loads(p4)["outcome"] == "rejected", (s4, p4)
s5, _, p5 = http("POST", "/v1/estimate", body)
assert s5 == 200 and p5 == p1, "old snapshot must keep serving"
print("service smoke: estimate/cache/reload-reject chain ok")
PYEOF
fi
kill "$svc_pid" 2>/dev/null || true
if ! wait "$svc_pid"; then
    echo "service smoke: repro serve did not exit 0 on SIGTERM"
    cat "$svc_log"
    status=1
fi
for event in service.request service.reload; do
    if ! grep -qF "\"$event\"" "$svc_journal"; then
        echo "service smoke: journal missing $event event"
        status=1
    fi
done
rm -f "$svc_db" "$svc_journal" "$svc_log"

echo "== streaming-experiment smoke (experiment run --journal -> repro report) =="
exp_journal="$(mktemp /tmp/experiment_smoke.XXXXXX.jsonl)"
python -m repro experiment run --devices 8192 --shard-devices 4096 \
    --journal "$exp_journal" >/dev/null || status=$?
# The journal must carry the full experiment.shard -> experiment.merge
# event chain (one shard event per shard, one merge), and the text
# report must render the streaming section from it.
python - "$exp_journal" <<'PYEOF' || status=$?
import json, sys
events = []
with open(sys.argv[1]) as fh:
    for line in fh:
        record = json.loads(line)
        if "event" in record:
            events.append(record)
shards = [e for e in events if e["event"] == "experiment.shard"]
merges = [e for e in events if e["event"] == "experiment.merge"]
assert len(shards) == 2, f"expected 2 experiment.shard events, got {len(shards)}"
assert [e["data"]["shard"] for e in shards] == [0, 1], "shard events out of plan order"
assert len(merges) == 1, f"expected 1 experiment.merge event, got {len(merges)}"
assert merges[0]["data"]["devices"] == 8192, merges[0]["data"]
print("experiment journal: shard/merge chain ok,", len(events), "events")
PYEOF
exp_report="$(python -m repro report "$exp_journal")" || status=$?
if ! grep -qF "Streaming experiment:" <<<"$exp_report"; then
    echo "experiment smoke: report missing 'Streaming experiment:' section"
    status=1
fi
rm -f "$exp_journal"

echo "== shmoo smoke (repro shmoo --journal -> repro report) =="
# Every shmoo traces its boundary: the CLI prints the trace line, and a
# stock preset never needs the exhaustive refill.
shmoo_journal="$(mktemp /tmp/shmoo_smoke.XXXXXX.jsonl)"
shmoo_out="$(python -m repro shmoo --defect rail-bridge \
    --journal "$shmoo_journal")" || status=$?
shmoo_report="$(python -m repro report "$shmoo_journal")" || status=$?
if ! grep -q '^boundary trace: ' <<<"$shmoo_out"; then
    echo "shmoo smoke: output missing the 'boundary trace:' line"
    status=1
fi
if ! grep -q '^Shmoo: .* fallbacks=0 ' <<<"$shmoo_report"; then
    echo "shmoo smoke: report missing 'fallbacks=0' in its Shmoo line"
    status=1
fi
rm -f "$shmoo_journal"

# A checkpointed lot saves after every shard; run twice, the second run
# replays every shard from the checkpoint and prints the same lot.
# The lot summary: every printed line but the run banner and the pool
# and journal notes (devices, Venn classes, escape DPM).
lot_summary() { sed -e '1d' -e '/^pool supervision:/d' -e '/^run journal:/d'; }
exp_ckpt="$(mktemp /tmp/experiment_smoke_ckpt.XXXXXX.json)"
rm -f "$exp_ckpt"   # experiment run wants to create it
ckpt_args=(--devices 8192 --shard-devices 4096 --checkpoint "$exp_ckpt"
           --journal "$exp_journal")
first_lot="$(python -m repro experiment run "${ckpt_args[@]}")" || status=$?
saves="$(grep -cF '"checkpoint.save"' "$exp_journal" || true)"
if [ "$saves" != "2" ]; then
    echo "experiment smoke: expected 2 checkpoint.save events (one per shard), got $saves"
    status=1
fi
second_lot="$(python -m repro experiment run "${ckpt_args[@]}")" || status=$?
if ! grep -qF "2 resumed from checkpoint" <<<"$second_lot"; then
    echo "experiment smoke: second checkpointed run did not resume both shards"
    status=1
fi
if [ "$(lot_summary <<<"$first_lot")" != "$(lot_summary <<<"$second_lot")" ] \
        || ! grep -q '^devices: 8192 ' <<<"$first_lot"; then
    echo "experiment smoke: resumed lot summary differs from the first run"
    status=1
fi
rm -f "$exp_journal" "$exp_ckpt"

echo "== fast-path equivalence markers =="
# Every guarded fast path must name the test file that proves it
# byte-identical to its exact path -- and that file must exist.
for module in src/repro/perf/batch.py src/repro/tester/shmoo.py \
              src/repro/experiment/streaming/engine.py \
              src/repro/ifa/critical_area.py \
              src/repro/ifa/extraction.py \
              src/repro/defects/distribution.py \
              src/repro/defects/behavior.py; do
    marker="$(grep -o 'Exact-path equivalence: [^ ]*' "$module" || true)"
    if [ -z "$marker" ]; then
        echo "$module: missing 'Exact-path equivalence: <test file>' marker"
        status=1
        continue
    fi
    test_file="${marker#Exact-path equivalence: }"
    if [ ! -f "$test_file" ]; then
        echo "$module: equivalence test '$test_file' does not exist"
        status=1
    fi
done

echo "== run-journal smoke (campaign --journal -> repro report) =="
journal_out="$(mktemp /tmp/journal_smoke.XXXXXX.jsonl)"
ckpt_out="$(mktemp /tmp/journal_smoke_ckpt.XXXXXX.json)"
rm -f "$ckpt_out"   # campaign run wants to create it
python -m repro campaign run --rows 8 --columns 2 --bits 4 --sites 60 \
    --checkpoint "$ckpt_out" --journal "$journal_out" >/dev/null \
    || status=$?
# The text report must always render the failure-forensics sections
# (with "(none)" when clean), and the JSON report must validate.
report_txt="$(python -m repro report "$journal_out")" || status=$?
for section in "Quarantines:" "Batch demotions:"; do
    if ! grep -qF "$section" <<<"$report_txt"; then
        echo "journal report: missing '$section' section"
        status=1
    fi
done
python -m repro report "$journal_out" --format json \
    | python -c '
import json, sys
rep = json.loads(sys.stdin.read())
assert rep["schema"] == "repro.run-report", rep["schema"]
assert rep["totals"]["plan_units"] > 0
assert rep["totals"]["executed_units"] + rep["totals"]["resumed_units"] \
    == rep["totals"]["plan_units"]
print("journal report: schema ok,", rep["totals"]["events"], "events")
' || status=$?
rm -f "$journal_out" "$ckpt_out"

echo "== chaos-campaign smoke (an injected campaign keeps the grid path) =="
# The injector is probed per site and attempt, but the kernel still
# answers every group: the chaos run prints the plain run's batch:
# line, and with nothing quarantined it writes the same database.
chaos_dir="$(mktemp -d /tmp/chaos_campaign_smoke.XXXXXX)"
campaign_args=(--rows 8 --columns 2 --bits 4 --sites 60)
plain_out="$(python -m repro campaign run "${campaign_args[@]}" \
    --save-db "$chaos_dir/A")" || status=$?
chaos_out="$(python -m repro campaign run "${campaign_args[@]}" \
    --chaos-rate 0.05 --chaos-seed 1 --max-attempts 4 \
    --save-db "$chaos_dir/B")" || status=$?
faults="$(sed -n 's/^chaos: \([0-9]*\) faults injected .*/\1/p' \
    <<<"$chaos_out")"
if [ -z "$faults" ] || [ "$faults" -eq 0 ]; then
    echo "chaos-campaign smoke: no 'chaos: N faults injected' line with N > 0"
    status=1
fi
plain_batch="$(grep '^batch: ' <<<"$plain_out" || true)"
if [ -z "$plain_batch" ] \
        || [ "$plain_batch" != "$(grep '^batch: ' <<<"$chaos_out" || true)" ]; then
    echo "chaos-campaign smoke: the chaos run's batch: line differs from the plain run's"
    status=1
fi
if grep -q '^quarantined sites: 0 ' <<<"$chaos_out" \
        && ! cmp -s "$chaos_dir/A" "$chaos_dir/B"; then
    echo "chaos-campaign smoke: nothing quarantined, yet the databases differ"
    status=1
fi
rm -rf "$chaos_dir"

echo "== chaos-pool smoke (injected worker death heals byte-identically) =="
pool_journal="$(mktemp /tmp/pool_smoke.XXXXXX.jsonl)"
lot_args=(--devices 65536 --shard-devices 16384 --seed 5)
serial_lot="$(python -m repro experiment run "${lot_args[@]}")" || status=$?
pool_lot="$(python -m repro experiment run "${lot_args[@]}" --workers 2 \
    --chaos-worker-exit 1 \
    --journal "$pool_journal")" || status=$?
if [ "$(lot_summary <<<"$serial_lot")" != "$(lot_summary <<<"$pool_lot")" ] \
        || ! grep -q '^devices: 65536 ' <<<"$serial_lot"; then
    echo "chaos-pool smoke: healed pool lot summary differs from serial"
    status=1
fi
for event in pool.worker_lost pool.rebuild pool.redispatch; do
    if ! grep -qF "\"$event\"" "$pool_journal"; then
        echo "chaos-pool smoke: journal missing $event event"
        status=1
    fi
done
rm -f "$pool_journal"

echo "== pytest (chaos / robustness suite) =="
python -m pytest -q tests/runner || status=$?

echo "== pytest (tier 1) =="
python -m pytest -x -q || status=$?

exit "$status"
