#!/usr/bin/env bash
# Soak gate: loop a short checkpointed campaign under injected faults.
#
#   scripts/soak.sh             # pytest -m slow, then 5 chaos CLI rounds
#   scripts/soak.sh 20          # more rounds
#
# Each round runs a small campaign with transient chaos in the
# behaviour model (rate 0.01, per-round seed), checks its status, then
# resumes the finished checkpoint and exports the database -- the full
# run/status/resume/save cycle under fault injection.  Any crash,
# corrupt checkpoint or inconsistent resume fails the script.
#
# A final round SIGKILLs random pool workers out from under a live
# 2-worker streaming lot: the supervised executor must rebuild the
# pool, finish the run, and print the lot summary of a serial run; a
# second run resumes every shard from its checkpoint to the same
# summary.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

rounds="${1:-5}"
workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

echo "== soak: pytest -m slow =="
python -m pytest -q -m slow tests/runner

echo "== soak: ${rounds} chaos campaign rounds =="
for i in $(seq 1 "$rounds"); do
    ck="$workdir/soak-$i.json"
    echo "-- round $i (chaos seed $i) --"
    python -m repro campaign run \
        --rows 16 --columns 2 --bits 4 --sites 40 \
        --checkpoint "$ck" \
        --chaos-rate 0.01 --chaos-seed "$i" --max-attempts 4
    python -m repro campaign status "$ck"
    python -m repro campaign resume "$ck" --save-db "$workdir/db-$i.json"
done

echo "== soak: SIGKILL random pool workers mid-lot =="
# The lot summary: every printed line but the run banner and the pool
# note (devices, Venn classes, escape DPM).
lot_summary() { sed -e '1d' -e '/^pool supervision:/d' "$1"; }
lot_args=(--devices 4194304 --seed 7)
serial_out="$workdir/sigkill-serial.txt"
pool_out="$workdir/sigkill-pool.txt"
resumed_out="$workdir/sigkill-resumed.txt"
pool_ck="$workdir/sigkill-pool-ck.json"
python -m repro experiment run "${lot_args[@]}" >"$serial_out"
python -m repro experiment run "${lot_args[@]}" \
    --workers 2 --checkpoint "$pool_ck" >"$pool_out" &
run_pid=$!
kills=0
while kill -0 "$run_pid" 2>/dev/null && [ "$kills" -lt 3 ]; do
    sleep 0.4
    victim="$(pgrep -P "$run_pid" | shuf -n 1 || true)"
    if [ -n "$victim" ] && kill -9 "$victim" 2>/dev/null; then
        kills=$((kills + 1))
        echo "-- SIGKILLed worker pid $victim ($kills/3)"
    fi
done
wait "$run_pid"
python -m repro experiment run "${lot_args[@]}" \
    --checkpoint "$pool_ck" >"$resumed_out"
cat "$pool_out"
if [ "$(lot_summary "$serial_out")" != "$(lot_summary "$pool_out")" ] \
        || [ "$(lot_summary "$serial_out")" != "$(lot_summary "$resumed_out")" ]; then
    echo "soak: post-SIGKILL lot summary differs from serial run"
    exit 1
fi
echo "-- survived $kills worker SIGKILL(s); lot summary matches serial"

echo "soak complete: ${rounds} rounds survived"
