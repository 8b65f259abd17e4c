#!/usr/bin/env bash
# Fleet observability smoke test, mirrored by the CI "Fleet
# observability smoke" step. Runs a 4-worker chaos-faulted distributed
# sweep with the full observability plane on and checks that
# observability is both complete and free:
#
#   1. The coordinator's /metrics and a worker's /metrics parse as
#      valid Prometheus text exposition (rcoal-obscheck -prom).
#   2. The merged fleet trace validates against the Chrome trace-event
#      schema, carries one trace id on every timeline event, and
#      contains coordinator lease spans, worker cell spans, renewal
#      events, delivery backoff marks, and injected-fault annotations
#      (rcoal-obscheck -trace).
#   3. Structured JSON logs decode line by line.
#   4. The CSV is byte-identical to a single-process run with
#      observability off: tracing and logging may never perturb
#      result bytes.
#
# Run from the repo root: bash scripts/obs_smoke.sh [seed]
set -euo pipefail
. "$(dirname "$0")/lib.sh"

EXP=ext-defense-frontier
MECHS="baseline,fss:2,fss:4,fss:8,rss:2,rss:4,rss:8,delay:16"
SAMPLES=8
LINES=16
SEED=${1:-0x0B5C0A1}

rcoal_init
TMP=$RCOAL_TMP

echo "== build =="
rcoal_build ./cmd/rcoal-experiments ./cmd/rcoal-obscheck

ADDR=$(rcoal_pick_addr)
URL=http://$ADDR
WADDR=$(rcoal_pick_addr)

echo "== single-process golden (observability off) =="
mkdir -p "$TMP/golden"
"$RCOAL_BIN/rcoal-experiments" -run "$EXP" -mechanisms "$MECHS" \
  -samples "$SAMPLES" -lines "$LINES" -csv "$TMP/golden" >/dev/null

echo "== observed sweep: coordinator + 4 chaos-faulted workers ($ADDR) =="
# The short lease timeout makes renewals routine (renew tick ~100ms),
# so lease_renewed events deterministically land in the trace.
mkdir -p "$TMP/obs-csv" "$TMP/journal"
"$RCOAL_BIN/rcoal-experiments" -serve "$ADDR" -run "$EXP" -mechanisms "$MECHS" \
  -samples "$SAMPLES" -lines "$LINES" \
  -journal "$TMP/journal" -csv "$TMP/obs-csv" \
  -lease-timeout 300ms -drain-wait 500ms \
  -trace-out "$TMP/fleet_trace.json" -log-json -flight-out "$TMP/coord_flight.json" \
  >/dev/null 2>"$TMP/coord.log" &
COORD=$!
rcoal_wait_ready "$ADDR"

WPIDS=()
for i in 1 2 3 4; do
  margs=()
  if [ "$i" = 1 ]; then
    margs=(-metrics-addr "$WADDR")
  fi
  "$RCOAL_BIN/rcoal-experiments" -worker "$URL" -worker-id "w$i" -workers 1 \
    -chaos-seed "$SEED" -log-json "${margs[@]}" 2>"$TMP/w$i.log" &
  WPIDS+=($!)
done
rcoal_wait_ready "$WADDR"

echo "== scrape /metrics mid-sweep =="
rcoal_http_get "$URL/metrics" > "$TMP/coord_metrics.txt"
rcoal_http_get "http://$WADDR/metrics" > "$TMP/worker_metrics.txt"

wait "$COORD"
for pid in "${WPIDS[@]}"; do
  kill "$pid" 2>/dev/null || true
  wait "$pid" 2>/dev/null || true
done

echo "== validate Prometheus exposition =="
"$RCOAL_BIN/rcoal-obscheck" -prom "$TMP/coord_metrics.txt"
"$RCOAL_BIN/rcoal-obscheck" -prom "$TMP/worker_metrics.txt"
grep -q '^rcoal_coordinator_pending_cells' "$TMP/coord_metrics.txt"
grep -q '^rcoal_worker_cells_completed' "$TMP/worker_metrics.txt"

echo "== validate merged fleet trace =="
"$RCOAL_BIN/rcoal-obscheck" -trace "$TMP/fleet_trace.json" -one-trace-id \
  -require "lease ,cell ,lease_renewed,chaos_fault"
# Backoff marks appear whenever a delivery retried; under the default
# chaos profile at 4 workers that is overwhelmingly likely but not
# guaranteed, so report rather than gate.
if "$RCOAL_BIN/rcoal-obscheck" -trace "$TMP/fleet_trace.json" -require backoff >/dev/null 2>&1; then
  echo "trace contains delivery backoff marks"
else
  echo "note: no delivery backoff marks this run (no completion retried)"
fi

echo "== validate structured logs =="
for f in "$TMP/coord.log" "$TMP"/w*.log; do
  grep '^{' "$f" | python3 -c 'import json,sys
n = 0
for line in sys.stdin:
    json.loads(line)
    n += 1
print(f"  {n} JSON events ok")' || { echo "FAIL: bad JSON log line in $f"; exit 1; }
done
grep -h '^{' "$TMP/coord.log" | grep -q '"msg":"lease granted"' || {
  echo "FAIL: coordinator log missing lease-grant events"; exit 1; }

echo "== CSV byte-identity: observability on vs off =="
diff -u "$TMP/golden/$EXP.csv" "$TMP/obs-csv/$EXP.csv"
echo "OK: observed sweep CSV is byte-identical to the unobserved golden"

# Keep the artifacts when the caller asks (CI uploads the trace).
if [ -n "${OBS_ARTIFACT_DIR:-}" ]; then
  mkdir -p "$OBS_ARTIFACT_DIR"
  cp "$TMP/fleet_trace.json" "$TMP/coord_metrics.txt" "$TMP/worker_metrics.txt" "$OBS_ARTIFACT_DIR/"
fi
echo "obs smoke passed (replay with: bash scripts/obs_smoke.sh $SEED)"
