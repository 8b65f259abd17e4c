#!/usr/bin/env bash
# Distributed sweep smoke test, mirrored by the CI "Distributed smoke"
# step. On loopback, it checks the properties the coordinator/worker
# architecture promises:
#
#   1. Byte-identity: a coordinator with two workers (one killed
#      mid-grid) writes a CSV byte-identical to the single-process
#      golden.
#   2. Resilience: the killed worker's leases time out and re-issue;
#      the sweep still finishes.
#   3. Warm cache: re-running the sweep against the populated results
#      cache completes >= 10x faster, with zero cells recomputed.
#   4. Shared cells: without its own -cache, a coordinator running fig15 and
#      fig17 leases each distinct cell once (17: fig15's M = 1 rows
#      repeat the baseline cell, and fig17 reads fig15's), as a local
#      run computes it once, and both CSVs equal the local ones.
#   5. Worker store: that sweep's worker ran with -cache and recorded
#      the 17 cells it computed there. Rerun with a fresh coordinator
#      journal and no coordinator -cache, a worker on the same -cache
#      answers every lease from it (its store file does not change, so
#      it computed nothing), the CSVs stay byte-identical, and the
#      sweep finishes >= 10x faster than cold.
#
# Run from the repo root: bash scripts/dist_smoke.sh
set -euo pipefail
. "$(dirname "$0")/lib.sh"

EXP=fig7
SAMPLES=8
LINES=16

rcoal_init
TMP=$RCOAL_TMP

echo "== build =="
rcoal_build

ADDR=$(rcoal_pick_addr)
URL=http://$ADDR

echo "== single-process golden =="
mkdir -p "$TMP/golden"
"$RCOAL_BIN/rcoal-experiments" -run "$EXP" -samples "$SAMPLES" -lines "$LINES" \
  -csv "$TMP/golden" >/dev/null

echo "== distributed: coordinator + 2 workers, one killed mid-grid ($ADDR) =="
mkdir -p "$TMP/dist-csv" "$TMP/journal"
t0=$(now_ms)
"$RCOAL_BIN/rcoal-experiments" -serve "$ADDR" -run "$EXP" \
  -samples "$SAMPLES" -lines "$LINES" \
  -journal "$TMP/journal" -cache "$TMP/cache" -csv "$TMP/dist-csv" \
  -lease-timeout 3s -drain-wait 500ms >/dev/null &
COORD=$!
rcoal_wait_ready "$ADDR"
"$RCOAL_BIN/rcoal-experiments" -worker "$URL" -worker-id doomed -workers 1 &
W1=$!
"$RCOAL_BIN/rcoal-experiments" -worker "$URL" -worker-id survivor -workers 2 &
W2=$!
sleep 0.5
kill "$W1" 2>/dev/null || true
echo "killed worker 'doomed' mid-grid; its leases re-issue after the 3s timeout"
wait "$COORD"
t1=$(now_ms)
kill "$W2" 2>/dev/null || true
wait "$W2" 2>/dev/null || true
cold_ms=$((t1 - t0))

diff -u "$TMP/golden/$EXP.csv" "$TMP/dist-csv/$EXP.csv"
echo "OK: distributed CSV is byte-identical to the single-process golden (${cold_ms}ms)"

echo "== warm cache: repeated sweep, no workers attached =="
mkdir -p "$TMP/warm-csv" "$TMP/journal2"
t2=$(now_ms)
"$RCOAL_BIN/rcoal-experiments" -serve "$ADDR" -run "$EXP" \
  -samples "$SAMPLES" -lines "$LINES" \
  -journal "$TMP/journal2" -cache "$TMP/cache" -csv "$TMP/warm-csv" \
  -drain-wait 0s >/dev/null
t3=$(now_ms)
warm_ms=$((t3 - t2))

diff -u "$TMP/golden/$EXP.csv" "$TMP/warm-csv/$EXP.csv"
echo "OK: cache-served CSV is byte-identical (${warm_ms}ms)"

if [ $((warm_ms * 10)) -gt "$cold_ms" ]; then
  echo "FAIL: warm sweep (${warm_ms}ms) not >= 10x faster than cold (${cold_ms}ms)"
  exit 1
fi
echo "OK: warm sweep ${warm_ms}ms vs cold ${cold_ms}ms (>= 10x faster)"

echo "== shared cells: fig15,fig17 in serve mode without -cache =="
SHARED=fig15,fig17
mkdir -p "$TMP/shared-golden" "$TMP/shared-csv" "$TMP/journal3"
"$RCOAL_BIN/rcoal-experiments" -run "$SHARED" -samples "$SAMPLES" -lines "$LINES" \
  -csv "$TMP/shared-golden" >/dev/null 2>&1
t4=$(now_ms)
"$RCOAL_BIN/rcoal-experiments" -serve "$ADDR" -run "$SHARED" \
  -samples "$SAMPLES" -lines "$LINES" -log-json \
  -journal "$TMP/journal3" -csv "$TMP/shared-csv" \
  -drain-wait 500ms >/dev/null 2>"$TMP/shared-coord.log" &
COORD=$!
rcoal_wait_ready "$ADDR"
"$RCOAL_BIN/rcoal-experiments" -worker "$URL" -worker-id sharer -workers 2 \
  -cache "$TMP/wcache" 2>/dev/null &
W3=$!
wait "$COORD"
t5=$(now_ms)
wait "$W3" 2>/dev/null || true
shared_cold_ms=$((t5 - t4))
for f in fig15 fig17; do
  diff -u "$TMP/shared-golden/$f.csv" "$TMP/shared-csv/$f.csv"
done
leases=$(grep -c '"msg":"lease granted"' "$TMP/shared-coord.log" || true)
if [ "$leases" -ne 17 ]; then
  echo "FAIL: serve mode leased $leases cells for fig15,fig17, want 17"
  exit 1
fi
echo "OK: serve mode leased each of the 17 distinct cells once; CSVs byte-identical (${shared_cold_ms}ms)"

echo "== worker store: $SHARED again, fresh coordinator journal, no coordinator -cache =="
mkdir -p "$TMP/wstore-csv" "$TMP/journal4"
stored=$(grep -c '"k":' "$TMP/wcache/cells.cache" || true)
if [ "$stored" -ne 17 ]; then
  echo "FAIL: the sharer's -cache holds $stored cells, want the 17 it computed"
  exit 1
fi
store_before=$(cksum <"$TMP/wcache/cells.cache")
t6=$(now_ms)
"$RCOAL_BIN/rcoal-experiments" -serve "$ADDR" -run "$SHARED" \
  -samples "$SAMPLES" -lines "$LINES" \
  -journal "$TMP/journal4" -csv "$TMP/wstore-csv" \
  -drain-wait 0s >/dev/null 2>&1 &
COORD=$!
rcoal_wait_ready "$ADDR"
"$RCOAL_BIN/rcoal-experiments" -worker "$URL" -worker-id rerun -workers 2 \
  -cache "$TMP/wcache" 2>/dev/null &
W4=$!
wait "$COORD"
t7=$(now_ms)
# The coordinator is gone; a drained worker closes its store and exits.
kill "$W4" 2>/dev/null || true
wait "$W4" 2>/dev/null || true
warm_store_ms=$((t7 - t6))
for f in fig15 fig17; do
  diff -u "$TMP/shared-golden/$f.csv" "$TMP/wstore-csv/$f.csv"
done
if [ "$(cksum <"$TMP/wcache/cells.cache")" != "$store_before" ]; then
  echo "FAIL: the worker's store changed: it computed cells its -cache already held"
  exit 1
fi
if [ $((warm_store_ms * 10)) -gt "$shared_cold_ms" ]; then
  echo "FAIL: worker-store sweep (${warm_store_ms}ms) not >= 10x faster than cold (${shared_cold_ms}ms)"
  exit 1
fi
echo "OK: worker store served every lease, CSVs byte-identical, ${warm_store_ms}ms vs cold ${shared_cold_ms}ms (>= 10x faster)"
echo "dist smoke passed"
