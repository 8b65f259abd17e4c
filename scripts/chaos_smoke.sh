#!/usr/bin/env bash
# Chaos soak smoke test, mirrored by the CI "Chaos smoke" step. It
# runs the defense-frontier grid through real processes on a hostile
# loopback network and checks the robustness layer end to end:
#
#   1. Every worker request suffers the seeded fault schedule of
#      internal/chaos (-chaos-seed): drops, duplicated deliveries,
#      5xx bursts, torn bodies, delays, and timed partitions. The
#      schedule is deterministic — rerun with the same seed to replay
#      the exact fault sequence.
#   2. One worker is killed hard mid-sweep; its leases expire and
#      re-issue.
#   3. The coordinator is SIGTERMed mid-sweep (graceful shutdown
#      flushes the lease ledger) and restarted with -resume; the
#      surviving worker retries its way through the outage.
#   4. The final CSV must be byte-identical to the single-process
#      golden: transport faults may cost time, never bytes.
#
# Run from the repo root: bash scripts/chaos_smoke.sh [seed]
set -euo pipefail
. "$(dirname "$0")/lib.sh"

EXP=ext-defense-frontier
MECHS="baseline,fss:2,fss:4,fss:8,rss:2,rss:4,rss:8,delay:16"
SAMPLES=8
LINES=16
SEED=${1:-0xC0A150AC}
KILL_HARD=-9

rcoal_init
TMP=$RCOAL_TMP

echo "== build =="
rcoal_build

ADDR=$(rcoal_pick_addr)
URL=http://$ADDR

echo "== single-process golden =="
mkdir -p "$TMP/golden"
"$RCOAL_BIN/rcoal-experiments" -run "$EXP" -mechanisms "$MECHS" \
  -samples "$SAMPLES" -lines "$LINES" -csv "$TMP/golden" >/dev/null

echo "== chaos sweep: seeded faults ($SEED), worker killed, coordinator restarted ($ADDR) =="
mkdir -p "$TMP/chaos-csv" "$TMP/journal"
"$RCOAL_BIN/rcoal-experiments" -serve "$ADDR" -run "$EXP" -mechanisms "$MECHS" \
  -samples "$SAMPLES" -lines "$LINES" \
  -journal "$TMP/journal" -csv "$TMP/chaos-csv" \
  -lease-timeout 2s -drain-wait 500ms >/dev/null 2>"$TMP/coord1.log" &
COORD=$!
rcoal_wait_ready "$ADDR"
"$RCOAL_BIN/rcoal-experiments" -worker "$URL" -worker-id doomed -workers 1 \
  -chaos-seed "$SEED" 2>"$TMP/doomed.log" &
W1=$!
"$RCOAL_BIN/rcoal-experiments" -worker "$URL" -worker-id survivor -workers 2 \
  -chaos-seed "$SEED" 2>"$TMP/survivor.log" &
W2=$!

sleep 0.6
kill -9 "$W1" 2>/dev/null || true
echo "killed worker 'doomed' hard mid-sweep; its leases re-issue after the 2s timeout"

sleep 0.4
if kill -TERM "$COORD" 2>/dev/null; then
  wait "$COORD" 2>/dev/null || true
  echo "SIGTERMed the coordinator mid-sweep (ledger flushed); restarting with -resume"
  "$RCOAL_BIN/rcoal-experiments" -serve "$ADDR" -run "$EXP" -mechanisms "$MECHS" \
    -samples "$SAMPLES" -lines "$LINES" \
    -journal "$TMP/journal" -resume -csv "$TMP/chaos-csv" \
    -lease-timeout 2s -drain-wait 500ms >/dev/null 2>"$TMP/coord2.log" &
  COORD=$!
else
  echo "coordinator finished before the restart window (small grid); continuing"
fi
wait "$COORD"
kill "$W2" 2>/dev/null || true
wait "$W2" 2>/dev/null || true

grep -h "chaos plan seed" "$TMP/doomed.log" "$TMP/survivor.log" | head -1 || true
grep -h "chaos: injected" "$TMP/survivor.log" | tail -1 || true

diff -u "$TMP/golden/$EXP.csv" "$TMP/chaos-csv/$EXP.csv"
echo "OK: chaos-swept CSV is byte-identical to the single-process golden"
echo "chaos smoke passed (replay with: bash scripts/chaos_smoke.sh $SEED)"
