package dram

import (
	"testing"

	"rcoal/internal/gpusim/mem"
	"rcoal/internal/rng"
)

// arrival is one request of a randomized stream, scheduled at cycle at.
type arrival struct {
	at  int64
	id  uint64
	loc mem.Location
}

// randomStream draws n requests over random banks and rows (a few rows
// per bank, so row hits, misses and conflicts all occur) with random
// arrival gaps, bursts included.
func randomStream(r *rng.Source, n, banks int) []arrival {
	out := make([]arrival, n)
	var at int64
	for i := range out {
		if r.Intn(3) > 0 {
			at += int64(r.Intn(12))
		}
		out[i] = arrival{at: at, id: uint64(i + 1),
			loc: mem.Location{Bank: r.Intn(banks), Row: r.Intn(4), Col: 64 * r.Intn(32)}}
	}
	return out
}

// TestInFlightCompletionOrder is the property the simulator's reply
// order rests on: over randomized streams (random bank and row, random
// arrival gaps, bursts of arrivals in one cycle included), each
// request's data returns after its arrival and strictly after every
// earlier-scheduled request's, so one partition's DRAM replies never
// tie and complete in schedule order.
func TestInFlightCompletionOrder(t *testing.T) {
	r := rng.New(0x1F1F0)
	banks := mem.DefaultAddressMap().Banks
	for trial := 0; trial < 60; trial++ {
		c := newTestController(t)
		var lastDone int64
		for _, a := range randomStream(r, 20+r.Intn(60), banks) {
			done := schedule(c, a.loc, a.at)
			if done <= a.at || done <= lastDone {
				t.Fatalf("trial %d: request %d arriving at %d scheduled with Done %d, previous %d",
					trial, a.id, a.at, done, lastDone)
			}
			lastDone = done
		}
	}
}
