package dram

import (
	"reflect"
	"testing"

	"rcoal/internal/gpusim/mem"
	"rcoal/internal/rng"
)

// scheduleFrom schedules a request to each location, request i
// arriving at cycle i, and returns their Done cycles.
func scheduleFrom(c *Controller, reqs []mem.Location, start int) []int64 {
	var out []int64
	for i := start; i < len(reqs); i++ {
		out = append(out, schedule(c, reqs[i], int64(i)))
	}
	return out
}

// TestSnapshotRestoreEquivalence is the snapshot/restore property
// test: capture a controller mid-stream (open rows, bank and bus
// timing, requests still to arrive), keep scheduling on it to the end
// (the mutation), then Restore — into the same controller and into a
// fresh one — and verify the continued stream gets the reference Done
// cycles and statistics exactly.
func TestSnapshotRestoreEquivalence(t *testing.T) {
	r := rng.New(99)
	m := mem.DefaultAddressMap()
	for trial := 0; trial < 20; trial++ {
		reqs := make([]mem.Location, 8+r.Intn(24))
		for i := range reqs {
			reqs[i] = m.Decode(uint64(r.Intn(1<<14)) * mem.BlockBytes)
		}
		c := newTestController(t)
		cut := r.Intn(len(reqs))
		scheduleFrom(c, reqs[:cut], 0)
		snap := c.Snapshot()
		wantStats := c.Stats

		wantTail := scheduleFrom(c, reqs, cut)
		wantFinal := c.Stats

		for _, into := range []*Controller{c, newTestController(t)} {
			into.Restore(snap)
			if into.Stats != wantStats {
				t.Fatalf("trial %d: restored stats %+v != snapshot stats %+v", trial, into.Stats, wantStats)
			}
			if got := scheduleFrom(into, reqs, cut); !reflect.DeepEqual(got, wantTail) {
				t.Fatalf("trial %d: restored tail differs\n got %v\nwant %v", trial, got, wantTail)
			}
			if into.Stats != wantFinal {
				t.Fatalf("trial %d: restored final stats differ", trial)
			}
		}
	}
}

// TestSnapshotRestoreBankCountGuard pins the defensive panic on
// structural mismatch.
func TestSnapshotRestoreBankCountGuard(t *testing.T) {
	c := newTestController(t)
	snap := c.Snapshot()
	m := mem.DefaultAddressMap()
	m.Banks = 8
	m.BankGroups = 4
	other, err := NewController(HynixGDDR5(), m)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("restore across bank counts did not panic")
		}
	}()
	other.Restore(snap)
}
