package dram

import (
	"reflect"
	"testing"

	"rcoal/internal/gpusim/mem"
	"rcoal/internal/rng"
)

// serviced records one completed request for sequence comparison.
type serviced struct {
	id    uint64
	cycle int64
}

// stepRange steps the controller over cycles [start, stop): request i
// of reqs arrives at cycle i (a fresh copy is scheduled, so runs share
// no request), and every completion is recorded as (id, cycle). A
// negative stop runs until every request is scheduled and returned.
func stepRange(t *testing.T, c *Controller, reqs []mem.Request, start, stop int64) []serviced {
	t.Helper()
	var out []serviced
	for now := start; now < start+100000; now++ {
		if stop >= 0 && now >= stop {
			return out
		}
		if now < int64(len(reqs)) {
			q := reqs[now]
			c.Schedule(&q, now)
		}
		for _, r := range c.Collect(now) {
			out = append(out, serviced{id: r.ID, cycle: now})
		}
		if stop < 0 && now >= int64(len(reqs)) && c.Idle() {
			return out
		}
	}
	t.Fatal("controller did not drain")
	return nil
}

// TestSnapshotRestoreEquivalence is the snapshot/restore property
// test: capture a controller mid-stream (in-flight requests, open
// rows, bus state, requests still to arrive), keep running it to
// completion (the mutation), then Restore — into the same controller
// and into a fresh one — and verify the continued run reproduces the
// reference service sequence and statistics exactly.
func TestSnapshotRestoreEquivalence(t *testing.T) {
	r := rng.New(99)
	m := mem.DefaultAddressMap()
	for trial := 0; trial < 20; trial++ {
		reqs := make([]mem.Request, 8+r.Intn(24))
		for i := range reqs {
			addr := uint64(r.Intn(1<<14)) * mem.BlockBytes
			reqs[i] = mem.Request{ID: uint64(i + 1), Addr: addr, Loc: m.Decode(addr)}
		}
		c := newTestController(t)
		// Advance mid-stream: some requests returned, some in flight,
		// some yet to arrive.
		cut := int64(10 + r.Intn(60))
		stepRange(t, c, reqs, 0, cut)

		var table []mem.Request
		idx := map[*mem.Request]int{}
		intern := func(q *mem.Request) int {
			if i, ok := idx[q]; ok {
				return i
			}
			table = append(table, *q)
			idx[q] = len(table) - 1
			return len(table) - 1
		}
		snap := c.Snapshot(intern)
		wantStats := c.Stats
		// The in-flight FIFO carries the event horizon: its head's Done
		// is NextEvent, so a restore must reproduce both.
		wantInFlight, wantNext := c.InFlight(), c.NextEvent()

		// Mutate: run the original to completion; this is both the
		// reference tail and the post-snapshot mutation.
		wantTail := stepRange(t, c, reqs, cut, -1)
		wantFinal := c.Stats

		materialize := func() func(int) *mem.Request {
			fresh := make([]*mem.Request, len(table))
			return func(i int) *mem.Request {
				if fresh[i] == nil {
					p := new(mem.Request)
					*p = table[i]
					fresh[i] = p
				}
				return fresh[i]
			}
		}

		// Restore into the mutated controller.
		c.Restore(snap, materialize())
		if c.Stats != wantStats {
			t.Fatalf("trial %d: restored stats %+v != snapshot stats %+v", trial, c.Stats, wantStats)
		}
		if c.InFlight() != wantInFlight || c.NextEvent() != wantNext {
			t.Fatalf("trial %d: restored in-flight %d / next event %d, want %d / %d",
				trial, c.InFlight(), c.NextEvent(), wantInFlight, wantNext)
		}
		if got := stepRange(t, c, reqs, cut, -1); !reflect.DeepEqual(got, wantTail) {
			t.Fatalf("trial %d: same-controller restore tail differs\n got %v\nwant %v", trial, got, wantTail)
		}
		if c.Stats != wantFinal {
			t.Fatalf("trial %d: same-controller final stats differ", trial)
		}

		// Restore into a fresh controller.
		fresh := newTestController(t)
		fresh.Restore(snap, materialize())
		if got := stepRange(t, fresh, reqs, cut, -1); !reflect.DeepEqual(got, wantTail) {
			t.Fatalf("trial %d: fresh-controller restore tail differs", trial)
		}
		if fresh.Stats != wantFinal {
			t.Fatalf("trial %d: fresh-controller final stats differ", trial)
		}
	}
}

// TestSnapshotRestoreBankCountGuard pins the defensive panic on
// structural mismatch.
func TestSnapshotRestoreBankCountGuard(t *testing.T) {
	c := newTestController(t)
	snap := c.Snapshot(func(*mem.Request) int { return 0 })
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
	other.Restore(snap, func(i int) *mem.Request { return nil })
}
