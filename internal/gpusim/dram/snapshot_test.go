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

// tickUntilIdle drains the controller from cycle start, recording the
// (id, cycle) service sequence.
func tickUntilIdle(t *testing.T, c *Controller, start int64) []serviced {
	t.Helper()
	var out []serviced
	for now := start; now < start+100000; now++ {
		for _, r := range c.Tick(now) {
			out = append(out, serviced{id: r.ID, cycle: now})
		}
		if c.Idle() {
			return out
		}
	}
	t.Fatal("controller did not drain")
	return nil
}

// TestSnapshotRestoreEquivalence is the snapshot/restore property
// test: capture a controller mid-flight (queued and in-flight requests,
// open rows, bus state), keep running it to completion (the mutation),
// then Restore — into the same controller and into a fresh one — and
// verify the continued run reproduces the reference service sequence
// and statistics exactly.
func TestSnapshotRestoreEquivalence(t *testing.T) {
	r := rng.New(99)
	for trial := 0; trial < 20; trial++ {
		load := func() (*Controller, []*mem.Request) {
			c := newTestController(t, 0)
			n := 8 + r.Intn(24)
			reqs := make([]*mem.Request, n)
			for i := range reqs {
				reqs[i] = &mem.Request{
					ID:   uint64(i + 1),
					Addr: uint64(r.Intn(1<<14)) * mem.BlockBytes,
				}
			}
			return c, reqs
		}
		c, reqs := load()
		for _, q := range reqs {
			c.Push(q)
		}
		// Advance mid-flight: some requests scheduled, some queued.
		cut := int64(10 + r.Intn(60))
		var head []serviced
		for now := int64(0); now < cut; now++ {
			for _, q := range c.Tick(now) {
				head = append(head, serviced{id: q.ID, cycle: now})
			}
		}

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
		// is NextEvent once the queue is empty, so a restore must
		// reproduce both.
		wantInFlight, wantNext := c.InFlight(), c.NextEvent(cut)

		// Mutate: run the original to completion; this is both the
		// reference tail and the post-snapshot mutation.
		wantTail := tickUntilIdle(t, c, cut)
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
		if c.InFlight() != wantInFlight || c.NextEvent(cut) != wantNext {
			t.Fatalf("trial %d: restored in-flight %d / next event %d, want %d / %d",
				trial, c.InFlight(), c.NextEvent(cut), wantInFlight, wantNext)
		}
		if got := tickUntilIdle(t, c, cut); !reflect.DeepEqual(got, wantTail) {
			t.Fatalf("trial %d: same-controller restore tail differs\n got %v\nwant %v", trial, got, wantTail)
		}
		if c.Stats != wantFinal {
			t.Fatalf("trial %d: same-controller final stats differ", trial)
		}

		// Restore into a fresh controller.
		fresh := newTestController(t, 0)
		fresh.Restore(snap, materialize())
		if got := tickUntilIdle(t, fresh, cut); !reflect.DeepEqual(got, wantTail) {
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
	c := newTestController(t, 0)
	snap := c.Snapshot(func(*mem.Request) int { return 0 })
	m := mem.DefaultAddressMap()
	m.Banks = 8
	m.BankGroups = 4
	other, err := NewController(HynixGDDR5(), m, 0)
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
