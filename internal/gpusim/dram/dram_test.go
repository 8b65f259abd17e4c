package dram

import (
	"math"
	"testing"

	"rcoal/internal/gpusim/mem"
)

func newTestController(t *testing.T) *Controller {
	t.Helper()
	c, err := NewController(HynixGDDR5(), mem.DefaultAddressMap())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// req returns the location of addr, decoded under the default address
// map as the simulator does when it issues a request for it.
func req(addr uint64) mem.Location { return mem.DefaultAddressMap().Decode(addr) }

// schedule schedules a request to loc arriving at cycle at.
func schedule(c *Controller, loc mem.Location, at int64) int64 {
	return c.Schedule(loc.Bank, loc.Row, at)
}

// scheduleEach schedules requests to the locations one per cycle from
// cycle 0, the pace of one partition's request port, and returns the
// cycle the controller falls idle: the last data return.
func scheduleEach(c *Controller, locs ...mem.Location) (end int64) {
	for i, loc := range locs {
		end = schedule(c, loc, int64(i))
	}
	return end
}

func TestTimingValidate(t *testing.T) {
	if err := HynixGDDR5().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := HynixGDDR5()
	bad.CL = 0
	if bad.Validate() == nil {
		t.Fatal("zero CL validated")
	}
}

func TestTimingScale(t *testing.T) {
	s := HynixGDDR5().Scale(1400.0 / 924.0)
	if s.CL < 12 || s.CL > 19 {
		t.Errorf("scaled CL = %d, want ≈18", s.CL)
	}
	if s.CCD < 2 {
		t.Errorf("scaled CCD = %d, want >= 2", s.CCD)
	}
	// Scaling by a tiny ratio must not produce zeros.
	tiny := HynixGDDR5().Scale(0.01)
	if err := tiny.Validate(); err != nil {
		t.Errorf("tiny scale produced invalid timing: %v", err)
	}
}

func TestSingleRequestLatency(t *testing.T) {
	c := newTestController(t)
	done := schedule(c, req(0), 0)
	tm := HynixGDDR5()
	// Cold row: RCD + CL + Burst (no precharge needed on a closed bank).
	want := int64(tm.RCD + tm.CL + tm.Burst)
	if done != want {
		t.Errorf("first access done at %d, want %d", done, want)
	}
	if c.Stats.RowMisses != 1 || c.Stats.RowHits != 0 {
		t.Errorf("stats: %+v", c.Stats)
	}
}

func TestRowHitFasterThanConflict(t *testing.T) {
	m := mem.DefaultAddressMap()

	// Two accesses to the same row: second is a row hit.
	c1 := newTestController(t)
	end1 := scheduleEach(c1, req(0), req(64))
	if c1.Stats.RowHits != 1 {
		t.Fatalf("same-row: stats %+v", c1.Stats)
	}

	// Two accesses to different rows of the same bank: row conflict.
	// Same bank repeats every Partitions*Banks chunks; same bank next
	// row is offset by Partitions*Banks*ChunkBytes*(RowBytes/ChunkBytes).
	rowStride := uint64(m.Partitions * m.Banks * m.RowBytes)
	c2 := newTestController(t)
	end2 := scheduleEach(c2, req(0), req(rowStride))
	if c2.Stats.RowMisses != 2 || c2.Stats.RowConflicts != 1 {
		t.Fatalf("conflict: stats %+v", c2.Stats)
	}

	if end1 >= end2 {
		t.Errorf("row hit pair (%d cycles) not faster than conflict pair (%d)", end1, end2)
	}
}

func TestBankParallelismBeatsSerialBank(t *testing.T) {
	m := mem.DefaultAddressMap()
	rowStride := uint64(m.Partitions * m.Banks * m.RowBytes)
	bankStride := uint64(m.Partitions * m.ChunkBytes) // next bank, same partition

	// Four row-conflicting accesses on one bank...
	var serial, par []mem.Location
	for i := uint64(0); i < 4; i++ {
		serial = append(serial, req(i*rowStride))
		// ...versus four accesses across four different banks.
		par = append(par, req(i*bankStride))
	}
	serialEnd := scheduleEach(newTestController(t), serial...)
	parEnd := scheduleEach(newTestController(t), par...)
	if parEnd >= serialEnd {
		t.Errorf("bank-parallel end %d not faster than serial-bank end %d", parEnd, serialEnd)
	}
}

func TestServiceTimeGrowsWithTransactions(t *testing.T) {
	// The property RCoal's performance results rest on: more coalesced
	// transactions take longer to service.
	var ends []int64
	for _, n := range []int{4, 8, 16, 32} {
		var reqs []mem.Location
		for i := 0; i < n; i++ {
			reqs = append(reqs, req(uint64(i)*64))
		}
		ends = append(ends, scheduleEach(newTestController(t), reqs...))
	}
	for i := 1; i < len(ends); i++ {
		if ends[i] <= ends[i-1] {
			t.Errorf("service time not increasing: %v", ends)
		}
	}
}

// TestStatsAndIdle: a scheduled request leaves the controller idle —
// nothing waits in it — and counts in Stats.
func TestStatsAndIdle(t *testing.T) {
	c := newTestController(t)
	if done := schedule(c, req(0), 5); done <= 5 || done == math.MaxInt64 {
		t.Errorf("scheduled at 5: returned %d", done)
	}
	if c.Parked() != 0 || c.Stats.Accesses != 1 {
		t.Errorf("after schedule: parked %d, stats %+v", c.Parked(), c.Stats)
	}
}

func TestNewControllerRejectsBadConfig(t *testing.T) {
	bad := HynixGDDR5()
	bad.RCD = -1
	if _, err := NewController(bad, mem.DefaultAddressMap()); err == nil {
		t.Error("bad timing accepted")
	}
	badMap := mem.DefaultAddressMap()
	badMap.Banks = 0
	if _, err := NewController(HynixGDDR5(), badMap); err == nil {
		t.Error("bad address map accepted")
	}
}

// TestInjectStall: the fault seam parks every arrival after the
// threshold, so nothing returns them and the upstream watchdog — not a
// hang — must resolve it.
func TestInjectStall(t *testing.T) {
	c := newTestController(t)
	c.InjectStall(1) // service exactly one request, then freeze
	first, second := req(0), req(1<<20)
	if done := schedule(c, first, 0); done == math.MaxInt64 {
		t.Fatal("controller stalled before its threshold")
	}
	if got := schedule(c, second, 1); got != math.MaxInt64 {
		t.Fatalf("stalled controller scheduled request 2 for cycle %d", got)
	}
	if c.Parked() != 1 || c.Stats.Accesses != 1 {
		t.Fatalf("stalled controller: parked=%d accesses=%d, want one parked request",
			c.Parked(), c.Stats.Accesses)
	}

	// Reset clears the launch's access count but keeps the armament:
	// an immediately-stalled controller (threshold 0) never schedules.
	c.Reset()
	c.InjectStall(0)
	schedule(c, req(0), 0)
	schedule(c, req(64), 1)
	if c.Parked() != 2 || c.Stats.Accesses != 0 {
		t.Fatalf("fully stalled controller: parked %d accesses %d, want 2/0",
			c.Parked(), c.Stats.Accesses)
	}
	for at, want := range []int{2, 1, 0} {
		if got := c.ParkedAfter(int64(at) - 1); got != want {
			t.Errorf("ParkedAfter(%d) = %d, want %d", at-1, got, want)
		}
	}
}
