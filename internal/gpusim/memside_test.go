package gpusim_test

import (
	"errors"
	"reflect"
	"testing"

	"rcoal/internal/aes"
	"rcoal/internal/faultinject"
	"rcoal/internal/gpusim"
	"rcoal/internal/kernels"
	"rcoal/internal/rng"
)

// aesKernel builds the AES encryption kernel for lines random
// plaintext lines under the evaluation key.
func aesKernel(t *testing.T, lines int) *gpusim.Kernel {
	t.Helper()
	c, err := aes.NewCipher([]byte("RCoal eval key 1"))
	if err != nil {
		t.Fatal(err)
	}
	k, _, err := kernels.Build(c, kernels.RandomPlaintext(rng.New(7), lines))
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// liveSink tracks the requests in flight: the MCU creates one per
// EvMemTx and, with caches and MSHRs off, each EvReply consumes one.
type liveSink struct{ live, peak int }

func (s *liveSink) Emit(e gpusim.Event) {
	switch e.Kind {
	case gpusim.EvMemTx:
		if s.live++; s.live > s.peak {
			s.peak = s.live
		}
	case gpusim.EvReply:
		s.live--
	}
}

// TestRequestSlotsBoundedByPeakInFlight pins slot recycling: a
// 1024-line launch creates far more requests than it ever has in
// flight, and its arena grows only to the in-flight peak.
func TestRequestSlotsBoundedByPeakInFlight(t *testing.T) {
	sink := &liveSink{}
	cfg := gpusim.DefaultConfig()
	cfg.Trace = sink
	g, err := gpusim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Run(aesKernel(t, 1024), 1)
	if err != nil {
		t.Fatal(err)
	}
	bound := sink.peak/gpusim.ReqChunk + 1
	if got := g.ArenaChunks(); got > bound {
		t.Errorf("arena holds %d chunks of %d slots, want <= %d (peak %d requests in flight)",
			got, gpusim.ReqChunk, bound, sink.peak)
	}
	if total := int(res.TotalTx); total/gpusim.ReqChunk <= bound {
		t.Fatalf("%d requests in all against a peak of %d in flight: the launch does not exercise recycling",
			total, sink.peak)
	}
}

// TestFastForwardStepsFewCyclesOnSharedSMs pins the completion floor:
// a 1024-line AES launch puts two or three warps on each SM, and the
// warp with the fewest pending replies keeps the count-based reply
// lead short, so waking at every possible completion by count alone
// steps over half the launch's cycles. Waking only once some warp's
// last reply can have crossed the crossbar must stay under two fifths.
func TestFastForwardStepsFewCyclesOnSharedSMs(t *testing.T) {
	g, err := gpusim.New(gpusim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Run(aesKernel(t, 1024), 1)
	if err != nil {
		t.Fatal(err)
	}
	stepped := res.Cycles + 1 - g.SkippedCycles
	t.Logf("stepped %d of %d cycles", stepped, res.Cycles)
	if stepped*5 > res.Cycles*2 {
		t.Fatalf("stepped %d of %d cycles; want at most two fifths", stepped, res.Cycles)
	}
}

// TestTableIControllersNeverQueue: a controller schedules each request
// on arrival, so only a stalled one holds waiting requests — it parks
// every arrival behind its frozen scheduler, and the watchdog's
// snapshot reports them as queued.
func TestTableIControllersNeverQueue(t *testing.T) {
	cfg := gpusim.DefaultConfig()
	cfg.WatchdogWindow = 4096
	cfg.Faults = &faultinject.Plan{DRAMStall: &faultinject.DRAMStall{Partition: -1, AfterAccesses: 4}}
	g, err := gpusim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = g.Run(aesKernel(t, 32), 3)
	var npe *gpusim.NoProgressError
	if !errors.As(err, &npe) {
		t.Fatalf("err = %v, want *NoProgressError", err)
	}
	maxQueued := 0
	for _, p := range npe.Snapshot.Partitions {
		maxQueued = max(maxQueued, p.Queued)
	}
	if maxQueued < 2 {
		t.Errorf("stalled controllers queue at most %d requests, want >= 2:\n%s", maxQueued, npe.Snapshot)
	}
}

// TestSnapshotSplitsRequestsInTransit pins the diagnostic snapshot's
// request census on a 32-line launch cut short by its cycle budget: a
// request settled at its partition but not yet arrived counts on the
// request crossbar (ToMemPending), not in the controller. The counts
// are those a crossbar that held requests until their arrival cycle
// reported, with fast-forward on and off.
func TestSnapshotSplitsRequestsInTransit(t *testing.T) {
	k := aesKernel(t, 32)
	for _, c := range []struct {
		budget   int64
		toMem    int
		inFlight []int // per partition
	}{
		{200, 6, []int{0, 0, 2, 0, 0, 0}},
		{1500, 2, []int{0, 0, 3, 4, 3, 2}},
	} {
		for _, ffDisabled := range []bool{false, true} {
			cfg := gpusim.DefaultConfig()
			cfg.FastForwardDisabled = ffDisabled
			cfg.MaxCycles = c.budget
			g, err := gpusim.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			_, err = g.Run(k, 5)
			var mce *gpusim.MaxCyclesError
			if !errors.As(err, &mce) {
				t.Fatalf("budget %d: err = %v, want *MaxCyclesError", c.budget, err)
			}
			s := mce.Snapshot
			var inFlight []int
			for _, p := range s.Partitions {
				inFlight = append(inFlight, p.InFlight)
			}
			if s.ToMemPending != c.toMem || !reflect.DeepEqual(inFlight, c.inFlight) {
				t.Errorf("budget %d, fast-forward off %v: to-mem %d, in flight %v; want %d, %v\n%s",
					c.budget, ffDisabled, s.ToMemPending, inFlight, c.toMem, c.inFlight, s)
			}
		}
	}
}
