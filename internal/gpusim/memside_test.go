package gpusim_test

import (
	"errors"
	"testing"

	"rcoal/internal/aes"
	"rcoal/internal/faultinject"
	"rcoal/internal/gpusim"
	"rcoal/internal/kernels"
	"rcoal/internal/mechanism"
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

// TestTableIControllersNeverQueue pins the measured FR-FCFS invariant:
// at Table I rates a partition accepts at most one request per cycle
// and schedules it the same cycle, so no controller ever holds two
// waiting requests. A stalled controller still queues behind its
// frozen scheduler.
func TestTableIControllersNeverQueue(t *testing.T) {
	for _, lines := range []int{32, 1024} {
		k := aesKernel(t, lines)
		for _, m := range []mechanism.Mechanism{mechanism.Baseline(), mechanism.RSSRTS(8), mechanism.NoCoal()} {
			cfg := gpusim.DefaultConfig()
			cfg.Defense = m
			g, err := gpusim.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := g.Run(k, 3)
			if err != nil {
				t.Fatal(err)
			}
			for pid, s := range res.DRAM {
				if s.MaxQueue != 1 {
					t.Errorf("%d lines, %s: partition %d peaked at %d queued requests, want 1",
						lines, m.Name(), pid, s.MaxQueue)
				}
			}
		}
	}

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
