package gpusim

import (
	"cmp"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"rcoal/internal/faultinject"
	"rcoal/internal/gpusim/mem"
)

func TestConfigValidateRobustnessFields(t *testing.T) {
	good := DefaultConfig()
	good.MaxCycles = 1 << 20
	good.WatchdogWindow = 1 << 12
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}

	bad := DefaultConfig()
	bad.MaxCycles = -1
	if bad.Validate() == nil {
		t.Error("negative MaxCycles accepted")
	}
	bad = DefaultConfig()
	bad.WatchdogWindow = -5
	if bad.Validate() == nil {
		t.Error("negative WatchdogWindow accepted")
	}

	bad = DefaultConfig()
	bad.Faults = &faultinject.Plan{DRAMStall: &faultinject.DRAMStall{Partition: 6}}
	if bad.Validate() == nil {
		t.Error("out-of-range DRAMStall partition accepted")
	}
	bad.Faults = &faultinject.Plan{DRAMStall: &faultinject.DRAMStall{Partition: -1}}
	if err := bad.Validate(); err != nil {
		t.Errorf("stall-all partition (-1) rejected: %v", err)
	}
	bad.Faults = &faultinject.Plan{DropReply: &faultinject.DropReply{Port: 15, Nth: 1}}
	if bad.Validate() == nil {
		t.Error("out-of-range DropReply port accepted")
	}
	bad.Faults = &faultinject.Plan{DropReply: &faultinject.DropReply{Port: 0, Nth: 0}}
	if bad.Validate() == nil {
		t.Error("DropReply nth 0 accepted")
	}
}

// TestMaxCyclesStructuredError proves a budget-exhausted launch
// returns a typed error carrying a diagnostic snapshot instead of the
// old flat string.
func TestMaxCyclesStructuredError(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxCycles = 50 // far below any real kernel's runtime
	g := mustGPU(t, cfg)
	_, err := g.Run(testKernel(8, 32), 1)
	if !errors.Is(err, ErrMaxCycles) {
		t.Fatalf("err = %v, want ErrMaxCycles", err)
	}
	var mce *MaxCyclesError
	if !errors.As(err, &mce) {
		t.Fatalf("err %T does not unwrap to *MaxCyclesError", err)
	}
	if mce.MaxCycles != 50 || mce.Kernel != "test" || mce.Snapshot == nil {
		t.Errorf("MaxCyclesError = %+v, want budget 50, kernel test, snapshot", mce)
	}
}

// TestWatchdogTripsOnDRAMStall injects a frozen DRAM scheduler and
// asserts the run surfaces ErrNoProgress with a snapshot showing the
// stuck requests — rather than spinning to the cycle budget.
func TestWatchdogTripsOnDRAMStall(t *testing.T) {
	for _, ffDisabled := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.FastForwardDisabled = ffDisabled
		cfg.WatchdogWindow = 4096 // keep the test fast; default is 2^20
		cfg.Faults = &faultinject.Plan{DRAMStall: &faultinject.DRAMStall{Partition: -1}}
		g := mustGPU(t, cfg)
		_, err := g.Run(testKernel(2, 32), 1)
		if !errors.Is(err, ErrNoProgress) {
			t.Fatalf("ffDisabled=%v: err = %v, want ErrNoProgress", ffDisabled, err)
		}
		var npe *NoProgressError
		if !errors.As(err, &npe) {
			t.Fatalf("ffDisabled=%v: err %T does not unwrap to *NoProgressError", ffDisabled, err)
		}
		if npe.Snapshot == nil {
			t.Fatalf("ffDisabled=%v: no snapshot", ffDisabled)
		}
		queued := 0
		for _, p := range npe.Snapshot.Partitions {
			queued += p.Queued
		}
		if queued == 0 {
			t.Errorf("ffDisabled=%v: snapshot shows no queued DRAM requests:\n%s", ffDisabled, npe.Snapshot)
		}
		if npe.Snapshot.RemainingWarps == 0 {
			t.Errorf("ffDisabled=%v: snapshot claims all warps finished", ffDisabled)
		}
		if !strings.Contains(err.Error(), "no forward progress") ||
			!strings.Contains(err.Error(), "partition") {
			t.Errorf("ffDisabled=%v: undiagnostic error text:\n%s", ffDisabled, err)
		}
	}
}

// TestWatchdogSnapshotsMatchSteppingOnStalledDRAM cuts the one-warp
// wide-load launch short, with every controller parking every request,
// at budgets all through its first load's drain. Under fast-forward
// its lone SM settles the 32 transactions at issue, so all of them
// park at once; the snapshot must count as parked only those stepping
// has drained, the rest in the inject queue, and the budget, not the
// wedge, must end the launch.
func TestWatchdogSnapshotsMatchSteppingOnStalledDRAM(t *testing.T) {
	for budget := int64(1); budget < 32; budget++ {
		var snaps [2]*Snapshot
		for i, ffDisabled := range []bool{false, true} {
			cfg := DefaultConfig()
			cfg.FastForwardDisabled = ffDisabled
			cfg.MaxCycles = budget
			cfg.Faults = &faultinject.Plan{DRAMStall: &faultinject.DRAMStall{Partition: -1}}
			_, err := mustGPU(t, cfg).Run(wideLoadKernel(), 3)
			var mce *MaxCyclesError
			if !errors.As(err, &mce) {
				t.Fatalf("budget %d, fast-forward off %v: err = %v, want *MaxCyclesError", budget, ffDisabled, err)
			}
			snaps[i] = mce.Snapshot
		}
		if !reflect.DeepEqual(snaps[0], snaps[1]) {
			t.Fatalf("budget %d: fast-forward snapshot\n%s\nstepped snapshot\n%s", budget, snaps[0], snaps[1])
		}
	}
}

// TestWatchdogTripsOnSwallowedReply injects a lost crossbar reply: the
// requesting warp waits forever with nothing in flight. Fast-forward
// proves the wedge immediately; pure stepping trips via the window.
func TestWatchdogTripsOnSwallowedReply(t *testing.T) {
	for _, ffDisabled := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.FastForwardDisabled = ffDisabled
		cfg.WatchdogWindow = 4096
		cfg.Faults = &faultinject.Plan{DropReply: &faultinject.DropReply{Port: 0, Nth: 1}}
		g := mustGPU(t, cfg)
		// One load, all 32 threads on one block: exactly one reply, and
		// it is swallowed.
		_, err := g.Run(testKernel(1, 1), 1)
		var npe *NoProgressError
		if !errors.As(err, &npe) {
			t.Fatalf("ffDisabled=%v: err = %v, want *NoProgressError", ffDisabled, err)
		}
		blocked, prt := 0, 0
		for _, sm := range npe.Snapshot.SMs {
			blocked += sm.Blocked
			prt += sm.PRTEntries
		}
		if blocked != 1 || prt != 1 {
			t.Errorf("ffDisabled=%v: snapshot blocked=%d prt=%d, want 1/1:\n%s",
				ffDisabled, blocked, prt, npe.Snapshot)
		}
		if !ffDisabled && npe.Window != 0 {
			t.Errorf("fast-forward should prove the wedge immediately (window 0), got %d", npe.Window)
		}
	}
}

// TestWatchdogQuietOnHealthyRuns: a small window must never trip on a
// legitimate kernel, with and without fast-forward.
func TestWatchdogQuietOnHealthyRuns(t *testing.T) {
	for _, ffDisabled := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.FastForwardDisabled = ffDisabled
		cfg.WatchdogWindow = 4096
		g := mustGPU(t, cfg)
		if _, err := g.Run(testKernel(16, 32), 7); err != nil {
			t.Fatalf("ffDisabled=%v: healthy run tripped: %v", ffDisabled, err)
		}
	}
}

// TestWatchdogDeterminismUnaffected: the watchdog instrumentation must
// not change results; a faulted runtime that is re-run without faults
// would be a config change, so instead compare watchdog-on vs seed
// twin with a tiny window.
func TestWatchdogDeterminismUnaffected(t *testing.T) {
	base := mustGPU(t, DefaultConfig())
	cfg := DefaultConfig()
	cfg.WatchdogWindow = 4096
	cfg.MaxCycles = DefaultMaxCycles
	tight := mustGPU(t, cfg)
	r1, err := base.Run(testKernel(8, 16), 42)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := tight.Run(testKernel(8, 16), 42)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r2.Cycles || r1.TotalTx != r2.TotalTx {
		t.Errorf("watchdog changed results: cycles %d vs %d, tx %d vs %d",
			r1.Cycles, r2.Cycles, r1.TotalTx, r2.TotalTx)
	}
}

func TestSnapshotString(t *testing.T) {
	var s *Snapshot
	if got := s.String(); !strings.Contains(got, "no snapshot") {
		t.Errorf("nil snapshot String = %q", got)
	}
	full := &Snapshot{Cycle: 9, RemainingWarps: 1,
		SMs:        []SMSnapshot{{SM: 2, Warps: 3, Blocked: 1, PRTEntries: 4, InjectQueue: 2}},
		Partitions: []PartitionSnapshot{{Partition: 1, Queued: 5, InFlight: 2}}}
	got := full.String()
	for _, want := range []string{"cycle 9", "sm 2", "prt 4", "partition 1", "queued 5"} {
		if !strings.Contains(got, want) {
			t.Errorf("snapshot missing %q:\n%s", want, got)
		}
	}
}

// eventLog keeps every event it is given.
type eventLog struct{ events []Event }

func (l *eventLog) Emit(e Event) { l.events = append(l.events, e) }

// TestDropReplyInQueueOrder pins the DropReply seam: it swallows the
// Nth reply in the order the SM's port delivers them — by the cycle
// their data is ready — and books no port slot for it, so every later
// reply is delivered as if the swallowed one had never existed. Six
// warps on one SM load one block each from one partition, and 8-byte
// flits make every delivery wait for the port.
func TestDropReplyInQueueOrder(t *testing.T) {
	k := &Kernel{Label: "drop"}
	for w := 0; w < 6; w++ {
		block := uint64(w) // chunk 0: partition 0, bank 0, one row
		if w >= 4 {
			block = 6*4 + uint64(w-4) // chunk 6: partition 0, bank 1
		}
		blocks := make([]uint64, 32)
		for t := range blocks {
			blocks[t] = block
		}
		k.Warps = append(k.Warps, &WarpProgram{ID: w, Instrs: []Instr{{Kind: Load, Blocks: blocks}}})
	}
	run := func(drop *faultinject.DropReply) (done map[int]int64, replies []Event) {
		cfg := DefaultConfig()
		cfg.NumSMs = 1
		cfg.FlitBytes = 8
		cfg.WatchdogWindow = 4096
		sink := &eventLog{}
		cfg.Trace = sink
		if drop != nil {
			cfg.Faults = &faultinject.Plan{DropReply: drop}
		}
		_, err := mustGPU(t, cfg).Run(k, 1)
		if (err != nil) != (drop != nil) {
			t.Fatalf("drop %v: err = %v", drop, err)
		}
		done = map[int]int64{}
		for _, e := range sink.events {
			switch e.Kind {
			case EvDRAMService:
				done[e.Warp] = e.Cycle
			case EvReply:
				replies = append(replies, e)
			}
		}
		return done, replies
	}
	done, all := run(nil)
	order := make([]int, 0, len(done))
	for w := range done {
		order = append(order, w)
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(done[a], done[b]) })
	// deliveries is the port's arithmetic over the given warps' replies.
	cfg := DefaultConfig()
	deliveries := func(warps []int) []Event {
		var out []Event
		var next int64
		for _, w := range warps {
			at := max(done[w]+int64(cfg.ICNTLatency), next)
			next = at + mem.BlockBytes/8
			out = append(out, Event{Cycle: at, Kind: EvReply, Warp: w})
		}
		return out
	}
	if want := deliveries(order); !reflect.DeepEqual(all, want) {
		t.Fatalf("unfaulted replies %v, want %v", all, want)
	}
	for nth := 1; nth <= len(order); nth++ {
		gotDone, got := run(&faultinject.DropReply{Port: 0, Nth: uint64(nth)})
		if !reflect.DeepEqual(gotDone, done) {
			t.Fatalf("drop %d changed DRAM service: %v, want %v", nth, gotDone, done)
		}
		kept := slices.Delete(slices.Clone(order), nth-1, nth)
		if want := deliveries(kept); !reflect.DeepEqual(got, want) {
			t.Errorf("drop %d: replies %v, want %v (warp %d swallowed)", nth, got, want, order[nth-1])
		}
	}
}
