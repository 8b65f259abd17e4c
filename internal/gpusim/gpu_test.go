package gpusim

import (
	"testing"

	"rcoal/internal/core"
	"rcoal/internal/mechanism"
)

// testKernel builds a one-warp kernel: `loads` global loads whose 32
// threads each touch `spread` distinct blocks, tagged as round 1,
// bracketed by round markers.
func testKernel(loads, spread int) *Kernel {
	wp := &WarpProgram{ID: 0}
	wp.Instrs = append(wp.Instrs, Instr{Kind: RoundMark, Round: 1})
	for l := 0; l < loads; l++ {
		blocks := make([]uint64, 32)
		for t := 0; t < 32; t++ {
			blocks[t] = uint64(t % spread)
		}
		wp.Instrs = append(wp.Instrs, Instr{Kind: Load, Blocks: blocks, Round: 1})
		wp.Instrs = append(wp.Instrs, Instr{Kind: ALU, Round: 1})
	}
	wp.Instrs = append(wp.Instrs, Instr{Kind: RoundMark, Round: 0})
	return &Kernel{Warps: []*WarpProgram{wp}, Label: "test"}
}

func mustGPU(t *testing.T, cfg Config) *GPU {
	t.Helper()
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.NumSMs = 0
	if bad.Validate() == nil {
		t.Error("NumSMs=0 accepted")
	}
	bad = DefaultConfig()
	bad.SIMTLanes = 7
	if bad.Validate() == nil {
		t.Error("non-dividing SIMTLanes accepted")
	}
	bad = DefaultConfig()
	bad.Defense = mechanism.FSS(3) // FSS(3) invalid for warp 32
	if bad.Validate() == nil {
		t.Error("invalid defense mechanism accepted")
	}
	bad = DefaultConfig()
	bad.Defense = mechanism.Subwarp(core.Config{NumSubwarps: 2, WarpSize: 16})
	if bad.Validate() == nil {
		t.Error("mismatched defense warp size accepted")
	}
}

func TestKernelValidate(t *testing.T) {
	k := testKernel(2, 4)
	if err := k.Validate(32); err != nil {
		t.Fatal(err)
	}
	if err := k.Validate(16); err == nil {
		t.Error("wrong warp size accepted")
	}
	empty := &Kernel{Label: "empty"}
	if err := empty.Validate(32); err == nil {
		t.Error("empty kernel accepted")
	}
	if got := memInstrs(k); got != 2 {
		t.Errorf("memInstrs = %d, want 2", got)
	}
}

func TestRunCompletesAndCounts(t *testing.T) {
	g := mustGPU(t, DefaultConfig())
	res, err := g.Run(testKernel(4, 8), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 {
		t.Error("no cycles elapsed")
	}
	// Baseline coalescing: 8 distinct blocks per load, 4 loads.
	if res.TotalTx != 32 {
		t.Errorf("TotalTx = %d, want 32", res.TotalTx)
	}
	if res.RoundTx[1] != 32 {
		t.Errorf("RoundTx[1] = %d, want 32", res.RoundTx[1])
	}
	if res.RoundWindow(1) <= 0 {
		t.Error("round 1 window empty")
	}
	if res.Warps[0].Finish <= 0 {
		t.Error("warp finish not recorded")
	}
}

func TestDeterminism(t *testing.T) {
	g := mustGPU(t, DefaultConfig())
	a, err := g.Run(testKernel(6, 6), 99)
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Run(testKernel(6, 6), 99)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.TotalTx != b.TotalTx {
		t.Errorf("same seed diverged: %d/%d cycles, %d/%d txs", a.Cycles, b.Cycles, a.TotalTx, b.TotalTx)
	}
}

func TestSubwarpsIncreaseTransactionsAndTime(t *testing.T) {
	// FSS monotonicity end-to-end: more subwarps -> more transactions
	// -> more cycles (Figure 7a's trend).
	var prevTx uint64
	var prevCycles int64
	for _, m := range []int{1, 4, 16, 32} {
		cfg := DefaultConfig()
		cfg.Defense = mechanism.FSS(m)
		g := mustGPU(t, cfg)
		res, err := g.Run(testKernel(8, 8), 7)
		if err != nil {
			t.Fatal(err)
		}
		if res.TotalTx < prevTx {
			t.Errorf("FSS(%d): tx %d < previous %d", m, res.TotalTx, prevTx)
		}
		if res.Cycles < prevCycles {
			t.Errorf("FSS(%d): cycles %d < previous %d", m, res.Cycles, prevCycles)
		}
		prevTx, prevCycles = res.TotalTx, res.Cycles
	}
}

func TestCoalescingDisabledWorstCase(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Defense = mechanism.NoCoal()
	g := mustGPU(t, cfg)
	res, err := g.Run(testKernel(4, 8), 1)
	if err != nil {
		t.Fatal(err)
	}
	// 32 threads x 4 loads, no merging.
	if res.TotalTx != 128 {
		t.Errorf("TotalTx = %d, want 128", res.TotalTx)
	}

	base := mustGPU(t, DefaultConfig())
	bres, _ := base.Run(testKernel(4, 8), 1)
	if res.Cycles <= bres.Cycles {
		t.Errorf("disabled coalescing (%d cycles) not slower than baseline (%d)", res.Cycles, bres.Cycles)
	}
}

func TestPredicatedOffLoad(t *testing.T) {
	// A fully inactive load must not deadlock the warp.
	wp := &WarpProgram{ID: 0}
	blocks := make([]uint64, 32)
	active := make([]bool, 32) // all off
	wp.Instrs = []Instr{
		{Kind: Load, Blocks: blocks, Active: active},
		{Kind: ALU},
	}
	g := mustGPU(t, DefaultConfig())
	res, err := g.Run(&Kernel{Warps: []*WarpProgram{wp}, Label: "masked"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTx != 0 {
		t.Errorf("TotalTx = %d, want 0", res.TotalTx)
	}
}

func TestEndsOnALU(t *testing.T) {
	wp := &WarpProgram{ID: 0, Instrs: []Instr{{Kind: ALU}, {Kind: ALU}}}
	g := mustGPU(t, DefaultConfig())
	res, err := g.Run(&Kernel{Warps: []*WarpProgram{wp}, Label: "alu"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 {
		t.Error("ALU-only kernel did not run")
	}
}

func TestMultiWarpDistribution(t *testing.T) {
	// 30 warps over 15 SMs: all must complete; total tx = 30x one
	// warp's count.
	var warps []*WarpProgram
	for i := 0; i < 30; i++ {
		wp := &WarpProgram{ID: i}
		wp.Instrs = append(wp.Instrs, Instr{Kind: RoundMark, Round: 1})
		for l := 0; l < 4; l++ {
			blocks := make([]uint64, 32)
			for t := 0; t < 32; t++ {
				// Give each warp its own address region, spread over
				// partitions and banks (7 chunks per warp; 7 is coprime
				// to both the partition count and the bank count), so
				// the test exercises SM parallelism rather than DRAM
				// bank conflicts.
				blocks[t] = uint64(i)*7*4 + uint64(t%8)
			}
			wp.Instrs = append(wp.Instrs, Instr{Kind: Load, Blocks: blocks, Round: 1})
		}
		wp.Instrs = append(wp.Instrs, Instr{Kind: RoundMark, Round: 0})
		warps = append(warps, wp)
	}
	g := mustGPU(t, DefaultConfig())
	res, err := g.Run(&Kernel{Warps: warps, Label: "multi"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTx != 30*32 {
		t.Errorf("TotalTx = %d, want %d", res.TotalTx, 30*32)
	}
	for i := range res.Warps {
		if res.Warps[i].Finish <= 0 {
			t.Errorf("warp %d never finished", i)
		}
	}
	// Parallel warps on separate SMs must beat serial execution (30x a
	// single warp); DRAM bandwidth and row conflicts keep it well above
	// 1x.
	sres, _ := g.Run(testKernel(4, 8), 5)
	if res.Cycles >= sres.Cycles*30/2 {
		t.Errorf("30 warps took %d cycles vs single %d: no parallelism", res.Cycles, sres.Cycles)
	}
}

func TestRoundWindowsNested(t *testing.T) {
	// Two rounds in sequence: round 1 must end no later than round 2
	// starts.
	wp := &WarpProgram{ID: 0}
	blocks := make([]uint64, 32)
	for t := range blocks {
		blocks[t] = uint64(t)
	}
	wp.Instrs = []Instr{
		{Kind: RoundMark, Round: 1},
		{Kind: Load, Blocks: blocks, Round: 1},
		{Kind: RoundMark, Round: 2},
		{Kind: Load, Blocks: blocks, Round: 2},
		{Kind: RoundMark, Round: 0},
	}
	g := mustGPU(t, DefaultConfig())
	res, err := g.Run(&Kernel{Warps: []*WarpProgram{wp}, Label: "rounds"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := res.Warps[0]
	if w.RoundStart[1] < 0 || w.RoundEnd[1] < 0 || w.RoundStart[2] < 0 || w.RoundEnd[2] < 0 {
		t.Fatalf("round windows not recorded: %+v %+v", w.RoundStart[:3], w.RoundEnd[:3])
	}
	if w.RoundEnd[1] > w.RoundStart[2] {
		t.Errorf("round 1 ends at %d after round 2 starts at %d", w.RoundEnd[1], w.RoundStart[2])
	}
	if roundCycles(&w, 1) <= 0 || roundCycles(&w, 2) <= 0 {
		t.Error("round cycles not positive")
	}
	if res.RoundTx[1] != 32 || res.RoundTx[2] != 32 {
		t.Errorf("round tx: %d, %d; want 32, 32", res.RoundTx[1], res.RoundTx[2])
	}
}

func TestTimeTracksTransactions(t *testing.T) {
	// Core timing property for the attack: cycles grow with the number
	// of coalesced transactions (Figure 5's proportionality).
	g := mustGPU(t, DefaultConfig())
	var prev int64
	for _, spread := range []int{1, 4, 8, 16, 32} {
		res, err := g.Run(testKernel(16, spread), 3)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cycles <= prev {
			t.Errorf("spread %d: cycles %d not greater than %d", spread, res.Cycles, prev)
		}
		prev = res.Cycles
	}
}

func TestRunSeedChangesPlanForRSS(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Defense = mechanism.RSSRTS(4)
	g := mustGPU(t, cfg)
	a, err := g.Run(testKernel(2, 8), 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Run(testKernel(2, 8), 2)
	if err != nil {
		t.Fatal(err)
	}
	sameSizes := true
	for i := range a.Plan.Sizes {
		if a.Plan.Sizes[i] != b.Plan.Sizes[i] {
			sameSizes = false
		}
	}
	sameSID := true
	for i := range a.Plan.SID {
		if a.Plan.SID[i] != b.Plan.SID[i] {
			sameSID = false
		}
	}
	if sameSizes && sameSID {
		t.Error("different seeds produced identical RSS+RTS plans")
	}
}

// roundCycles returns the cycle window of round r of a warp, or 0 if
// it did not run.
func roundCycles(w *WarpStats, r int) int64 {
	if r < 0 || r > MaxRounds || w.RoundStart[r] < 0 || w.RoundEnd[r] < 0 {
		return 0
	}
	return w.RoundEnd[r] - w.RoundStart[r]
}

// memInstrs counts the global-memory instructions in a kernel.
func memInstrs(k *Kernel) int {
	n := 0
	for _, w := range k.Warps {
		for _, ins := range w.Instrs {
			if ins.Kind == Load || ins.Kind == Store {
				n++
			}
		}
	}
	return n
}
