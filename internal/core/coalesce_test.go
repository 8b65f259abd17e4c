package core

import (
	"testing"
	"testing/quick"

	"rcoal/internal/rng"
)

func fullWarpPlan() Plan {
	sid := make([]uint8, 32)
	return Plan{Sizes: []int{32}, SID: sid}
}

func TestCoalescePerfect(t *testing.T) {
	// All 32 threads hit one block -> 1 transaction with 32 threads.
	blocks := make([]uint64, 32)
	txs := fullWarpPlan().Coalesce(blocks, nil)
	if len(txs) != 1 || len(txs[0].Threads) != 32 {
		t.Fatalf("perfect coalescing: %d txs", len(txs))
	}
}

func TestCoalesceWorstCase(t *testing.T) {
	blocks := make([]uint64, 32)
	for i := range blocks {
		blocks[i] = uint64(i)
	}
	txs := fullWarpPlan().Coalesce(blocks, nil)
	if len(txs) != 32 {
		t.Fatalf("worst case: %d txs, want 32", len(txs))
	}
}

func TestCoalesceRespectsActiveMask(t *testing.T) {
	blocks := make([]uint64, 32)
	active := make([]bool, 32)
	for i := 0; i < 4; i++ {
		active[i] = true
		blocks[i] = uint64(i % 2)
	}
	txs := fullWarpPlan().Coalesce(blocks, active)
	if len(txs) != 2 {
		t.Fatalf("masked coalescing: %d txs, want 2", len(txs))
	}
	n := 0
	for _, tx := range txs {
		n += len(tx.Threads)
	}
	if n != 4 {
		t.Fatalf("masked coalescing merged %d threads, want 4", n)
	}
}

func TestCoalesceThreadsSortedAndAttributed(t *testing.T) {
	p := Plan{Sizes: []int{16, 16}, SID: make([]uint8, 32)}
	for i := 16; i < 32; i++ {
		p.SID[i] = 1
	}
	blocks := make([]uint64, 32)
	for i := range blocks {
		blocks[i] = 7 // all same block, but two subwarps -> 2 txs
	}
	txs := p.Coalesce(blocks, nil)
	if len(txs) != 2 {
		t.Fatalf("got %d txs, want 2 (one per subwarp)", len(txs))
	}
	for _, tx := range txs {
		for i := 1; i < len(tx.Threads); i++ {
			if tx.Threads[i] <= tx.Threads[i-1] {
				t.Fatal("threads not in increasing order")
			}
		}
		for _, tid := range tx.Threads {
			if int(p.SID[tid]) != tx.SID {
				t.Fatalf("thread %d attributed to subwarp %d, has sid %d", tid, tx.SID, p.SID[tid])
			}
		}
	}
}

// randomAccess draws one warp-wide access: block keys of the given
// shape and, half the time, a random active mask (nil otherwise).
// Shapes: 0 is a 16-line table, 1 a 64-key window (span 63), 2 a
// 65-key window (span up to 64, so b%64 aliases), 3 a pool of eight
// arbitrary 64-bit keys.
func randomAccess(src *rng.Source, shape int) ([]uint64, []bool) {
	base := src.Uint64() >> 1
	var pool [8]uint64
	for i := range pool {
		pool[i] = src.Uint64()
	}
	blocks := make([]uint64, 32)
	for i := range blocks {
		switch shape {
		case 0:
			blocks[i] = uint64(src.Intn(16))
		case 1:
			blocks[i] = base + uint64(src.Intn(64))
		case 2:
			blocks[i] = base + uint64(src.Intn(65))
		default:
			blocks[i] = pool[src.Intn(len(pool))]
		}
	}
	if src.Intn(2) == 0 {
		return blocks, nil
	}
	active := make([]bool, 32)
	for i := range active {
		active[i] = src.Intn(4) != 0
	}
	return blocks, active
}

// TestCountMatchesCoalesce checks every coalescing variant against the
// reference Plan.Coalesce, for all four families at every M, over
// narrow and wide block keys with and without active masks:
// Subwarps.CoalesceBlocks, with and without group sizes, must agree in
// count, order and content, and the counting variants in count.
func TestCountMatchesCoalesce(t *testing.T) {
	r := rng.New(11)
	f := func(seed uint64, mRaw, shapeRaw uint8) bool {
		ms := []int{1, 2, 4, 8, 16, 32}
		m := ms[int(mRaw)%len(ms)]
		src := rng.New(seed)
		for _, cfg := range []Config{FSS(m), FSSRTS(m), RSS(m), RSSRTS(m)} {
			p := cfg.NewPlan(r)
			blocks, active := randomAccess(src, int(shapeRaw)%4)
			txs := p.Coalesce(blocks, active)
			want := len(txs)
			if p.CountCoalesced(blocks, active) != want {
				return false
			}
			if shapeRaw%4 == 0 {
				small := make([]int, 32)
				for i, b := range blocks {
					small[i] = int(b)
					if active != nil && !active[i] {
						small[i] = -1
					}
				}
				if p.CountSmallBlocks(small) != want {
					return false
				}
			}
			var sw Subwarps
			sw.Reset(p)
			lean, _ := sw.CoalesceBlocks(blocks, active, nil, nil, false)
			fb, fs := sw.CoalesceBlocks(blocks, active, nil, nil, true)
			if len(lean) != want || len(fb) != want || len(fs) != want {
				return false
			}
			for i, tx := range txs {
				if lean[i] != tx.Block || fb[i] != tx.Block || fs[i] != len(tx.Threads) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestCoalesceGroupSizesMatchThreadLists checks the group sizes of the
// fused variant against the reference thread lists, including when the
// outputs are appended to reused scratch slices (the simulator's
// hot-path usage).
func TestCoalesceGroupSizesMatchThreadLists(t *testing.T) {
	planRNG := rng.New(11)
	src := rng.New(12)
	mechs := []Config{Baseline(), FSS(4), FSSRTS(8), RSS(4), RSSRTS(8)}
	blockScratch, sizeScratch := make([]uint64, 0, 64), make([]int, 0, 64)
	var sw Subwarps
	for trial := 0; trial < 200; trial++ {
		plan := mechs[trial%len(mechs)].NewPlan(planRNG)
		sw.Reset(plan)
		blocks, mask := randomAccess(src, trial%4)
		txs := plan.Coalesce(blocks, mask)
		fb, fs := sw.CoalesceBlocks(blocks, mask, blockScratch[:0], sizeScratch[:0], true)
		if len(fb) != len(txs) || len(fs) != len(txs) {
			t.Fatalf("trial %d: fused lengths %d/%d, want %d", trial, len(fb), len(fs), len(txs))
		}
		for i, tx := range txs {
			if fb[i] != tx.Block || fs[i] != len(tx.Threads) {
				t.Fatalf("trial %d tx %d: fused (%d,%d), want (%d,%d)",
					trial, i, fb[i], fs[i], tx.Block, len(tx.Threads))
			}
		}
		blockScratch, sizeScratch = fb, fs
	}
}

func TestCoalesceGroupSizesLengthMismatchPanics(t *testing.T) {
	p := fullWarpPlan()
	var sw Subwarps
	sw.Reset(p)
	for name, fn := range map[string]func(){
		"fused short blocks": func() { sw.CoalesceBlocks(make([]uint64, 3), nil, nil, nil, true) },
		"fused short active": func() { sw.CoalesceBlocks(make([]uint64, len(p.SID)), make([]bool, 2), nil, nil, true) },
		"fused lockstep": func() {
			sw.CoalesceBlocks(make([]uint64, len(p.SID)), nil, make([]uint64, 1), nil, true)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestCountSmallBlocksInactive(t *testing.T) {
	p := fullWarpPlan()
	blocks := make([]int, 32)
	for i := range blocks {
		blocks[i] = -1 // all inactive
	}
	if got := p.CountSmallBlocks(blocks); got != 0 {
		t.Errorf("all inactive: %d, want 0", got)
	}
	blocks[5] = 3
	if got := p.CountSmallBlocks(blocks); got != 1 {
		t.Errorf("one active: %d, want 1", got)
	}
}

func TestCountSmallBlocksPanicsOnLargeBlock(t *testing.T) {
	p := fullWarpPlan()
	blocks := make([]int, 32)
	blocks[0] = 64
	defer func() {
		if recover() == nil {
			t.Fatal("block id 64 did not panic")
		}
	}()
	p.CountSmallBlocks(blocks)
}

func TestLengthMismatchesPanic(t *testing.T) {
	p := fullWarpPlan()
	for name, fn := range map[string]func(){
		"Coalesce":         func() { p.Coalesce(make([]uint64, 4), nil) },
		"CoalesceActive":   func() { p.Coalesce(make([]uint64, 32), make([]bool, 4)) },
		"CountCoalesced":   func() { p.CountCoalesced(make([]uint64, 4), nil) },
		"CountSmallBlocks": func() { p.CountSmallBlocks(make([]int, 4)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with mismatched length did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestSubwarpCountBounds(t *testing.T) {
	// Property: for any plan and access pattern, the coalesced count is
	// at least the whole-warp count (splitting can only break merges)
	// and at most min(warp size, whole-warp count + ... ) — concretely,
	// it is bounded by the number of active threads.
	r := rng.New(13)
	f := func(seed uint64, mRaw uint8) bool {
		ms := []int{2, 4, 8, 16, 32}
		m := ms[int(mRaw)%len(ms)]
		src := rng.New(seed)
		blocks := make([]uint64, 32)
		for i := range blocks {
			blocks[i] = uint64(src.Intn(16))
		}
		whole := fullWarpPlan().CountCoalesced(blocks, nil)
		for _, cfg := range []Config{FSS(m), FSSRTS(m), RSS(m), RSSRTS(m)} {
			p := cfg.NewPlan(r)
			got := p.CountCoalesced(blocks, nil)
			if got < whole || got > 32 {
				return false
			}
			// And the uncoalesced bound dominates everything.
			if got > countUncoalesced(blocks, nil) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMoreSubwarpsNeverImproveCoalescing(t *testing.T) {
	// FSS monotonicity: doubling M (nested refinement) cannot decrease
	// the access count — the performance cost curve of Figure 7a.
	src := rng.New(17)
	for trial := 0; trial < 100; trial++ {
		blocks := make([]uint64, 32)
		for i := range blocks {
			blocks[i] = uint64(src.Intn(16))
		}
		prev := 0
		for _, m := range []int{1, 2, 4, 8, 16, 32} {
			p := FSS(m).NewPlan(rng.New(1))
			got := p.CountCoalesced(blocks, nil)
			if got < prev {
				t.Fatalf("FSS(%d) count %d < previous %d", m, got, prev)
			}
			prev = got
		}
	}
}

// countUncoalesced returns the transaction count with coalescing
// disabled entirely: one access per active thread. This is the
// worst-case defense the paper rejects in Section III (up to 178%
// slowdown, 2.7x data movement), and the upper bound of every plan's
// count.
func countUncoalesced(blocks []uint64, active []bool) int {
	n := 0
	for tid := range blocks {
		if active == nil || active[tid] {
			n++
		}
	}
	return n
}

func TestCountUncoalesced(t *testing.T) {
	blocks := make([]uint64, 32)
	if got := countUncoalesced(blocks, nil); got != 32 {
		t.Errorf("countUncoalesced = %d, want 32", got)
	}
	active := make([]bool, 32)
	active[3] = true
	if got := countUncoalesced(blocks, active); got != 1 {
		t.Errorf("countUncoalesced masked = %d, want 1", got)
	}
}

func TestM32IsConstantCount(t *testing.T) {
	// num-subwarp = 32: every thread is alone, the count is always 32
	// regardless of addresses — the rho = 0 row of Table II.
	p := FSS(32).NewPlan(rng.New(19))
	src := rng.New(23)
	for trial := 0; trial < 50; trial++ {
		blocks := make([]uint64, 32)
		for i := range blocks {
			blocks[i] = uint64(src.Intn(16))
		}
		if got := p.CountCoalesced(blocks, nil); got != 32 {
			t.Fatalf("M=32 count = %d, want constant 32", got)
		}
	}
}

// TestSubwarpsWideWarpMatchesCoalesce checks CoalesceBlocks on warps
// wider than one 64-thread word against the reference Coalesce, with
// narrow and aliasing keys, active masks and group sizes.
func TestSubwarpsWideWarpMatchesCoalesce(t *testing.T) {
	planRNG, src := rng.New(29), rng.New(31)
	var sw Subwarps
	for trial := 0; trial < 100; trial++ {
		n := []int{65, 96, 128, 200}[trial%4]
		cfg := Config{NumSubwarps: []int{1, 3, 5}[trial%3], SizeDist: SizeSkewed, RandomThreads: trial%2 == 0, WarpSize: n}
		p := cfg.NewPlan(planRNG)
		sw.Reset(p)
		blocks, active := make([]uint64, n), []bool(nil)
		for i := range blocks {
			blocks[i] = uint64(src.Intn(16 + 100*(trial%2)))
		}
		if trial%3 == 0 {
			active = make([]bool, n)
			for i := range active {
				active[i] = src.Intn(3) != 0
			}
		}
		txs := p.Coalesce(blocks, active)
		got, sizes := sw.CoalesceBlocks(blocks, active, nil, nil, true)
		lean, _ := sw.CoalesceBlocks(blocks, active, nil, nil, false)
		if len(got) != len(txs) || len(lean) != len(txs) {
			t.Fatalf("trial %d: %d and %d transactions, want %d", trial, len(got), len(lean), len(txs))
		}
		for i, tx := range txs {
			if got[i] != tx.Block || lean[i] != tx.Block || sizes[i] != len(tx.Threads) {
				t.Fatalf("trial %d tx %d: (%d,%d,%d), want (%d,%d)", trial, i, got[i], lean[i], sizes[i], tx.Block, len(tx.Threads))
			}
		}
	}
}
