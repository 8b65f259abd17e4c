package gpusim

import (
	"fmt"
	"reflect"
	"testing"

	"rcoal/internal/mechanism"
)

// This file enforces the copy-on-write prefix-fork determinism
// contract: for any selective-RCoal configuration, RunPrefix once +
// RunFork per mechanism is byte-identical to a full Run per mechanism.

// forkMechanisms spans the mechanism × subwarp-count grid the
// acceptance criteria require: ≥ 6 mechanism families × ≥ 3 subwarp
// counts.
func forkMechanisms() []mechanism.Mechanism {
	var out []mechanism.Mechanism
	out = append(out, mechanism.Baseline())
	for _, m := range []int{2, 4, 8} {
		out = append(out,
			mechanism.FSS(m),
			mechanism.FSSRTS(m),
			mechanism.RSS(m),
			mechanism.RSSRTS(m),
			mechanism.RSSNormal(m, 1.5),
		)
	}
	return out
}

// forkConfig returns a fork-eligible selective config with the given
// mechanism and vulnerable rounds.
func forkConfig(mech mechanism.Mechanism, vulnerable []int, mut func(*Config)) Config {
	cfg := DefaultConfig()
	cfg.Defense = mech
	cfg.VulnerableRounds = vulnerable
	if mut != nil {
		mut(&cfg)
	}
	return cfg
}

// TestForkByteIdenticalResults is the core differential: one prefix
// per (kernel, seed), forked across every mechanism and subwarp count,
// must reproduce the vanilla Run bit for bit.
func TestForkByteIdenticalResults(t *testing.T) {
	kern := randomKernel(11, 4, 4)
	vulnerable := []int{4} // last round, the paper's selective-RCoal case
	seeds := []uint64{1, 42, 0xdecaf}

	variants := []struct {
		name string
		mut  func(*Config)
	}{
		{"plain", nil},
		{"mshr", func(c *Config) { c.MSHREnabled = true }},
		{"ff-off", func(c *Config) { c.FastForwardDisabled = true }},
	}

	for _, variant := range variants {
		t.Run(variant.name, func(t *testing.T) {
			prefixGPU, err := New(forkConfig(mechanism.Baseline(), vulnerable, variant.mut))
			if err != nil {
				t.Fatal(err)
			}
			for _, seed := range seeds {
				snap, err := prefixGPU.RunPrefix(kern, seed)
				if err != nil {
					t.Fatalf("seed %d: RunPrefix: %v", seed, err)
				}
				if snap.Finished() {
					t.Fatalf("seed %d: prefix ran to completion; kernel should reach round 4", seed)
				}
				for _, mech := range forkMechanisms() {
					t.Run(fmt.Sprintf("%s/seed%d", mech.Name(), seed), func(t *testing.T) {
						cfg := forkConfig(mech, vulnerable, variant.mut)
						vanilla, err := New(cfg)
						if err != nil {
							t.Fatal(err)
						}
						want, err := vanilla.Run(kern, seed)
						if err != nil {
							t.Fatal(err)
						}
						forked, err := New(cfg)
						if err != nil {
							t.Fatal(err)
						}
						got, err := forked.RunFork(snap)
						if err != nil {
							t.Fatalf("RunFork: %v", err)
						}
						if !reflect.DeepEqual(want, got) {
							t.Fatalf("forked result differs from vanilla Run\nvanilla: cycles=%d totalTx=%d lastTx=%d\nforked:  cycles=%d totalTx=%d lastTx=%d",
								want.Cycles, want.TotalTx, want.RoundTx[4],
								got.Cycles, got.TotalTx, got.RoundTx[4])
						}
					})
				}
			}
		})
	}
}

// TestForkSnapshotImmutable forks one snapshot many times, with
// interleaved mechanisms and a shared fork GPU, and requires every
// same-mechanism fork to return identical results: consuming a
// snapshot must not mutate it.
func TestForkSnapshotImmutable(t *testing.T) {
	kern := randomKernel(3, 3, 4)
	vulnerable := []int{4}
	prefixGPU, err := New(forkConfig(mechanism.Baseline(), vulnerable, nil))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := prefixGPU.RunPrefix(kern, 42)
	if err != nil {
		t.Fatal(err)
	}

	mechA, mechB := mechanism.RSSRTS(8), mechanism.FSS(4)
	gA, err := New(forkConfig(mechA, vulnerable, nil))
	if err != nil {
		t.Fatal(err)
	}
	gB, err := New(forkConfig(mechB, vulnerable, nil))
	if err != nil {
		t.Fatal(err)
	}
	first, err := gA.RunFork(snap)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gB.RunFork(snap); err != nil {
		t.Fatal(err)
	}
	again, err := gA.RunFork(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, again) {
		t.Fatal("re-forking the same snapshot with the same mechanism changed the result")
	}
	// The prefix GPU itself must stay usable for fresh prefixes.
	snap2, err := prefixGPU.RunPrefix(kern, 42)
	if err != nil {
		t.Fatal(err)
	}
	third, err := gA.RunFork(snap2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, third) {
		t.Fatal("a fresh prefix of the same (kernel, seed) forked differently")
	}
}

// TestForkFinishedPrefix covers kernels that never reach a vulnerable
// round: the snapshot is Finished and forks still return the exact
// vanilla result.
func TestForkFinishedPrefix(t *testing.T) {
	kern := randomKernel(5, 2, 3) // rounds 1..3 only
	vulnerable := []int{9}
	prefixGPU, err := New(forkConfig(mechanism.Baseline(), vulnerable, nil))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := prefixGPU.RunPrefix(kern, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Finished() {
		t.Fatal("prefix should have run to completion")
	}
	mech := mechanism.RSSRTS(4)
	cfg := forkConfig(mech, vulnerable, nil)
	vanilla, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := vanilla.Run(kern, 7)
	if err != nil {
		t.Fatal(err)
	}
	forked, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := forked.RunFork(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("finished-prefix fork differs from vanilla Run")
	}
}

// TestForkGates pins the configurations forking must refuse.
func TestForkGates(t *testing.T) {
	kern := randomKernel(1, 2, 3)
	reject := []struct {
		name string
		cfg  Config
	}{
		{"no-vulnerable-rounds", forkConfig(mechanism.RSS(4), nil, nil)},
		{"plan-per-warp", forkConfig(mechanism.RSS(4), []int{3}, func(c *Config) { c.PlanPerWarp = true })},
		{"l1", forkConfig(mechanism.RSS(4), []int{3}, func(c *Config) { c.L1Enabled, c.L1 = true, DefaultL1() })},
		{"l2", forkConfig(mechanism.RSS(4), []int{3}, func(c *Config) { c.L2Enabled, c.L2 = true, DefaultL2() })},
	}
	for _, tc := range reject {
		t.Run(tc.name, func(t *testing.T) {
			g, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := g.RunPrefix(kern, 1); err == nil {
				t.Fatal("RunPrefix accepted a non-forkable config")
			}
		})
	}

	// Fork-incompatibility beyond the mechanism: differing
	// VulnerableRounds must be refused.
	prefixGPU, err := New(forkConfig(mechanism.Baseline(), []int{3}, nil))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := prefixGPU.RunPrefix(kern, 1)
	if err != nil {
		t.Fatal(err)
	}
	other, err := New(forkConfig(mechanism.RSS(4), []int{2}, nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.RunFork(snap); err == nil {
		t.Fatal("RunFork accepted a snapshot with different VulnerableRounds")
	}
}

// forkQueuedKernel builds a kernel of n warps whose prefix pauses
// while the last warp's transactions are queued at its SM: warp n-1
// opens with an uncoalesced load whose 32 transactions drain one per
// cycle, while warp 0 reaches the vulnerable round 4 after one ALU
// operation. On the default 15 SMs, 16 warps put warps 0 and 15 on
// SM 0; on one SM, 2 warps take one scheduler each and issue at once.
func forkQueuedKernel(n int) *Kernel {
	kern := &Kernel{Label: "fork-queued"}
	for wid := 0; wid < n; wid++ {
		scattered := make([]uint64, 32)
		for i := range scattered {
			scattered[i] = uint64(wid*32+i) * 64
		}
		first := Instr{Kind: ALU, Round: 1}
		if wid == n-1 {
			first = Instr{Kind: Load, Blocks: scattered, Round: 1}
		}
		kern.Warps = append(kern.Warps, &WarpProgram{ID: wid, Instrs: []Instr{
			{Kind: RoundMark, Round: 1}, first,
			{Kind: RoundMark, Round: 4}, {Kind: Load, Blocks: scattered, Round: 4},
			{Kind: RoundMark, Round: 0},
		}})
	}
	return kern
}

// oneSM configures a machine of one SM.
func oneSM(c *Config) { c.NumSMs = 1 }

// TestForkRestoresQueuedTransactions forks a launch whose prefix
// pauses while an SM's inject queue still holds transactions: the
// restore must hand them to the drain, or they never reach memory
// and the fork differs from (or never finishes like) a full Run. On
// one SM the fork settles its transactions at issue, so the restored
// queue must leave before any the fork issues.
func TestForkRestoresQueuedTransactions(t *testing.T) {
	vulnerable := []int{4}
	for _, c := range []struct {
		name string
		kern *Kernel
		mut  func(*Config)
	}{
		{"15sms", forkQueuedKernel(16), nil},
		{"1sm", forkQueuedKernel(2), oneSM},
	} {
		t.Run(c.name, func(t *testing.T) {
			prefixGPU, err := New(forkConfig(mechanism.Baseline(), vulnerable, c.mut))
			if err != nil {
				t.Fatal(err)
			}
			snap, err := prefixGPU.RunPrefix(c.kern, 7)
			if err != nil {
				t.Fatal(err)
			}
			queued := 0
			for _, ss := range snap.sms {
				queued += len(ss.injectQ)
			}
			if queued == 0 {
				t.Fatal("the prefix paused with every inject queue empty; the test needs a queued transaction")
			}
			for _, mech := range []mechanism.Mechanism{mechanism.Baseline(), mechanism.RSSRTS(8)} {
				cfg := forkConfig(mech, vulnerable, c.mut)
				vanilla, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				want, err := vanilla.Run(c.kern, 7)
				if err != nil {
					t.Fatal(err)
				}
				forked, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, err := forked.RunFork(snap)
				if err != nil {
					t.Fatalf("%s: RunFork: %v", mech.Name(), err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("%s: forked result differs from vanilla Run (%d queued transactions at the pause)", mech.Name(), queued)
				}
			}
		})
	}
}
