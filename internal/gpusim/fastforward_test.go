package gpusim

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"rcoal/internal/faultinject"
	"rcoal/internal/mechanism"
	"rcoal/internal/rng"
)

// This file enforces the determinism contract of the event-driven
// fast-forward core: for any (kernel, seed, configuration), the Result
// of a fast-forwarded run is byte-identical to the Result of a pure
// cycle-stepped run — same cycle count, same per-round windows, same
// coalesced-access counts, same DRAM/L1/L2 statistics.

// randomKernel builds a multi-warp kernel with a mix of instruction
// kinds, divergence, and per-round markers, stressing the scheduler
// and memory paths with irregular address patterns.
func randomKernel(seed uint64, warps, rounds int) *Kernel {
	r := rng.New(seed)
	k := &Kernel{Label: fmt.Sprintf("ff-random-%d", seed)}
	for wid := 0; wid < warps; wid++ {
		wp := &WarpProgram{ID: wid}
		for round := 1; round <= rounds; round++ {
			wp.Instrs = append(wp.Instrs, Instr{Kind: RoundMark, Round: round})
			wp.Instrs = append(wp.Instrs, Instr{Kind: ALU, Round: round})
			for l := 0; l < 3; l++ {
				blocks := make([]uint64, 32)
				for t := range blocks {
					blocks[t] = uint64(r.Intn(64)) // 64 blocks of table space
				}
				ins := Instr{Kind: Load, Blocks: blocks, Round: round}
				if l == 1 && r.Intn(2) == 0 {
					active := make([]bool, 32)
					for t := range active {
						active[t] = r.Intn(4) != 0
					}
					ins.Active = active
				}
				wp.Instrs = append(wp.Instrs, ins)
			}
		}
		wp.Instrs = append(wp.Instrs, Instr{Kind: RoundMark, Round: 0})
		// Trailing store (ciphertext writeback pattern).
		blocks := make([]uint64, 32)
		for t := range blocks {
			blocks[t] = uint64(64 + wid*32 + t)
		}
		wp.Instrs = append(wp.Instrs, Instr{Kind: Store, Blocks: blocks})
		k.Warps = append(k.Warps, wp)
	}
	return k
}

// saturatedKernel builds a DRAM-saturating kernel: every thread of
// every load reads its own block, scattered over 1 MiB so the requests
// hit every partition, every bank and many rows. Under the
// no-coalescing defense each load is 32 transactions, so the
// controllers' buses and banks stay busy for the whole launch and the
// partitions wake on in-flight data and crossbar arrivals.
func saturatedKernel(seed uint64, warps int) *Kernel {
	r := rng.New(seed)
	k := &Kernel{Label: fmt.Sprintf("ff-saturated-%d", seed)}
	for wid := 0; wid < warps; wid++ {
		wp := &WarpProgram{ID: wid}
		for round := 1; round <= 2; round++ {
			wp.Instrs = append(wp.Instrs, Instr{Kind: RoundMark, Round: round})
			for l := 0; l < 2; l++ {
				blocks := make([]uint64, 32)
				for t := range blocks {
					blocks[t] = uint64(r.Intn(1 << 14))
				}
				wp.Instrs = append(wp.Instrs, Instr{Kind: Load, Blocks: blocks, Round: round})
			}
		}
		k.Warps = append(k.Warps, wp)
	}
	return k
}

// onePartitionKernel builds a kernel whose every access maps to
// memory partition 0 (256-byte chunks interleave over six partitions),
// so the other five partitions stay idle for the whole launch.
func onePartitionKernel(seed uint64, warps int) *Kernel {
	r := rng.New(seed)
	k := &Kernel{Label: fmt.Sprintf("ff-one-partition-%d", seed)}
	for wid := 0; wid < warps; wid++ {
		wp := &WarpProgram{ID: wid}
		for round := 1; round <= 2; round++ {
			wp.Instrs = append(wp.Instrs, Instr{Kind: RoundMark, Round: round},
				Instr{Kind: ALU, Round: round})
			blocks := make([]uint64, 32)
			for t := range blocks {
				blocks[t] = uint64(6*r.Intn(16))*4 + uint64(r.Intn(4))
			}
			wp.Instrs = append(wp.Instrs, Instr{Kind: Load, Blocks: blocks, Round: round})
		}
		k.Warps = append(k.Warps, wp)
	}
	return k
}

// slowALUKernel builds a kernel whose ALU instructions take 100–400
// cycles, so scheduler and SM wake horizons lie beyond the visit
// calendar's reach and hop along its wheel.
func slowALUKernel(seed uint64, warps int) *Kernel {
	r := rng.New(seed)
	k := &Kernel{Label: fmt.Sprintf("ff-slow-alu-%d", seed)}
	for wid := 0; wid < warps; wid++ {
		wp := &WarpProgram{ID: wid}
		for round := 1; round <= 2; round++ {
			blocks := make([]uint64, 32)
			for t := range blocks {
				blocks[t] = uint64(r.Intn(64))
			}
			wp.Instrs = append(wp.Instrs, Instr{Kind: RoundMark, Round: round},
				Instr{Kind: ALU, Round: round, Latency: 100 + r.Intn(300)},
				Instr{Kind: Load, Blocks: blocks, Round: round})
		}
		k.Warps = append(k.Warps, wp)
	}
	return k
}

// overtakeKernel builds a kernel for a two-SM machine whose even warps
// (SM 0) queue long trains of transactions over partitions 2-5, warp 0
// first holding bank 0 of partition 0. Warp 1 (SM 1) repeatedly loads
// one block from that bank and one from partition 1, so its second
// reply overtakes its first, final one while SM 0's train still drains;
// the other odd warps idle. Draining ahead must stop at the earlier
// wake that overtaking reply gives SM 1.
func overtakeKernel() *Kernel {
	k := &Kernel{Label: "ff-overtake"}
	for wid := 0; wid < 16; wid++ {
		wp := &WarpProgram{ID: wid}
		switch {
		case wid%2 == 0:
			for i := 0; i < 2; i++ {
				blocks := make([]uint64, 32)
				for t := range blocks {
					blocks[t] = uint64(6*((wid*4+i)*8+t/4)+2+t%4) * 4
				}
				if wid == 0 && i == 0 {
					blocks[0] = 768 * 100 * 4 // partition 0, bank 0, row 100
				}
				wp.Instrs = append(wp.Instrs, Instr{Kind: Load, Blocks: blocks})
			}
		case wid == 1:
			for i := 0; i < 6; i++ {
				blocks := make([]uint64, 32)
				for t := range blocks {
					blocks[t] = uint64(768*i) * 4 // partition 0, bank 0, row i
					if t >= 16 {
						blocks[t] = uint64(6*i+1) * 4 // partition 1
					}
				}
				wp.Instrs = append(wp.Instrs, Instr{Kind: ALU, Latency: 10}, Instr{Kind: Load, Blocks: blocks})
			}
		default:
			wp.Instrs = append(wp.Instrs, Instr{Kind: ALU, Latency: 900})
		}
		k.Warps = append(k.Warps, wp)
	}
	return k
}

// ffVariant is one configuration point of the differential grid.
type ffVariant struct {
	name string
	mut  func(*Config)
}

func ffVariants() []ffVariant {
	return []ffVariant{
		{"paper-baseline", func(c *Config) {}},
		{"l1l2", func(c *Config) {
			c.L1Enabled, c.L1 = true, DefaultL1()
			c.L2Enabled, c.L2 = true, DefaultL2()
		}},
		{"mshr", func(c *Config) { c.MSHREnabled = true }},
		{"l1l2-mshr-randomized", func(c *Config) {
			c.L1Enabled, c.L1 = true, DefaultL1()
			c.L2Enabled, c.L2 = true, DefaultL2()
			c.MSHREnabled = true
			c.CacheRandomized = true
		}},
		{"nocoal", func(c *Config) { c.Defense = mechanism.NoCoal() }},
		{"selective", func(c *Config) { c.VulnerableRounds = []int{1, 4} }},
	}
}

func ffMechanisms() []mechanism.Mechanism {
	return []mechanism.Mechanism{
		mechanism.Baseline(),
		mechanism.FSS(8),
		mechanism.FSSRTS(4),
		mechanism.RSS(8),
		mechanism.RSSRTS(8),
		mechanism.RSSNormal(4, 1.5),
	}
}

var updateDigests = flag.Bool("update", false, "rewrite "+digestFile+" and "+selectiveDigestFile)

// digestFile pins the memory model: one line per subtest and seed of
// TestFastForwardByteIdenticalResults, "<subtest> <seed> <Result
// digest> [<Metrics digest>]", so a change to the model shows even
// when fast-forward on and off change alike. Regenerate with
// go test ./internal/gpusim -run 'TestFastForwardByteIdenticalResults$' -update
// only for a deliberate model change. -update rewrites the file from
// the lines the run computes, so it must run the whole test: a -run
// pattern that selects some subtests drops every other line.
const digestFile = "testdata/fastforward_digests.txt"

// digest returns the first 16 hex digits of the SHA-256 of v's JSON
// encoding (map keys sorted, so equal values digest equally).
func digest(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// loadDigests reads a digest file into a map keyed "<subtest> <seed>".
func loadDigests(t *testing.T, path string) map[string]string {
	t.Helper()
	out := map[string]string{}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 {
			t.Fatalf("%s: malformed line %q", path, sc.Text())
		}
		out[fields[0]+" "+fields[1]] = strings.Join(fields[2:], " ")
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// writeDigests rewrites a digest file from the map, sorted by key.
func writeDigests(t *testing.T, path string, digests map[string]string) {
	t.Helper()
	keys := make([]string, 0, len(digests))
	for k := range digests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %s\n", k, digests[k])
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestFastForwardByteIdenticalResults runs the same (kernel, seed)
// with fast-forward forced off and on across every mechanism, ablation
// variant, and several seeds, requiring deeply equal Results. The
// 4-warp kernel leaves at most one warp per scheduler; the 64-warp one
// puts two or three on each, so the per-scheduler wake horizons, the
// multi-warp L1/MSHR settle paths and scheduler arbitration are all
// compared against pure cycle-stepping. The 8-warp kernel leaves five
// partitions idle throughout, so fast-forward only skips if an idle
// partition's horizon reads "never". The 96-warp DRAM-saturated
// kernel runs under the no-coalescing defense only: it keeps every
// partition's wake horizon on in-flight DRAM data and crossbar
// arrivals, and recycles request slots under full load; it runs once
// more on an 80-SM machine, whose visit calendar spans two bitset
// words. The 12-warp kernel's ALU latencies and a 100-cycle crossbar
// put SM and partition wake horizons beyond the calendar's wheel. The
// two-SM overtake kernel lowers one SM's wake while the other's
// transactions still drain ahead. The one-warp kernels, with L2s off
// and on, are the launches a lone SM settles at issue. On the
// multi-warp and one-warp kernels the cycle-stepped run has metrics
// on, and a fast-forwarded metrics-on run must match its Result and
// its Metrics snapshot and skip cycles as the metrics-off one does.
// Both modes run one memory model, so each subtest and seed also
// matches digestFile: the fast-forward-off Result and, on the kernels
// run metrics-on, its Metrics snapshot.
func TestFastForwardByteIdenticalResults(t *testing.T) {
	pinned := map[string]string{}
	if *updateDigests {
		defer func() { writeDigests(t, digestFile, pinned) }()
	} else {
		pinned = loadDigests(t, digestFile)
	}
	nocoal := []mechanism.Mechanism{mechanism.NoCoal()}
	withL2 := func(c *Config) { c.L2Enabled, c.L2 = true, DefaultL2() }
	cases := []struct {
		kern    *Kernel
		mechs   []mechanism.Mechanism
		machine string        // subtest prefix naming mut
		mut     func(*Config) // a machine other than Table I's
	}{
		{randomKernel(11, 4, 4), ffMechanisms(), "", nil},
		{randomKernel(12, 64, 2), ffMechanisms(), "", nil},
		{onePartitionKernel(14, 8), ffMechanisms(), "", nil},
		{saturatedKernel(13, 96), nocoal, "", nil},
		{saturatedKernel(13, 96), nocoal, "80sms", func(c *Config) { c.NumSMs = 80 }},
		{slowALUKernel(15, 12), ffMechanisms(), "slow", func(c *Config) { c.ICNTLatency = 100 }},
		{overtakeKernel(), ffMechanisms(), "2sms", func(c *Config) { c.NumSMs = 2 }},
		{randomKernel(16, 1, 4), ffMechanisms(), "1warp", nil},
		{randomKernel(16, 1, 4), ffMechanisms(), "1warp-l2", withL2},
		{wideLoadKernel(), ffMechanisms(), "wide", nil},
		{wideLoadKernel(), ffMechanisms(), "wide-l2", withL2},
	}
	seeds := []uint64{1, 42, 0xdecaf}
	for _, c := range cases {
		kern := c.kern
		for _, variant := range ffVariants() {
			for _, mech := range c.mechs {
				multiWarp := len(kern.Warps) > 4
				name := fmt.Sprintf("%s/%s", variant.name, mech.Name())
				if multiWarp {
					name = fmt.Sprintf("%dwarps/%s", len(kern.Warps), name)
				}
				if c.machine != "" {
					name = c.machine + "/" + name
				}
				t.Run(name, func(t *testing.T) {
					cfg := DefaultConfig()
					cfg.Defense = mech
					if c.mut != nil {
						c.mut(&cfg)
					}
					variant.mut(&cfg)

					observe := multiWarp || len(kern.Warps) == 1
					slow := cfg
					slow.FastForwardDisabled = true
					if observe {
						slow.Metrics = NewMetrics()
					}
					gSlow := mustGPU(t, slow)
					gFast := mustGPU(t, cfg)
					var gMetrics *GPU
					if observe {
						withMetrics := cfg
						withMetrics.Metrics = NewMetrics()
						gMetrics = mustGPU(t, withMetrics)
					}
					for _, seed := range seeds {
						stepped, err := gSlow.Run(kern, seed)
						if err != nil {
							t.Fatal(err)
						}
						want := withoutMetrics(stepped)
						got, err := gFast.Run(kern, seed)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(want, got) {
							t.Fatalf("seed %d: fast-forward result differs\ncycle-stepped: cycles=%d totalTx=%d\nfast-forward:  cycles=%d totalTx=%d",
								seed, want.Cycles, want.TotalTx, got.Cycles, got.TotalTx)
						}
						if gFast.SkippedCycles == 0 && want.Cycles > 100 {
							t.Errorf("seed %d: fast-forward never skipped a cycle on a %d-cycle run", seed, want.Cycles)
						}
						key := fmt.Sprintf("%s %d", name, seed)
						sum := digest(t, want)
						if gMetrics == nil {
							pin(t, pinned, digestFile, key, sum)
							continue
						}
						observed, err := gMetrics.Run(kern, seed)
						if err != nil {
							t.Fatal(err)
						}
						if observed.Metrics == nil || stepped.Metrics == nil {
							t.Fatal("metrics-on run carries no Metrics snapshot")
						}
						if stripped := withoutMetrics(observed); !reflect.DeepEqual(want, stripped) {
							t.Fatalf("seed %d: metrics-on result differs from metrics-off\nmetrics-off: cycles=%d totalTx=%d\nmetrics-on:  cycles=%d totalTx=%d",
								seed, want.Cycles, want.TotalTx, stripped.Cycles, stripped.TotalTx)
						}
						if !reflect.DeepEqual(stepped.Metrics, observed.Metrics) {
							t.Fatalf("seed %d: fast-forward metrics differ\ncycle-stepped: %v\nfast-forward:  %v",
								seed, stepped.Metrics.Counters, observed.Metrics.Counters)
						}
						if gMetrics.SkippedCycles == 0 && want.Cycles > 100 {
							t.Errorf("seed %d: metrics-on fast-forward never skipped a cycle on a %d-cycle run", seed, want.Cycles)
						}
						pin(t, pinned, digestFile, key, sum+" "+digest(t, stepped.Metrics))
					}
				})
			}
		}
	}
}

// withoutMetrics returns a copy of res with no Metrics snapshot.
func withoutMetrics(res *Result) *Result {
	r := *res
	r.Metrics = nil
	return &r
}

// pin checks one subtest-and-seed's digests against the ones pinned
// in path, or records them under -update.
func pin(t *testing.T, pinned map[string]string, path, key, got string) {
	t.Helper()
	if *updateDigests {
		pinned[key] = got
		return
	}
	if want, ok := pinned[key]; !ok {
		t.Fatalf("%s: no pinned digest in %s", key, path)
	} else if got != want {
		t.Fatalf("%s: digests %s, pinned %s: the memory model changed", key, got, want)
	}
}

// TestFastForwardMetricsCountEverySlot requires the scheduler counters
// to count every slot: each scheduler with warps, on an SM with warps,
// issues or stalls once a cycle from 0 to Cycles, with fast-forward on
// and off, with caches off and on. The one-warp launch settles at
// issue; the others step their SMs only at their wakes.
func TestFastForwardMetricsCountEverySlot(t *testing.T) {
	for _, c := range []struct {
		kern *Kernel
		mech mechanism.Mechanism
	}{
		{randomKernel(16, 1, 4), mechanism.RSSRTS(8)},
		{randomKernel(11, 4, 4), mechanism.FSS(8)},
		{randomKernel(12, 64, 2), mechanism.Baseline()},
		{saturatedKernel(13, 96), mechanism.NoCoal()},
	} {
		for _, variant := range ffVariants()[:2] {
			for _, ffDisabled := range []bool{false, true} {
				cfg := DefaultConfig()
				cfg.Defense = c.mech
				variant.mut(&cfg)
				cfg.FastForwardDisabled = ffDisabled
				cfg.Metrics = NewMetrics()
				res, err := mustGPU(t, cfg).Run(c.kern, 5)
				if err != nil {
					t.Fatal(err)
				}
				schedulers := 0
				for sm := 0; sm < cfg.NumSMs; sm++ {
					onSM := (len(c.kern.Warps) + cfg.NumSMs - 1 - sm) / cfg.NumSMs
					schedulers += min(onSM, cfg.SchedulersPerSM)
				}
				n := res.Metrics.Counters
				got := n[MetricIssued] + n[MetricStallMemory] + n[MetricStallPipeline] + n[MetricStallIdle]
				if want := uint64(res.Cycles+1) * uint64(schedulers); got != want {
					t.Errorf("%d warps %s fast-forward disabled %v: issued+stalls = %d, want (%d+1) cycles x %d schedulers = %d",
						len(c.kern.Warps), variant.name, ffDisabled, got, res.Cycles, schedulers, want)
				}
			}
		}
	}
}

// TestFastForwardIdenticalAcrossReuse checks the runtime-reuse path:
// interleaving kernels of different warp counts (forcing rebuilds) and
// repeating seeds on a shared GPU must reproduce the results of fresh
// single-use GPUs, fast-forwarded or not.
func TestFastForwardIdenticalAcrossReuse(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Defense = mechanism.RSSRTS(8)
	shared, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	kerns := []*Kernel{randomKernel(1, 2, 3), randomKernel(2, 5, 2), randomKernel(3, 2, 4)}
	for round := 0; round < 2; round++ {
		for ki, kern := range kerns {
			seed := uint64(100*round + ki)
			got, err := shared.Run(kern, seed)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Run(kern, seed)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("round %d kernel %d: shared-GPU result differs from fresh-GPU result", round, ki)
			}
		}
	}
}

// TestFastForwardSkipsMostCycles pins the optimization itself: on a
// latency-bound single-warp kernel (each load coalesces to one
// transaction, so the machine sits idle for the full memory round
// trip) the event-driven core must elide the majority of cycles, not
// just a token few.
func TestFastForwardSkipsMostCycles(t *testing.T) {
	k := &Kernel{Label: "pointer-chase"}
	wp := &WarpProgram{ID: 0}
	for i := 0; i < 20; i++ {
		blocks := make([]uint64, 32)
		for t := range blocks {
			blocks[t] = uint64(i) // whole warp shares one block
		}
		wp.Instrs = append(wp.Instrs, Instr{Kind: Load, Blocks: blocks})
	}
	k.Warps = append(k.Warps, wp)

	g, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Run(k, 9)
	if err != nil {
		t.Fatal(err)
	}
	if g.SkippedCycles*2 < res.Cycles {
		t.Fatalf("skipped only %d of %d cycles; expected > half on a latency-bound kernel",
			g.SkippedCycles, res.Cycles)
	}
}

// wideLoadKernel builds a one-warp kernel whose every load coalesces
// to 32 transactions, one block per 256-byte chunk, so they spread
// over all six partitions and return as a long train of replies.
func wideLoadKernel() *Kernel {
	wp := &WarpProgram{ID: 0}
	for i := 0; i < 12; i++ {
		blocks := make([]uint64, 32)
		for t := range blocks {
			blocks[t] = uint64(i*32+t) * 4
		}
		wp.Instrs = append(wp.Instrs, Instr{Kind: Load, Blocks: blocks}, Instr{Kind: ALU})
	}
	return &Kernel{Label: "wide-loads", Warps: []*WarpProgram{wp}}
}

// TestFastForwardStepsFewCyclesOnWideLoads pins draining ahead and
// batched replies: the wide-load kernel keeps its SM blocked on long
// trains of transactions and replies. Stepping a cycle per drained
// transaction or per non-final reply visits over half the launch's
// cycles; visiting only where the warp can change state must stay
// under a tenth.
func TestFastForwardStepsFewCyclesOnWideLoads(t *testing.T) {
	g := mustGPU(t, DefaultConfig())
	res, err := g.Run(wideLoadKernel(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTx != 12*32 {
		t.Fatalf("%d transactions, want %d", res.TotalTx, 12*32)
	}
	if stepped := res.Cycles + 1 - g.SkippedCycles; stepped*10 > res.Cycles {
		t.Fatalf("stepped %d of %d cycles; want at most a tenth", stepped, res.Cycles)
	}
}

// TestFastForwardSettlesAtIssueOnALoneSM pins which launches settle
// their transactions at issue and which batch their replies: under
// fast-forward, the one-warp wide-load launch neither queues a
// transaction at its SM nor a reply, with L2s off or on and with
// metrics on; with an L1, MSHRs or a DropReply fault (one that never
// fires) it queues replies only; with fast-forward off and on two SMs
// it queues both. A fresh GPU's queues hold no storage until something
// is queued.
func TestFastForwardSettlesAtIssueOnALoneSM(t *testing.T) {
	with := func(mut func(*Config)) Config {
		cfg := DefaultConfig()
		mut(&cfg)
		return cfg
	}
	for _, c := range []struct {
		name            string
		cfg             Config
		kern            *Kernel
		queues, replies bool
	}{
		{"lone-sm", DefaultConfig(), wideLoadKernel(), false, false},
		{"lone-sm-l2", with(func(c *Config) { c.L2Enabled, c.L2 = true, DefaultL2() }), wideLoadKernel(), false, false},
		{"lone-sm-l1", with(func(c *Config) { c.L1Enabled, c.L1 = true, DefaultL1() }), wideLoadKernel(), false, true},
		{"lone-sm-mshr", with(func(c *Config) { c.MSHREnabled = true }), wideLoadKernel(), false, true},
		{"lone-sm-drop-reply", with(func(c *Config) {
			c.Faults = &faultinject.Plan{DropReply: &faultinject.DropReply{Port: 0, Nth: 1 << 40}}
		}), wideLoadKernel(), false, true},
		{"lone-sm-stepped", with(func(c *Config) { c.FastForwardDisabled = true }), wideLoadKernel(), true, true},
		{"lone-sm-metrics", with(func(c *Config) { c.Metrics = NewMetrics() }), wideLoadKernel(), false, false},
		{"two-sms", with(func(c *Config) { c.NumSMs = 2 }), sharedSMKernel(1), true, true},
	} {
		g := mustGPU(t, c.cfg)
		if _, err := g.Run(c.kern, 3); err != nil {
			t.Fatal(err)
		}
		queued, replied := false, false
		for _, sm := range g.rt.sms {
			queued = queued || sm.injectQ.Cap() > 0
			for i := range sm.replyQ.src {
				replied = replied || sm.replyQ.src[i].Cap() > 0
			}
		}
		if queued != c.queues {
			t.Errorf("%s: a transaction was queued: %v, want %v", c.name, queued, c.queues)
		}
		if replied != c.replies {
			t.Errorf("%s: a reply was queued: %v, want %v", c.name, replied, c.replies)
		}
	}
}

// TestFastForwardSnapshotsMatchStepping requires the state an error
// reports mid-launch to be the one stepping every cycle gives,
// although fast-forward takes non-final replies late and a lone warp
// settles its transactions and books its replies at issue: the
// MaxCycles snapshot at budgets all through the wide-load launch,
// through a one-warp launch that hits in its L2s, and through a
// two-warp launch on one SM that settles an uncoalesced load at issue
// while the other warp runs.
func TestFastForwardSnapshotsMatchStepping(t *testing.T) {
	snapshotsMatchStepping(t, wideLoadKernel(), 3, nil)
	snapshotsMatchStepping(t, randomKernel(16, 1, 4), 3, func(c *Config) { c.L2Enabled, c.L2 = true, DefaultL2() })
	snapshotsMatchStepping(t, queuedKernel(2), 7, oneSM)
}

// queuedKernel builds a kernel of n warps whose last warp opens with an
// uncoalesced load, 32 transactions that drain one per cycle, while
// the others run one ALU operation; then every warp loads 32 scattered
// blocks again in round 4. On one SM, 2 warps take one scheduler each
// and issue at once.
func queuedKernel(n int) *Kernel {
	kern := &Kernel{Label: "queued"}
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

// snapshotsMatchStepping requires the MaxCycles snapshots of the
// kernel's launch at budgets all through it to be equal with
// fast-forward on and off, under the default configuration changed by
// mut.
func snapshotsMatchStepping(t *testing.T, kern *Kernel, seed uint64, mut func(*Config)) {
	t.Helper()
	config := func(ffDisabled bool, budget int64) Config {
		cfg := DefaultConfig()
		if mut != nil {
			mut(&cfg)
		}
		cfg.FastForwardDisabled = ffDisabled
		cfg.MaxCycles = budget
		return cfg
	}
	full, err := mustGPU(t, config(true, 0)).Run(kern, seed)
	if err != nil {
		t.Fatal(err)
	}
	for budget := int64(1); budget < full.Cycles; budget += 7 {
		var snaps [2]*Snapshot
		for i, ffDisabled := range []bool{false, true} {
			_, err := mustGPU(t, config(ffDisabled, budget)).Run(kern, seed)
			var mce *MaxCyclesError
			if !errors.As(err, &mce) {
				t.Fatalf("budget %d: err = %v, want *MaxCyclesError", budget, err)
			}
			snaps[i] = mce.Snapshot
		}
		if !reflect.DeepEqual(snaps[0], snaps[1]) {
			t.Fatalf("budget %d: fast-forward snapshot\n%s\nstepped snapshot\n%s", budget, snaps[0], snaps[1])
		}
	}
}

// sharedSMKernel builds a kernel for a two-SM machine with five warps
// on each SM, whose replies interleave on the SM's port. Warps 0 and 1
// load from one bank of partition 0 on changing rows, so their last
// replies come late; warps 2-5 load a few blocks of the other
// partitions after an ALU instruction of random latency, so they
// often issue after warps 0 and 1 and complete before them; warps 6-9
// run random-latency ALU work, waking their SMs between replies.
func sharedSMKernel(seed uint64) *Kernel {
	r := rng.New(seed)
	k := &Kernel{Label: fmt.Sprintf("ff-shared-sm-%d", seed)}
	for wid := 0; wid < 10; wid++ {
		wp := &WarpProgram{ID: wid}
		for i := 0; i < 6; i++ {
			blocks := make([]uint64, 32)
			switch {
			case wid < 2:
				for t := range blocks {
					blocks[t] = uint64(768*(r.Intn(3)+3*wid)+6*16*(t%4)) * 4 // partition 0, bank 0
				}
				wp.Instrs = append(wp.Instrs, Instr{Kind: Load, Blocks: blocks})
			case wid < 6:
				for t := range blocks {
					blocks[t] = uint64(6*r.Intn(64)+1+r.Intn(5))*4 + uint64(t%2)
				}
				wp.Instrs = append(wp.Instrs, Instr{Kind: ALU, Latency: 1 + r.Intn(60)},
					Instr{Kind: Load, Blocks: blocks})
			default:
				wp.Instrs = append(wp.Instrs, Instr{Kind: ALU, Latency: 5 + r.Intn(120)})
			}
		}
		k.Warps = append(k.Warps, wp)
	}
	return k
}

// TestFastForwardMatchesSteppingOnSharedSMs runs the shared-SM kernel
// with fast-forward on and off, requiring deeply equal Results, and
// its MaxCycles snapshots through one launch equal. With several
// warps per SM the completion floor, not the count of pending
// replies, sets how long an SM sleeps, and a warp whose last
// transaction leaves the SM after the SM's step must still wake it
// at its last reply.
func TestFastForwardMatchesSteppingOnSharedSMs(t *testing.T) {
	twoSMs := func(c *Config) { c.NumSMs = 2 }
	for _, mech := range []mechanism.Mechanism{mechanism.Baseline(), mechanism.RSSRTS(8)} {
		for seed := uint64(1); seed <= 4; seed++ {
			cfg := DefaultConfig()
			cfg.Defense = mech
			twoSMs(&cfg)
			slow := cfg
			slow.FastForwardDisabled = true
			kern := sharedSMKernel(seed)
			want, err := mustGPU(t, slow).Run(kern, seed)
			if err != nil {
				t.Fatal(err)
			}
			got, err := mustGPU(t, cfg).Run(kern, seed)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s seed %d: fast-forward result differs\ncycle-stepped: cycles=%d totalTx=%d\nfast-forward:  cycles=%d totalTx=%d",
					mech.Name(), seed, want.Cycles, want.TotalTx, got.Cycles, got.TotalTx)
			}
		}
	}
	snapshotsMatchStepping(t, sharedSMKernel(1), 1, twoSMs)
}
