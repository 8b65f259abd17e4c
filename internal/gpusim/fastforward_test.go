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
				addrs := make([]uint64, 32)
				for t := range addrs {
					addrs[t] = uint64(r.Intn(64)) * 64 // 64 blocks of table space
				}
				ins := Instr{Kind: Load, Addrs: addrs, Round: round}
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
		addrs := make([]uint64, 32)
		for t := range addrs {
			addrs[t] = uint64(4096 + wid*2048 + t*64)
		}
		wp.Instrs = append(wp.Instrs, Instr{Kind: Store, Addrs: addrs})
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
				addrs := make([]uint64, 32)
				for t := range addrs {
					addrs[t] = uint64(r.Intn(1<<14)) * 64
				}
				wp.Instrs = append(wp.Instrs, Instr{Kind: Load, Addrs: addrs, Round: round})
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
			addrs := make([]uint64, 32)
			for t := range addrs {
				addrs[t] = uint64(6*r.Intn(16))*256 + uint64(r.Intn(4))*64
			}
			wp.Instrs = append(wp.Instrs, Instr{Kind: Load, Addrs: addrs, Round: round})
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
			addrs := make([]uint64, 32)
			for t := range addrs {
				addrs[t] = uint64(r.Intn(64)) * 64
			}
			wp.Instrs = append(wp.Instrs, Instr{Kind: RoundMark, Round: round},
				Instr{Kind: ALU, Round: round, Latency: 100 + r.Intn(300)},
				Instr{Kind: Load, Addrs: addrs, Round: round})
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
				addrs := make([]uint64, 32)
				for t := range addrs {
					addrs[t] = uint64(6*((wid*4+i)*8+t/4)+2+t%4) * 256
				}
				if wid == 0 && i == 0 {
					addrs[0] = 768 * 100 * 256 // partition 0, bank 0, row 100
				}
				wp.Instrs = append(wp.Instrs, Instr{Kind: Load, Addrs: addrs})
			}
		case wid == 1:
			for i := 0; i < 6; i++ {
				addrs := make([]uint64, 32)
				for t := range addrs {
					addrs[t] = uint64(768*i) * 256 // partition 0, bank 0, row i
					if t >= 16 {
						addrs[t] = uint64(6*i+1) * 256 // partition 1
					}
				}
				wp.Instrs = append(wp.Instrs, Instr{Kind: ALU, Latency: 10}, Instr{Kind: Load, Addrs: addrs})
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
		{"gto", func(c *Config) { c.Scheduler = GTO }},
		{"nocoal", func(c *Config) { c.Defense = mechanism.NoCoal() }},
		{"selective", func(c *Config) { c.VulnerableRounds = []int{1, 4} }},
		{"planperwarp", func(c *Config) { c.PlanPerWarp = true }},
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

var updateDigests = flag.Bool("update", false, "rewrite "+digestFile)

// digestFile pins the memory model: one line per subtest and seed of
// TestFastForwardByteIdenticalResults, "<subtest> <seed> <Result
// digest> [<Metrics digest>]", so a change to the model shows even
// when fast-forward on and off change alike. Regenerate with
// go test ./internal/gpusim -run 'TestFastForwardByteIdenticalResults$' -update
// only for a deliberate model change.
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

// loadDigests reads digestFile into a map keyed "<subtest> <seed>".
// A missing file reads as empty, so -update can create it.
func loadDigests(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	f, err := os.Open(digestFile)
	if os.IsNotExist(err) && *updateDigests {
		return out
	}
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 {
			t.Fatalf("%s: malformed line %q", digestFile, sc.Text())
		}
		out[fields[0]+" "+fields[1]] = strings.Join(fields[2:], " ")
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// writeDigests rewrites digestFile from the map, sorted by key.
func writeDigests(t *testing.T, digests map[string]string) {
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
	if err := os.WriteFile(digestFile, []byte(b.String()), 0o644); err != nil {
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
// transactions still drain ahead. On the multi-warp kernels a
// metrics-on run (which steps every SM and partition every cycle) must
// also match the metrics-off Result apart from the Metrics snapshot
// itself. Both modes run one memory model, so each subtest and seed
// also matches digestFile: the fast-forward-off Result and, on
// multi-warp kernels, the Metrics snapshot.
func TestFastForwardByteIdenticalResults(t *testing.T) {
	pinned := loadDigests(t)
	if *updateDigests {
		defer func() { writeDigests(t, pinned) }()
	}
	nocoal := []mechanism.Mechanism{mechanism.NoCoal()}
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

					slow := cfg
					slow.FastForwardDisabled = true
					gSlow := mustGPU(t, slow)
					gFast := mustGPU(t, cfg)
					var gMetrics *GPU
					if multiWarp {
						withMetrics := cfg
						withMetrics.Metrics = NewMetrics()
						gMetrics = mustGPU(t, withMetrics)
					}
					for _, seed := range seeds {
						want, err := gSlow.Run(kern, seed)
						if err != nil {
							t.Fatal(err)
						}
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
							pin(t, pinned, key, sum)
							continue
						}
						observed, err := gMetrics.Run(kern, seed)
						if err != nil {
							t.Fatal(err)
						}
						if observed.Metrics == nil {
							t.Fatal("metrics-on run carries no Metrics snapshot")
						}
						stripped := *observed
						stripped.Metrics = nil
						if !reflect.DeepEqual(want, &stripped) {
							t.Fatalf("seed %d: metrics-on result differs from metrics-off\nmetrics-off: cycles=%d totalTx=%d\nmetrics-on:  cycles=%d totalTx=%d",
								seed, want.Cycles, want.TotalTx, stripped.Cycles, stripped.TotalTx)
						}
						pin(t, pinned, key, sum+" "+digest(t, observed.Metrics))
					}
				})
			}
		}
	}
}

// pin checks one subtest-and-seed's digests against the pinned ones,
// or records them under -update.
func pin(t *testing.T, pinned map[string]string, key, got string) {
	t.Helper()
	if *updateDigests {
		pinned[key] = got
		return
	}
	if want, ok := pinned[key]; !ok {
		t.Fatalf("%s: no pinned digest in %s", key, digestFile)
	} else if got != want {
		t.Fatalf("%s: digests %s, pinned %s: the memory model changed", key, got, want)
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
		addrs := make([]uint64, 32)
		for t := range addrs {
			addrs[t] = uint64(i) * 64 // whole warp shares one block
		}
		wp.Instrs = append(wp.Instrs, Instr{Kind: Load, Addrs: addrs})
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
		addrs := make([]uint64, 32)
		for t := range addrs {
			addrs[t] = uint64(i*32+t) * 256
		}
		wp.Instrs = append(wp.Instrs, Instr{Kind: Load, Addrs: addrs}, Instr{Kind: ALU})
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

// TestFastForwardSnapshotsMatchStepping requires the state an error
// or a fork reports mid-launch to be the one stepping every cycle
// gives, although fast-forward takes non-final replies late: the
// MaxCycles snapshot at budgets all through the wide-load launch, and
// the prefix snapshot a fork resumes from.
func TestFastForwardSnapshotsMatchStepping(t *testing.T) {
	slow := DefaultConfig()
	slow.FastForwardDisabled = true
	full, err := mustGPU(t, slow).Run(wideLoadKernel(), 3)
	if err != nil {
		t.Fatal(err)
	}
	for budget := int64(1); budget < full.Cycles; budget += 7 {
		var snaps [2]*Snapshot
		for i, ffDisabled := range []bool{false, true} {
			cfg := DefaultConfig()
			cfg.FastForwardDisabled = ffDisabled
			cfg.MaxCycles = budget
			_, err := mustGPU(t, cfg).Run(wideLoadKernel(), 3)
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

	kern := randomKernel(11, 4, 4)
	var prefixes [2]*PrefixSnapshot
	for i, ffDisabled := range []bool{false, true} {
		cfg := forkConfig(mechanism.Baseline(), []int{4}, func(c *Config) { c.FastForwardDisabled = ffDisabled })
		snap, err := mustGPU(t, cfg).RunPrefix(kern, 42)
		if err != nil {
			t.Fatal(err)
		}
		snap.cfg = Config{}
		prefixes[i] = snap
	}
	if !reflect.DeepEqual(prefixes[0], prefixes[1]) {
		t.Fatalf("prefix snapshots differ: paused at %d and %d", prefixes[0].cycle, prefixes[1].cycle)
	}
}
