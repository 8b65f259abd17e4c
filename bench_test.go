package rcoal

// The benchmark harness regenerates every table and figure of the
// paper (DESIGN.md §3 maps each bench to its artifact). Paper-artifact
// benches run the corresponding experiment at a reduced sample count
// so `go test -bench=.` completes in minutes; the rcoal-experiments
// CLI runs them at full scale. Micro-benchmarks below measure the
// building blocks (coalescing, plan generation, AES, the simulator,
// the attack inner loop, the analytical model).

import (
	"testing"

	"rcoal/internal/aes"
	"rcoal/internal/attack"
	"rcoal/internal/core"
	"rcoal/internal/gpusim"
	"rcoal/internal/kernels"
	"rcoal/internal/rng"
	"rcoal/internal/theory"
)

func runExperimentBench(b *testing.B, id string, samples int) {
	b.Helper()
	o := DefaultExperimentOptions()
	o.Samples = samples
	// No results store: every iteration computes every cell.
	o.Cache = nil
	for i := 0; i < b.N; i++ {
		if _, err := RunExperiment(id, o); err != nil {
			b.Fatal(err)
		}
	}
}

// --- One bench per paper artifact -------------------------------------------

func BenchmarkTable1ConfigValidation(b *testing.B) {
	cfg := DefaultGPUConfig()
	for i := 0; i < b.N; i++ {
		if err := cfg.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5TimingRelationship(b *testing.B)  { runExperimentBench(b, "fig5", 20) }
func BenchmarkFig6BaselineAttack(b *testing.B)      { runExperimentBench(b, "fig6", 20) }
func BenchmarkFig7FSSPerformance(b *testing.B)      { runExperimentBench(b, "fig7", 10) }
func BenchmarkFig8FSSAttack(b *testing.B)           { runExperimentBench(b, "fig8", 10) }
func BenchmarkFig9RSSDistributions(b *testing.B)    { runExperimentBench(b, "fig9", 2) }
func BenchmarkFig10WorkedExamples(b *testing.B)     { runExperimentBench(b, "fig10", 2) }
func BenchmarkFig12FSSRTSAttack(b *testing.B)       { runExperimentBench(b, "fig12", 10) }
func BenchmarkFig13RSSAttack(b *testing.B)          { runExperimentBench(b, "fig13", 10) }
func BenchmarkFig14RSSRTSAttack(b *testing.B)       { runExperimentBench(b, "fig14", 10) }
func BenchmarkFig15SecurityComparison(b *testing.B) { runExperimentBench(b, "fig15", 8) }
func BenchmarkFig16Performance(b *testing.B)        { runExperimentBench(b, "fig16", 8) }
func BenchmarkFig17RCoalScore(b *testing.B)         { runExperimentBench(b, "fig17", 8) }
func BenchmarkFig18CaseStudy1024(b *testing.B)      { runExperimentBench(b, "fig18", 3) }
func BenchmarkDisableCoalescing(b *testing.B)       { runExperimentBench(b, "nocoal", 3) }
func BenchmarkTable2Theory(b *testing.B)            { runExperimentBench(b, "table2", 2) }

// Extension and ablation benches (paper §VII future work + design
// choices called out in DESIGN.md).

func BenchmarkExtSelectiveRCoal(b *testing.B)    { runExperimentBench(b, "ext-selective", 10) }
func BenchmarkExtMemoryHierarchy(b *testing.B)   { runExperimentBench(b, "ext-hierarchy", 10) }
func BenchmarkExtInferSubwarps(b *testing.B)     { runExperimentBench(b, "ext-inferm", 8) }
func BenchmarkExtRSSDistribution(b *testing.B)   { runExperimentBench(b, "ext-rssdist", 10) }
func BenchmarkExtOtherModes(b *testing.B)        { runExperimentBench(b, "ext-modes", 10) }
func BenchmarkExtWorkloadPatterns(b *testing.B)  { runExperimentBench(b, "ext-workloads", 30) }
func BenchmarkExtEquation4(b *testing.B)         { runExperimentBench(b, "ext-eq4", 50) }
func BenchmarkExtRealisticAttacker(b *testing.B) { runExperimentBench(b, "ext-realistic", 30) }
func BenchmarkExtSensitivity(b *testing.B)       { runExperimentBench(b, "ext-sensitivity", 5) }
func BenchmarkExtEnergyModel(b *testing.B)       { runExperimentBench(b, "ext-energy", 30) }
func BenchmarkExtNoiseStudy(b *testing.B)        { runExperimentBench(b, "ext-noise", 20) }

// --- Micro-benchmarks: building blocks ---------------------------------------

func BenchmarkCoalesceWholeWarp(b *testing.B) {
	plan := core.Baseline().NewPlan(rng.New(1))
	src := rng.New(2)
	blocks := make([]uint64, 32)
	for i := range blocks {
		blocks[i] = uint64(src.Intn(16))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if plan.CountCoalesced(blocks, nil) == 0 {
			b.Fatal("no transactions")
		}
	}
}

func BenchmarkCoalesceSmallBlocksRSSRTS(b *testing.B) {
	plan := core.RSSRTS(8).NewPlan(rng.New(1))
	src := rng.New(2)
	blocks := make([]int, 32)
	for i := range blocks {
		blocks[i] = src.Intn(16)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if plan.CountSmallBlocks(blocks) == 0 {
			b.Fatal("no transactions")
		}
	}
}

func BenchmarkPlanGeneration(b *testing.B) {
	for _, cfg := range []core.Config{core.FSS(8), core.FSSRTS(8), core.RSS(8), core.RSSRTS(8)} {
		b.Run(cfg.Name(), func(b *testing.B) {
			r := rng.New(7)
			for i := 0; i < b.N; i++ {
				if cfg.NewPlan(r).NumSubwarps() != 8 {
					b.Fatal("bad plan")
				}
			}
		})
	}
}

func BenchmarkAESEncryptBlock(b *testing.B) {
	c, err := aes.NewCipher([]byte("0123456789abcdef"))
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 16)
	b.SetBytes(16)
	for i := 0; i < b.N; i++ {
		c.Encrypt(buf, buf)
	}
}

func BenchmarkAESTraceEncrypt(b *testing.B) {
	c, err := aes.NewCipher([]byte("0123456789abcdef"))
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 16)
	b.SetBytes(16)
	for i := 0; i < b.N; i++ {
		_, trace := c.TraceEncrypt(buf)
		if len(trace) != 10 {
			b.Fatal("bad trace")
		}
	}
}

func BenchmarkSimulatorEncrypt32Lines(b *testing.B) { benchEncrypt(b, 32, Baseline(), false) }

// BenchmarkSimulatorEncrypt32LinesVanilla runs the 32-line launch
// with fast-forward off; the joined pair gates what the one-warp
// launches of Figs. 15-17 lean on: a lone SM settling its
// transactions at issue, where the vanilla run queues and drains them
// one per cycle, and batched replies (Makefile `bench-gate`).
func BenchmarkSimulatorEncrypt32LinesVanilla(b *testing.B) { benchEncrypt(b, 32, Baseline(), true) }

// BenchmarkSimulatorEncrypt32LinesRSSRTS runs the 32-line launch under
// RSS+RTS(8), whose randomized subwarps give the long, unsorted reply
// trains that dominate Figs. 15-17; the baseline pair above has short,
// nearly sorted ones. Its Vanilla twin runs it with fast-forward off,
// and the joined pair is gated like the baseline's (Makefile
// `bench-gate`).
func BenchmarkSimulatorEncrypt32LinesRSSRTS(b *testing.B) {
	benchEncrypt(b, 32, RSSRTS(8), false)
}

func BenchmarkSimulatorEncrypt32LinesRSSRTSVanilla(b *testing.B) {
	benchEncrypt(b, 32, RSSRTS(8), true)
}

func BenchmarkSimulatorEncrypt1024Lines(b *testing.B) { benchEncrypt(b, 1024, Baseline(), false) }

// BenchmarkSimulatorEncrypt1024LinesVanilla runs the same launch with
// fast-forward off, the simulator's differential oracle; the joined
// pair gates the fast-forward core (Makefile `bench-gate`).
func BenchmarkSimulatorEncrypt1024LinesVanilla(b *testing.B) { benchEncrypt(b, 1024, Baseline(), true) }

func benchEncrypt(b *testing.B, lines int, defense Mechanism, ffDisabled bool) {
	cfg := DefaultGPUConfig()
	cfg.Defense = defense
	cfg.FastForwardDisabled = ffDisabled
	srv, err := NewServer(cfg, []byte("benchmark key!!!"))
	if err != nil {
		b.Fatal(err)
	}
	pt := RandomPlaintext(1, lines)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.Encrypt(pt, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAttackEstimateSample(b *testing.B) {
	plan := core.RSSRTS(8).NewPlan(rng.New(1))
	lines := kernels.RandomPlaintext(rng.New(2), 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if attack.EstimateSample(plan, lines, i%16, byte(i)) < 8 {
			b.Fatal("implausible estimate")
		}
	}
}

func BenchmarkAttackRecoverByte(b *testing.B) {
	srv, err := NewServer(DefaultGPUConfig(), []byte("benchmark key!!!"))
	if err != nil {
		b.Fatal(err)
	}
	ds, err := srv.Collect(30, 32, 5)
	if err != nil {
		b.Fatal(err)
	}
	cts := make([][]kernels.Line, len(ds.Samples))
	for i, s := range ds.Samples {
		cts[i] = s.Ciphertexts
	}
	times := ds.LastRoundTimes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		atk := attack.Baseline(uint64(i))
		if _, err := atk.RecoverByte(cts, times, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTheoryRhoFSSRTS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		md, _ := theory.NewModel(32, 16)
		if rho := md.RhoFSSRTS(16); rho < 0.02 || rho > 0.05 {
			b.Fatalf("rho = %v", rho)
		}
	}
}

func BenchmarkGPUCycleThroughput(b *testing.B) {
	// Cycles simulated per second: the simulator's headline speed.
	g, err := gpusim.New(gpusim.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	c, err := aes.NewCipher([]byte("benchmark key!!!"))
	if err != nil {
		b.Fatal(err)
	}
	kern, _, err := kernels.Build(c, kernels.RandomPlaintext(rng.New(3), 32))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var cycles int64
	for i := 0; i < b.N; i++ {
		res, err := g.Run(kern, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.Cycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
}

func BenchmarkGPUCycleThroughputMetricsOn(b *testing.B) {
	// Companion to BenchmarkGPUCycleThroughput with the metrics layer
	// installed: the delta between the two is the observability
	// overhead (README §Performance).
	cfg := gpusim.DefaultConfig()
	cfg.Metrics = gpusim.NewMetrics()
	g, err := gpusim.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	c, err := aes.NewCipher([]byte("benchmark key!!!"))
	if err != nil {
		b.Fatal(err)
	}
	kern, _, err := kernels.Build(c, kernels.RandomPlaintext(rng.New(3), 32))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var cycles int64
	for i := 0; i < b.N; i++ {
		res, err := g.Run(kern, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.Cycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
}
