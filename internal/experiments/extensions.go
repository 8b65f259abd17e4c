package experiments

import (
	"fmt"
	"strings"

	"rcoal/internal/aesgpu"
	"rcoal/internal/attack"
	"rcoal/internal/gpusim"
	"rcoal/internal/mechanism"
	"rcoal/internal/report"
	"rcoal/internal/stats"
)

// This file goes beyond the paper's evaluation: the two §VII future-
// work directions (selective RCoal; randomization across the memory
// hierarchy) and ablations of this reproduction's design choices
// (cache/MSHR substrate, RSS size distribution).

func init() {
	Registry["ext-selective"] = func(o Options) (Result, error) { return ExtSelective(o) }
	Registry["ext-hierarchy"] = func(o Options) (Result, error) { return ExtHierarchy(o) }
	Registry["ext-inferm"] = func(o Options) (Result, error) { return ExtInferM(o) }
	Registry["ext-rssdist"] = func(o Options) (Result, error) { return ExtRSSDist(o) }
}

// --- ext-selective: future work #1 -------------------------------------------

// ExtSelectiveRow is one configuration of the selective-RCoal study.
type ExtSelectiveRow struct {
	Label string
	// NormCycles is execution time normalized to the undefended
	// baseline.
	NormCycles float64
	// LastRoundCorr is the corresponding attack's full-key estimate
	// correlation against observed last-round accesses (1 = channel
	// intact, ≈0 = closed).
	LastRoundCorr float64
}

// ExtSelectiveResult evaluates selective RCoal (§VII future work #1):
// randomizing only the vulnerable last round should keep the last
// round's protection while recovering most of the performance.
type ExtSelectiveResult struct {
	Rows []ExtSelectiveRow
}

// ExtSelective compares undefended, full-RCoal, and selective-RCoal
// configurations.
func ExtSelective(o Options) (*ExtSelectiveResult, error) {
	policy := mechanism.RSSRTS(8)
	configs := []struct {
		label string
		mut   func(*gpusim.Config)
	}{
		{"baseline (no defense)", func(c *gpusim.Config) {}},
		{"full RCoal RSS+RTS(8)", func(c *gpusim.Config) { c.Defense = policy }},
		{"selective: round 10 only", func(c *gpusim.Config) {
			c.Defense = policy
			c.VulnerableRounds = []int{10}
		}},
		{"selective: rounds 1+10", func(c *gpusim.Config) {
			c.Defense = policy
			c.VulnerableRounds = []int{1, 10}
		}},
	}
	res := &ExtSelectiveResult{}
	baseCycles := 0.0
	for i, cc := range configs {
		cfg := o.gpuConfig()
		cc.mut(&cfg)
		srv, ds, err := collectCfg(o, cfg)
		if err != nil {
			return nil, err
		}
		mean := 0.0
		for _, s := range ds.Samples {
			mean += float64(s.TotalCycles)
		}
		mean /= float64(len(ds.Samples))
		if i == 0 {
			baseCycles = mean
		}

		atk, err := attack.New(cfg.Defense, o.Seed^0x5E1)
		if err != nil {
			return nil, err
		}
		corr, err := fullKeyEstimateCorrelation(atk, ciphertexts(ds), ds.ObservedLastRoundTx(), srv.LastRoundKey())
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, ExtSelectiveRow{
			Label:         cc.label,
			NormCycles:    mean / baseCycles,
			LastRoundCorr: corr,
		})
	}
	return res, nil
}

// Render implements Result.
func (r *ExtSelectiveResult) Render() string {
	var b strings.Builder
	b.WriteString("Extension (paper §VII future work #1): selective RCoal\n\n")
	t := &report.Table{Headers: []string{"configuration", "time (x baseline)", "last-round channel corr"}}
	for _, row := range r.Rows {
		t.AddRow(row.Label, row.NormCycles, row.LastRoundCorr)
	}
	b.WriteString(t.String())
	b.WriteString("\nRandomizing only the vulnerable round keeps the last-round channel closed\n" +
		"while recovering most of the full-RCoal slowdown.\n")
	return b.String()
}

// --- ext-hierarchy: substrate ablation + future work #2 ----------------------

// ExtHierarchyRow is one memory-hierarchy configuration.
type ExtHierarchyRow struct {
	Label string
	// NormCycles is execution time normalized to the paper baseline
	// (no caches, no MSHR).
	NormCycles float64
	// DRAMAccesses is the mean DRAM traffic per encryption.
	DRAMAccesses float64
	// ChannelCorr is ρ(true last-round accesses, last-round time): how
	// much of the timing channel survives this hierarchy.
	ChannelCorr float64
}

// ExtHierarchyResult quantifies how the cache hierarchy and MSHR
// merging — which the paper disables — interact with the timing
// channel, including the future-work randomized cache indexing.
type ExtHierarchyResult struct {
	Rows []ExtHierarchyRow
}

// ExtHierarchy sweeps memory-hierarchy configurations under baseline
// coalescing.
func ExtHierarchy(o Options) (*ExtHierarchyResult, error) {
	configs := []struct {
		label string
		mut   func(*gpusim.Config)
	}{
		{"paper baseline (no caches)", func(c *gpusim.Config) {}},
		{"+MSHR merging", func(c *gpusim.Config) { c.MSHREnabled = true }},
		{"+L2", func(c *gpusim.Config) { c.L2Enabled = true; c.L2 = gpusim.DefaultL2() }},
		{"+L1+L2", func(c *gpusim.Config) {
			c.L1Enabled = true
			c.L1 = gpusim.DefaultL1()
			c.L2Enabled = true
			c.L2 = gpusim.DefaultL2()
		}},
		{"+L1+L2, randomized index", func(c *gpusim.Config) {
			c.L1Enabled = true
			c.L1 = gpusim.DefaultL1()
			c.L2Enabled = true
			c.L2 = gpusim.DefaultL2()
			c.CacheRandomized = true
		}},
	}
	res := &ExtHierarchyResult{}
	baseCycles := 0.0
	for i, cc := range configs {
		cfg := o.gpuConfig()
		cc.mut(&cfg)
		_, ds, err := collectCfg(o, cfg)
		if err != nil {
			return nil, err
		}
		row := ExtHierarchyRow{Label: cc.label}
		mean := 0.0
		for _, s := range ds.Samples {
			mean += float64(s.TotalCycles)
		}
		mean /= float64(len(ds.Samples))
		if i == 0 {
			baseCycles = mean
		}
		row.NormCycles = mean / baseCycles

		for _, smp := range ds.Samples {
			row.DRAMAccesses += float64(smp.DRAMAccesses)
		}
		row.DRAMAccesses /= float64(len(ds.Samples))

		row.ChannelCorr, err = channelCorrelation(ds)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render implements Result.
func (r *ExtHierarchyResult) Render() string {
	var b strings.Builder
	b.WriteString("Extension: memory-hierarchy ablation under baseline coalescing\n\n")
	t := &report.Table{Headers: []string{"hierarchy", "time (x)", "DRAM accesses", "channel corr"}}
	for _, row := range r.Rows {
		t.AddRow(row.Label, row.NormCycles, fmt.Sprintf("%.0f", row.DRAMAccesses), row.ChannelCorr)
	}
	b.WriteString(t.String())
	b.WriteString("\nCaches and MSHRs absorb DRAM traffic and weaken (but need not eliminate)\n" +
		"the access-count timing channel; the paper disables them to isolate it.\n")
	return b.String()
}

// --- ext-inferm: the FSS-attack prelude ---------------------------------------

// ExtInferMRow is one victim configuration of the num-subwarp
// inference study.
type ExtInferMRow struct {
	TrueM    int
	Inferred int
	Margin   float64
	Correct  bool
}

// ExtInferMResult reproduces the Section IV-A claim that an attacker
// can identify num-subwarp from execution-time differences alone.
type ExtInferMResult struct {
	Rows []ExtInferMRow
}

// ExtInferM calibrates on attacker-controlled hardware and infers each
// victim configuration's num-subwarp.
func ExtInferM(o Options) (*ExtInferMResult, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	candidates := []int{1, 2, 4, 8, 16, 32}
	cal, err := attack.CalibrateSubwarps(o.gpuConfig(), mechanism.FSS, candidates,
		o.Samples/4+2, o.Lines, o.Seed^0xCA1)
	if err != nil {
		return nil, err
	}
	res := &ExtInferMResult{}
	for _, trueM := range candidates {
		cfg := o.gpuConfig()
		cfg.Defense = mechanism.FSS(trueM)
		_, ds, err := collectCfg(o, cfg)
		if err != nil {
			return nil, err
		}
		m, margin := cal.Infer(attack.ObserveMeanTime(ds))
		res.Rows = append(res.Rows, ExtInferMRow{
			TrueM: trueM, Inferred: m, Margin: margin, Correct: m == trueM,
		})
	}
	return res, nil
}

// Accuracy returns the fraction of victims correctly identified.
func (r *ExtInferMResult) Accuracy() float64 {
	n := 0
	for _, row := range r.Rows {
		if row.Correct {
			n++
		}
	}
	return float64(n) / float64(len(r.Rows))
}

// Render implements Result.
func (r *ExtInferMResult) Render() string {
	var b strings.Builder
	b.WriteString("Extension (paper §IV-A): inferring num-subwarp from timing alone\n\n")
	t := &report.Table{Headers: []string{"victim M", "inferred", "margin", "correct"}}
	for _, row := range r.Rows {
		t.AddRow(row.TrueM, row.Inferred, row.Margin, row.Correct)
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "\naccuracy: %.0f%% — FSS cannot hide its num-subwarp, which is why the\n"+
		"FSS attack (Algorithm 1) applies and RSS/RTS randomization is needed.\n", 100*r.Accuracy())
	return b.String()
}

// --- ext-rssdist: normal vs skewed sizing ---------------------------------------

// ExtRSSDistResult validates the paper's §IV-B claim that normal-
// distributed subwarp sizes behave like FSS while skewed sizes improve
// both security and performance.
type ExtRSSDistResult struct {
	Rows []ExtRSSDistRow
}

// ExtRSSDistRow is one sizing policy.
type ExtRSSDistRow struct {
	Label string
	// MeanTx is data movement per encryption.
	MeanTx float64
	// FullKeyCorr is the corresponding attack's channel correlation.
	FullKeyCorr float64
}

// ExtRSSDist compares FSS, normal-sized RSS, and skewed RSS at M=4.
func ExtRSSDist(o Options) (*ExtRSSDistResult, error) {
	const m = 4
	res := &ExtRSSDistResult{}
	for _, pc := range []struct {
		label   string
		defense mechanism.Mechanism
	}{
		{"FSS (fixed sizes)", mechanism.FSS(m)},
		{"RSS normal sizing", mechanism.RSSNormal(m, 1.5)},
		{"RSS skewed sizing", mechanism.RSS(m)},
	} {
		cfg := o.gpuConfig()
		cfg.Defense = pc.defense
		srv, ds, err := collectCfg(o, cfg)
		if err != nil {
			return nil, err
		}
		row := ExtRSSDistRow{Label: pc.label}
		for _, s := range ds.Samples {
			row.MeanTx += float64(s.TotalTx)
		}
		row.MeanTx /= float64(len(ds.Samples))

		atk, err := attack.New(pc.defense, o.Seed^0xD157)
		if err != nil {
			return nil, err
		}
		row.FullKeyCorr, err = fullKeyEstimateCorrelation(atk, ciphertexts(ds), ds.ObservedLastRoundTx(), srv.LastRoundKey())
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render implements Result.
func (r *ExtRSSDistResult) Render() string {
	var b strings.Builder
	b.WriteString("Extension (paper §IV-B): RSS size-distribution ablation, num-subwarp = 4\n\n")
	t := &report.Table{Headers: []string{"sizing", "mean tx / encryption", "channel corr"}}
	for _, row := range r.Rows {
		t.AddRow(row.Label, fmt.Sprintf("%.0f", row.MeanTx), row.FullKeyCorr)
	}
	b.WriteString(t.String())
	b.WriteString("\nSkewed sizing moves less data than FSS (large subwarps re-enable\n" +
		"coalescing) while keeping the channel correlation low.\n")
	return b.String()
}

// --- shared helpers -------------------------------------------------------------

// channelCorrelation is ρ(observed last-round accesses, last-round
// time): the raw strength of the timing channel in a dataset.
func channelCorrelation(ds *aesgpu.Dataset) (float64, error) {
	return stats.Pearson(ds.ObservedLastRoundTx(), ds.LastRoundTimes())
}
