package experiments

import (
	"strings"

	"rcoal/internal/aesgpu"
	"rcoal/internal/mechanism"
	"rcoal/internal/report"
)

// This file adds the selective-RCoal mechanism sweep. Every cell of
// the grid shares the same plaintext stream and the same
// mechanism-independent prefix (all rounds but the vulnerable one), so
// SelectiveSweep simulates the prefix once per sample and forks it per
// (mechanism, num-subwarp) configuration (aesgpu.ForkedCollect). The
// forked datasets are byte-identical to per-cell collection, the
// contract internal/equiv enforces.

func init() {
	Registry["ext-selective-sweep"] = func(o Options) (Result, error) {
		return SelectiveSweep(o, []int{2, 4, 8, 32})
	}
}

// SelectiveSweepVulnerableRound is the round selective RCoal defends
// in this sweep: the last AES round, the one the Section III attack
// reads.
const SelectiveSweepVulnerableRound = 10

// SelectiveSweepCell is one (mechanism, num-subwarp) point of the
// selective sweep.
type SelectiveSweepCell struct {
	Mechanism string // family label, as in SweepCell
	M         int
	// MeanCycles / MeanLastRoundTx are per-plaintext averages.
	MeanCycles      float64
	MeanLastRoundTx float64
	// ChannelCorr is ρ(observed last-round accesses, last-round time):
	// how much of the vulnerable round's channel survives.
	ChannelCorr float64
	// NormCycles is MeanCycles normalized to the undefended baseline
	// cell.
	NormCycles float64
}

// SelectiveSweepResult is the selective-RCoal mechanism × num-subwarp
// grid.
type SelectiveSweepResult struct {
	Ms    []int
	Cells []SelectiveSweepCell // mechanism-major, then M
	// BaselineCycles is the undefended (whole-warp) reference.
	BaselineCycles float64
}

// SelectiveSweep evaluates every mechanism at every num-subwarp value
// in ms under selective RCoal (only SelectiveSweepVulnerableRound is
// randomized). All cells replay the same plaintext stream, so the
// mechanism-independent prefix of each sample is simulated once and
// forked per cell. gpusim refuses to fork a traced launch (prefix
// events would repeat once per fork), so with Options.Trace set each
// cell collects in full instead; the results are byte-identical either
// way. Cells run serially (the forked path reuses one prefix snapshot
// across cells, which a cell-parallel pool would forfeit);
// Options.Workers is ignored.
func SelectiveSweep(o Options, ms []int) (*SelectiveSweepResult, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	// policies[0] is the undefended baseline reference; the rest are
	// the grid, family-major, policies[i+1] for res.Cells[i].
	res := &SelectiveSweepResult{Ms: ms}
	policies := []mechanism.Mechanism{mechanism.Baseline()}
	for _, fam := range Families {
		for _, m := range ms {
			p, err := familyPolicy(fam, m)
			if err != nil {
				return nil, err
			}
			policies = append(policies, p)
			res.Cells = append(res.Cells, SelectiveSweepCell{Mechanism: strings.ToUpper(fam), M: m})
		}
	}

	cfg := o.gpuConfig()
	cfg.VulnerableRounds = []int{SelectiveSweepVulnerableRound}

	var dss []*aesgpu.Dataset
	if o.Trace == nil {
		var err error
		dss, err = aesgpu.ForkedCollect(cfg, o.Key, policies,
			o.Samples, o.Lines, o.Seed, o.TraceCache)
		if err != nil {
			return nil, err
		}
	} else {
		dss = make([]*aesgpu.Dataset, len(policies))
		for i, p := range policies {
			c := cfg
			c.Defense = p
			_, ds, err := collectCfg(o, c)
			if err != nil {
				return nil, err
			}
			dss[i] = ds
		}
	}

	measure := func(c *SelectiveSweepCell, ds *aesgpu.Dataset) (err error) {
		for _, s := range ds.Samples {
			c.MeanCycles += float64(s.TotalCycles)
			c.MeanLastRoundTx += float64(s.LastRoundTx)
		}
		c.MeanCycles /= float64(len(ds.Samples))
		c.MeanLastRoundTx /= float64(len(ds.Samples))
		c.ChannelCorr, err = channelCorrelation(ds)
		return err
	}

	var base SelectiveSweepCell
	if err := measure(&base, dss[0]); err != nil {
		return nil, err
	}
	res.BaselineCycles = base.MeanCycles
	for i := range res.Cells {
		c := &res.Cells[i]
		if err := measure(c, dss[i+1]); err != nil {
			return nil, err
		}
		c.NormCycles = c.MeanCycles / res.BaselineCycles
	}
	return res, nil
}

// Render implements Result.
func (r *SelectiveSweepResult) Render() string {
	var b strings.Builder
	b.WriteString("Extension: selective-RCoal mechanism sweep (vulnerable round only)\n\n")
	t := &report.Table{Headers: []string{"mechanism", "num-subwarp", "time (x baseline)", "last-round tx", "channel corr"}}
	for _, c := range r.Cells {
		t.AddRow(c.Mechanism, c.M, c.NormCycles, c.MeanLastRoundTx, c.ChannelCorr)
	}
	b.WriteString(t.String())
	b.WriteString("\nOnly the vulnerable round is randomized, so even aggressive subwarp\n" +
		"counts cost little total time while the last-round channel degrades\n" +
		"like full RCoal.\n")
	return b.String()
}
