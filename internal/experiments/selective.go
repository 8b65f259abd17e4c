package experiments

import (
	"fmt"
	"strings"

	"rcoal/internal/mechanism"
	"rcoal/internal/report"
)

// This file adds the selective-RCoal mechanism sweep: the family grid
// of Figures 15-17 with only the vulnerable round randomized.

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

// selectiveMeasure is a selective-sweep cell: SelectiveSweepCell's
// measurements of one defense, before normalization.
type selectiveMeasure struct {
	MeanCycles, MeanLastRoundTx, ChannelCorr float64
}

// measureSelective collects a dataset under defense with only
// SelectiveSweepVulnerableRound randomized.
func measureSelective(o Options, defense mechanism.Mechanism) (selectiveMeasure, error) {
	cfg := o.gpuConfig()
	cfg.Defense = defense
	cfg.VulnerableRounds = []int{SelectiveSweepVulnerableRound}
	_, ds, err := collectCfg(o, cfg)
	if err != nil {
		return selectiveMeasure{}, err
	}
	var mm selectiveMeasure
	for _, s := range ds.Samples {
		mm.MeanCycles += float64(s.TotalCycles)
		mm.MeanLastRoundTx += float64(s.LastRoundTx)
	}
	mm.MeanCycles /= float64(len(ds.Samples))
	mm.MeanLastRoundTx /= float64(len(ds.Samples))
	mm.ChannelCorr, err = channelCorrelation(ds)
	return mm, err
}

// SelectiveSweep evaluates every mechanism at every num-subwarp value
// in ms under selective RCoal (only SelectiveSweepVulnerableRound is
// randomized), as cells that fan out over Options.Workers like
// Sweep's.
func SelectiveSweep(o Options, ms []int) (*SelectiveSweepResult, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	ns := fmt.Sprintf("selective-sweep/r%d", SelectiveSweepVulnerableRound)
	base, rows, err := familyGrid(o, ns, ms, measureSelective)
	if err != nil {
		return nil, err
	}
	res := &SelectiveSweepResult{Ms: ms, BaselineCycles: base.MeanCycles}
	for _, r := range rows {
		res.Cells = append(res.Cells, SelectiveSweepCell{Mechanism: r.Family, M: r.M,
			MeanCycles: r.R.MeanCycles, MeanLastRoundTx: r.R.MeanLastRoundTx, ChannelCorr: r.R.ChannelCorr,
			NormCycles: r.R.MeanCycles / base.MeanCycles})
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
