package experiments

import (
	"strings"

	"rcoal/internal/attack"
	"rcoal/internal/mechanism"
	"rcoal/internal/report"
)

func init() { Registry["fig18"] = func(o Options) (Result, error) { return Fig18(o) } }

// Fig18Subwarps are the case study's num-subwarp points.
var Fig18Subwarps = []int{1, 2, 4, 8, 16}

// Fig18Cell is one (mechanism, num-subwarp) point of the 1024-line
// case study.
type Fig18Cell struct {
	Mechanism string // family label, as in SweepCell
	M         int
	// AvgCorrectCorr correlates the attack's estimated last-round
	// accesses with the accesses *observed during encryption* — the
	// paper's noise-free measurement that removes warp-scheduling
	// noise.
	AvgCorrectCorr float64
	// FullKeyCorr is ρ between the attack's total estimate under the
	// full correct key and the observed accesses: exactly 1 for
	// deterministic coalescing, lowered by randomization.
	FullKeyCorr float64
	// NormCycles is mean execution time normalized to num-subwarp = 1.
	NormCycles float64
}

// fig18Measure is a case-study cell: Fig18Cell's measurements of one
// defense, before normalization.
type fig18Measure struct {
	MeanCycles, AvgCorrectCorr, FullKeyCorr float64
}

// measureFig18 collects a dataset under defense and correlates the
// corresponding attack's estimates with the observed last-round
// accesses, not time, per Section VI-D.
func measureFig18(o Options, defense mechanism.Mechanism) (fig18Measure, error) {
	srv, ds, err := collect(o, defense)
	if err != nil {
		return fig18Measure{}, err
	}
	var mm fig18Measure
	for _, s := range ds.Samples {
		mm.MeanCycles += float64(s.TotalCycles)
	}
	mm.MeanCycles /= float64(len(ds.Samples))

	atk, err := attack.New(defense, o.Seed^0x1024)
	if err != nil {
		return fig18Measure{}, err
	}
	// The grid saturates the pool, so the per-key-byte loops stay
	// serial.
	cts := ciphertexts(ds)
	obs := ds.ObservedLastRoundTx()
	if mm.AvgCorrectCorr, err = avgCorrectCorrelation(atk, cts, obs, srv.LastRoundKey(), 1); err != nil {
		return fig18Measure{}, err
	}
	mm.FullKeyCorr, err = fullKeyEstimateCorrelation(atk, cts, obs, srv.LastRoundKey(), 1)
	return mm, err
}

// Fig18Result is the scalability case study on 1024-line plaintexts.
type Fig18Result struct {
	Lines   int
	Samples int
	Cells   []Fig18Cell
}

// Fig18 runs the 1024-line case study. Options.Lines is overridden to
// 1024 (the point of the experiment); Options.Samples is respected.
//
// The distinct cells of the baseline and the family × num-subwarp
// grid — the heaviest simulation load in the repository — fan out over
// Options.Workers; output is byte-identical at any worker count.
func Fig18(o Options) (*Fig18Result, error) {
	o.Lines = 1024
	base, rows, err := familyGrid(o, "fig18", Fig18Subwarps, measureFig18)
	if err != nil {
		return nil, err
	}
	res := &Fig18Result{Lines: o.Lines, Samples: o.Samples}
	for _, r := range rows {
		res.Cells = append(res.Cells, Fig18Cell{Mechanism: r.Family, M: r.M,
			AvgCorrectCorr: r.R.AvgCorrectCorr, FullKeyCorr: r.R.FullKeyCorr,
			NormCycles: r.R.MeanCycles / base.MeanCycles})
	}
	return res, nil
}

// Cell returns the case-study cell for family fam (keyword or label)
// at m, or nil.
func (r *Fig18Result) Cell(fam string, m int) *Fig18Cell {
	for i := range r.Cells {
		if strings.EqualFold(r.Cells[i].Mechanism, fam) && r.Cells[i].M == m {
			return &r.Cells[i]
		}
	}
	return nil
}

// Render implements Result.
func (r *Fig18Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 18: 1024-line case study (correlation vs observed accesses; normalized time)\n\n")
	ta := &report.Table{Title: "(a) security: avg correct-byte corr | full-key estimate corr",
		Headers: []string{"num-subwarp", "FSS", "FSS+RTS", "RSS", "RSS+RTS"}}
	tb := &report.Table{Title: "(b) normalized execution time",
		Headers: []string{"num-subwarp", "FSS", "FSS+RTS", "RSS", "RSS+RTS"}}
	for _, m := range Fig18Subwarps {
		a, n := []any{m}, []any{m}
		for _, fam := range Families {
			c := r.Cell(fam, m)
			a = append(a, report.FormatFloat(c.AvgCorrectCorr, 3)+" | "+report.FormatFloat(c.FullKeyCorr, 3))
			n = append(n, c.NormCycles)
		}
		ta.AddRow(a...)
		tb.AddRow(n...)
	}
	b.WriteString(ta.String())
	b.WriteString("\n")
	b.WriteString(tb.String())
	b.WriteString("\nPaper: correlations fall for the randomized mechanisms at num-subwarp > 1;\n" +
		"execution time grows with num-subwarp and RSS-based mechanisms stay cheaper.\n")
	return b.String()
}
