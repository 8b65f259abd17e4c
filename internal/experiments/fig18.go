package experiments

import (
	"context"
	"fmt"
	"strings"

	"rcoal/internal/attack"
	"rcoal/internal/report"
)

func init() { Registry["fig18"] = func(o Options) (Result, error) { return Fig18(o) } }

// Fig18Subwarps are the case study's num-subwarp points.
var Fig18Subwarps = []int{1, 2, 4, 8, 16}

// Fig18Cell is one (mechanism, num-subwarp) point of the 1024-line
// case study.
type Fig18Cell struct {
	Mechanism Mechanism
	M         int
	// AvgCorrectCorr correlates the attack's estimated last-round
	// accesses with the accesses *observed during encryption* — the
	// paper's noise-free measurement that removes warp-scheduling
	// noise.
	AvgCorrectCorr float64
	// FullKeyCorr is ρ between the attack's total estimate under the
	// full correct key and the observed accesses: exactly 1 for
	// deterministic coalescing, degraded by randomization.
	FullKeyCorr float64
	// NormCycles is mean execution time normalized to num-subwarp = 1.
	NormCycles float64
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
// The baseline and the mechanism × num-subwarp grid — the heaviest
// simulation load in the repository — fan out over Options.Workers;
// output is byte-identical at any worker count.
func Fig18(o Options) (*Fig18Result, error) {
	o.Lines = 1024
	res := &Fig18Result{Lines: o.Lines, Samples: o.Samples}

	type job struct {
		mech     Mechanism
		m        int
		baseline bool
	}
	jobs := []job{{baseline: true}}
	for _, mech := range AllMechanisms {
		for _, m := range Fig18Subwarps {
			jobs = append(jobs, job{mech: mech, m: m})
		}
	}

	// Exported fields: cells round-trip through the checkpoint journal
	// as JSON when Options.Journal is attached.
	type out struct {
		Cell       Fig18Cell
		BaseCycles float64
		MeanCycles float64
	}
	outs, err := runCells(o, "fig18", jobs,
		func(_ int, jb job) string {
			if jb.baseline {
				return "baseline"
			}
			return fmt.Sprintf("%s/%d", jb.mech, jb.m)
		},
		func(_ context.Context, _ int, jb job) (out, error) {
			if jb.baseline {
				_, base, err := collect(o, MechFSS.Policy(1))
				if err != nil {
					return out{}, err
				}
				baseCycles := 0.0
				for _, s := range base.Samples {
					baseCycles += float64(s.TotalCycles)
				}
				return out{BaseCycles: baseCycles / float64(len(base.Samples))}, nil
			}
			srv, ds, err := collect(o, jb.mech.Policy(jb.m))
			if err != nil {
				return out{}, err
			}
			cell := Fig18Cell{Mechanism: jb.mech, M: jb.m}
			mean := 0.0
			for _, s := range ds.Samples {
				mean += float64(s.TotalCycles)
			}

			atk, err := attack.New(jb.mech.Policy(jb.m), o.Seed^0x1024)
			if err != nil {
				return out{}, err
			}
			// Correlate against observed last-round accesses, not time,
			// per Section VI-D. The grid saturates the pool, so the
			// per-key-byte loops stay serial.
			cts := ciphertexts(ds)
			obs := ds.ObservedLastRoundTx()
			cell.AvgCorrectCorr, err = avgCorrectCorrelation(atk, cts, obs, srv.LastRoundKey(), 1)
			if err != nil {
				return out{}, err
			}
			cell.FullKeyCorr, err = fullKeyEstimateCorrelation(atk, cts, obs, srv.LastRoundKey(), 1)
			if err != nil {
				return out{}, err
			}
			return out{Cell: cell, MeanCycles: mean / float64(len(ds.Samples))}, nil
		})
	if err != nil {
		return nil, err
	}

	baseCycles := outs[0].BaseCycles
	for _, ot := range outs[1:] {
		cell := ot.Cell
		cell.NormCycles = ot.MeanCycles / baseCycles
		res.Cells = append(res.Cells, cell)
	}
	return res, nil
}

// Cell returns the case-study cell for (mech, m), or nil.
func (r *Fig18Result) Cell(mech Mechanism, m int) *Fig18Cell {
	for i := range r.Cells {
		if r.Cells[i].Mechanism == mech && r.Cells[i].M == m {
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
		fmtCell := func(mech Mechanism) string {
			c := r.Cell(mech, m)
			return report.FormatFloat(c.AvgCorrectCorr, 3) + " | " + report.FormatFloat(c.FullKeyCorr, 3)
		}
		ta.AddRow(m, fmtCell(MechFSS), fmtCell(MechFSSRTS), fmtCell(MechRSS), fmtCell(MechRSSRTS))
		tb.AddRow(m,
			r.Cell(MechFSS, m).NormCycles,
			r.Cell(MechFSSRTS, m).NormCycles,
			r.Cell(MechRSS, m).NormCycles,
			r.Cell(MechRSSRTS, m).NormCycles)
	}
	b.WriteString(ta.String())
	b.WriteString("\n")
	b.WriteString(tb.String())
	b.WriteString("\nPaper: correlations fall for the randomized mechanisms at num-subwarp > 1;\n" +
		"execution time grows with num-subwarp and RSS-based mechanisms stay cheaper.\n")
	return b.String()
}
