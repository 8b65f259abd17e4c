package experiments

import (
	"fmt"
	"strings"

	"rcoal/internal/attack"
	"rcoal/internal/mechanism"
	"rcoal/internal/report"
)

func init() { Registry["fig7"] = func(o Options) (Result, error) { return Fig7(o) } }

// Fig7Row is one num-subwarp point of Figure 7: FSS performance and
// its security against the *baseline* attack (which keeps assuming
// num-subwarp = 1).
type Fig7Row struct {
	M int
	// MeanCycles and MeanAccesses are per-plaintext averages.
	MeanCycles   float64
	MeanAccesses float64
	// BaselineAttackCorr is the average correct-byte correlation the
	// baseline attack achieves against this FSS configuration.
	BaselineAttackCorr float64
}

// Fig7Result reproduces Figure 7 (a and b).
type Fig7Result struct {
	Rows []Fig7Row
}

// Fig7Subwarps are the num-subwarp values of the FSS sweep.
var Fig7Subwarps = []int{1, 2, 4, 8, 16, 32}

// Fig7 sweeps FSS over num-subwarp under the baseline attack. The
// num-subwarp rows fan out over Options.Workers; output is
// byte-identical at any worker count.
func Fig7(o Options) (*Fig7Result, error) {
	rows, err := runCells(o, "fig7", Fig7Subwarps,
		func(m int) string { return fmt.Sprintf("fss/%d", m) },
		func(m int) (Fig7Row, error) {
			srv, ds, err := collect(o, mechanism.FSS(m))
			if err != nil {
				return Fig7Row{}, err
			}
			row := Fig7Row{M: m}
			for _, s := range ds.Samples {
				row.MeanCycles += float64(s.TotalCycles)
				row.MeanAccesses += float64(s.TotalTx)
			}
			row.MeanCycles /= float64(len(ds.Samples))
			row.MeanAccesses /= float64(len(ds.Samples))

			atk := attack.Baseline(o.Seed ^ 0xF55)
			row.BaselineAttackCorr, err = avgCorrectCorrelation(
				atk, ciphertexts(ds), ds.LastRoundTimes(), srv.LastRoundKey(), 1)
			if err != nil {
				return Fig7Row{}, err
			}
			return row, nil
		})
	if err != nil {
		return nil, err
	}
	return &Fig7Result{Rows: rows}, nil
}

// Render implements Result.
func (r *Fig7Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 7: FSS performance and security vs num-subwarp (baseline attack)\n\n")
	t := &report.Table{Headers: []string{"num-subwarp", "exec cycles", "mem accesses", "baseline-attack corr"}}
	for _, row := range r.Rows {
		t.AddRow(row.M, fmt.Sprintf("%.0f", row.MeanCycles), fmt.Sprintf("%.0f", row.MeanAccesses),
			row.BaselineAttackCorr)
	}
	b.WriteString(t.String())
	b.WriteString("\nPaper: execution time and accesses grow with num-subwarp (7a); the\n" +
		"baseline attack's correlation decays as num-subwarp grows (7b).\n")
	return b.String()
}
