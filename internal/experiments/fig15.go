package experiments

import (
	"fmt"
	"strings"

	"rcoal/internal/report"
)

func init() {
	Registry["fig15"] = func(o Options) (Result, error) { return Fig15(o) }
	Registry["fig16"] = func(o Options) (Result, error) { return Fig16(o) }
	Registry["fig17"] = func(o Options) (Result, error) { return Fig17(o) }
}

// Fig15Subwarps are the security-comparison num-subwarp points.
var Fig15Subwarps = []int{1, 2, 4, 8, 16}

// Fig16Subwarps extend the performance sweep to 32.
var Fig16Subwarps = []int{1, 2, 4, 8, 16, 32}

// Fig15Result compares the security of all four mechanisms: the
// average correct-byte correlation under each corresponding attack.
type Fig15Result struct{ Sweep *SweepResult }

// Fig15 runs the security comparison.
func Fig15(o Options) (*Fig15Result, error) {
	s, err := Sweep(o, Fig15Subwarps)
	if err != nil {
		return nil, err
	}
	return &Fig15Result{Sweep: s}, nil
}

// Render implements Result.
func (r *Fig15Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 15: security comparison (avg correct-byte correlation, corresponding attacks)\n\n")
	t := &report.Table{Headers: []string{"num-subwarp", "FSS", "FSS+RTS", "RSS", "RSS+RTS"}}
	for _, m := range r.Sweep.Ms {
		row := []any{m}
		for _, fam := range Families {
			row = append(row, r.Sweep.Cell(fam, m).AvgCorrectCorr)
		}
		t.AddRow(row...)
	}
	b.WriteString(t.String())
	b.WriteString("\nPaper: FSS stays highly correlated (insecure); the randomized mechanisms\n" +
		"drop sharply. RSS+RTS leads at num-subwarp 2-4, FSS+RTS at 8-16.\n")
	return b.String()
}

// Fig16Result compares performance and data movement of all
// mechanisms.
type Fig16Result struct{ Sweep *SweepResult }

// Fig16 runs the performance/data-movement comparison.
func Fig16(o Options) (*Fig16Result, error) {
	s, err := Sweep(o, Fig16Subwarps)
	if err != nil {
		return nil, err
	}
	return &Fig16Result{Sweep: s}, nil
}

// Render implements Result.
func (r *Fig16Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 16: performance and data movement (normalized to num-subwarp = 1)\n\n")
	t := &report.Table{Headers: []string{"num-subwarp",
		"FSS tx", "FSS+RTS tx", "RSS tx", "RSS+RTS tx",
		"FSS time", "FSS+RTS time", "RSS time", "RSS+RTS time"}}
	for _, m := range r.Sweep.Ms {
		tx, cycles := []any{m}, []any{}
		for _, fam := range Families {
			c := r.Sweep.Cell(fam, m)
			tx = append(tx, c.NormTx)
			cycles = append(cycles, c.NormCycles)
		}
		t.AddRow(append(tx, cycles...)...)
	}
	b.WriteString(t.String())
	b.WriteString("\nPaper: accesses and time grow with num-subwarp; RTS is performance-\n" +
		"neutral; RSS-based mechanisms cost slightly less than FSS-based ones.\n")
	return b.String()
}

// Fig17Row is one RCoal_Score cell.
type Fig17Row struct {
	M int
	// SecurityScore / PerformanceScore are RCoal_Score with
	// (a=1, b=1) and (a=1, b=20) respectively, per family label.
	SecurityScore    map[string]float64
	PerformanceScore map[string]float64
}

// Fig17Result evaluates the RCoal_Score trade-off metric.
type Fig17Result struct {
	Rows  []Fig17Row
	Sweep *SweepResult
}

// Fig17 computes RCoal_Score for the security-oriented (a=1, b=1) and
// performance-oriented (a=1, b=20) designs.
func Fig17(o Options) (*Fig17Result, error) {
	s, err := Sweep(o, Fig15Subwarps)
	if err != nil {
		return nil, err
	}
	res := &Fig17Result{Sweep: s}
	for _, m := range s.Ms {
		row := Fig17Row{M: m,
			SecurityScore:    map[string]float64{},
			PerformanceScore: map[string]float64{},
		}
		for _, fam := range Families {
			cell := s.Cell(fam, m)
			row.SecurityScore[cell.Mechanism] = RCoalScoreOf(cell, 1, 1)
			row.PerformanceScore[cell.Mechanism] = RCoalScoreOf(cell, 1, 20)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render implements Result.
func (r *Fig17Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 17: RCoal_Score trade-off (S^a / time^b)\n\n")
	for _, variant := range []struct {
		title string
		pick  func(Fig17Row) map[string]float64
	}{
		{"(a) security-oriented, a=1 b=1", func(r Fig17Row) map[string]float64 { return r.SecurityScore }},
		{"(b) performance-oriented, a=1 b=20", func(r Fig17Row) map[string]float64 { return r.PerformanceScore }},
	} {
		t := &report.Table{Title: variant.title,
			Headers: []string{"num-subwarp", "FSS", "FSS+RTS", "RSS", "RSS+RTS"}}
		for _, row := range r.Rows {
			sc := variant.pick(row)
			cells := []any{row.M}
			for _, fam := range Families {
				cells = append(cells, fmt.Sprintf("%.3g", sc[strings.ToUpper(fam)]))
			}
			t.AddRow(cells...)
		}
		b.WriteString(t.String())
		b.WriteString("\n")
	}
	b.WriteString("Paper: FSS+RTS wins the security-oriented design at num-subwarp 8-16;\n" +
		"RSS+RTS overtakes it in the performance-oriented design.\n")
	return b.String()
}
