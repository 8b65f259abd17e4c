package experiments

import (
	"fmt"
	"strings"

	"rcoal/internal/mechanism"
	"rcoal/internal/report"
)

func init() { Registry["nocoal"] = func(o Options) (Result, error) { return NoCoal(o) } }

// NoCoalRow compares baseline coalescing against fully disabled
// coalescing for one plaintext size.
type NoCoalRow struct {
	Lines int
	// SlowdownPct is the execution-time increase in percent (the paper
	// reports up to 178% for 1024 lines).
	SlowdownPct float64
	// TxRatio is the data-movement multiplier (paper: 2.7x).
	TxRatio float64
}

// NoCoalResult reproduces the Section III motivation numbers for
// disabling coalescing outright.
type NoCoalResult struct {
	Rows []NoCoalRow
}

// noCoalSums is a nocoal cell: one collect's cycle and transaction
// totals, summed over its samples in sample order.
type noCoalSums struct {
	Cycles, Tx float64
}

// NoCoal measures the strawman defense at 32 and 1024 lines. Its four
// collects run as grid cells keyed <lines>/<spec>.
func NoCoal(o Options) (*NoCoalResult, error) {
	type item struct {
		lines   int
		defense mechanism.Mechanism
	}
	var items []item
	for _, lines := range []int{32, 1024} {
		items = append(items, item{lines, mechanism.Baseline()}, item{lines, mechanism.NoCoal()})
	}
	sums, err := runCells(o, "nocoal", items,
		func(it item) string { return fmt.Sprintf("%d/%s", it.lines, mechanism.Canonical(it.defense)) },
		func(it item) (noCoalSums, error) {
			opt := o
			opt.Lines = it.lines
			_, ds, err := collect(opt, it.defense)
			if err != nil {
				return noCoalSums{}, err
			}
			var s noCoalSums
			for _, smp := range ds.Samples {
				s.Cycles += float64(smp.TotalCycles)
				s.Tx += float64(smp.TotalTx)
			}
			return s, nil
		})
	if err != nil {
		return nil, err
	}
	res := &NoCoalResult{}
	for i := 0; i < len(items); i += 2 {
		on, off := sums[i], sums[i+1]
		res.Rows = append(res.Rows, NoCoalRow{
			Lines:       items[i].lines,
			SlowdownPct: (off.Cycles/on.Cycles - 1) * 100,
			TxRatio:     off.Tx / on.Tx,
		})
	}
	return res, nil
}

// Render implements Result.
func (r *NoCoalResult) Render() string {
	var b strings.Builder
	b.WriteString("Section III: cost of disabling coalescing entirely\n\n")
	t := &report.Table{Headers: []string{"plaintext lines", "slowdown %", "data movement x"}}
	for _, row := range r.Rows {
		t.AddRow(row.Lines, fmt.Sprintf("%.1f", row.SlowdownPct), fmt.Sprintf("%.2f", row.TxRatio))
	}
	b.WriteString(t.String())
	b.WriteString("\nPaper: up to 178% slowdown and 2.7x data movement for 1024 lines —\n" +
		"which is why RCoal randomizes coalescing instead of disabling it.\n")
	return b.String()
}
