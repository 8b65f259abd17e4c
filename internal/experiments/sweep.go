package experiments

import (
	"fmt"
	"strings"

	"rcoal/internal/attack"
	"rcoal/internal/mechanism"
)

// Families are the paper's four RCoal subwarp families as mechanism
// registry keywords, in paper order. Reports, CSV rows and cell keys
// label a family by its upper-cased keyword ("FSS+RTS").
var Families = []string{"fss", "fss+rts", "rss", "rss+rts"}

// familyPolicy returns family fam's defense with m subwarps.
func familyPolicy(fam string, m int) (mechanism.Mechanism, error) {
	return mechanism.Parse(fmt.Sprintf("%s:%d", fam, m))
}

// familyRow is one family, by label, at M subwarps, with what its
// cell measured.
type familyRow[R any] struct {
	Family string
	M      int
	R      R
}

// familyGrid measures the rows Sweep and Fig18 share — the baseline,
// then every family at every M in ms — as cells of namespace ns, each
// addressed by and measuring its defense's canonical spec, so the rows
// that reduce to the undefended coalescer take the baseline's cell. It
// returns the baseline's measurement and the other rows in order.
func familyGrid[R any](o Options, ns string, ms []int,
	measure func(Options, mechanism.Mechanism) (R, error)) (base R, rows []familyRow[R], err error) {

	keys, specs := []string{"baseline"}, []string{"baseline"}
	for _, fam := range Families {
		for _, m := range ms {
			p, err := familyPolicy(fam, m)
			if err != nil {
				return base, nil, err
			}
			rows = append(rows, familyRow[R]{Family: strings.ToUpper(fam), M: m})
			keys = append(keys, fmt.Sprintf("%s/%d", strings.ToUpper(fam), m))
			specs = append(specs, mechanism.Canonical(p))
		}
	}
	outs, err := execCells(o, ns, keys, specs, func(i int) (R, error) {
		p, err := mechanism.Parse(specs[i])
		if err != nil {
			return base, err
		}
		return measure(o, p)
	})
	if err != nil {
		return base, nil, err
	}
	for i := range rows {
		rows[i].R = outs[i+1]
	}
	return outs[0], rows, nil
}

// SweepCell is one (mechanism, num-subwarp) evaluation point shared by
// Figures 15, 16, and 17: performance (cycles, accesses) plus security
// (average correct-guess correlation under the corresponding attack).
type SweepCell struct {
	// Mechanism is the family's label, e.g. "FSS+RTS".
	Mechanism string
	M         int
	// MeanCycles / MeanTx are per-plaintext averages.
	MeanCycles float64
	MeanTx     float64
	// AvgCorrectCorr is the corresponding attack's average correct-byte
	// correlation against the last-round execution time.
	AvgCorrectCorr float64
	// NormCycles is MeanCycles normalized to the baseline
	// (num-subwarp = 1) cell.
	NormCycles float64
	// NormTx is MeanTx normalized to the baseline cell.
	NormTx float64
}

// sweepMeasure is a sweep cell: SweepCell's measurements of one
// defense, before normalization.
type sweepMeasure struct {
	MeanCycles, MeanTx, AvgCorrectCorr float64
}

// measureSweep collects a dataset under defense and attacks it with
// the corresponding attack.
func measureSweep(o Options, defense mechanism.Mechanism) (sweepMeasure, error) {
	srv, ds, err := collect(o, defense)
	if err != nil {
		return sweepMeasure{}, err
	}
	var mm sweepMeasure
	for _, s := range ds.Samples {
		mm.MeanCycles += float64(s.TotalCycles)
		mm.MeanTx += float64(s.TotalTx)
	}
	mm.MeanCycles /= float64(len(ds.Samples))
	mm.MeanTx /= float64(len(ds.Samples))

	atk, err := attack.New(defense, o.Seed^0x5EC)
	if err != nil {
		return sweepMeasure{}, err
	}
	mm.AvgCorrectCorr, err = avgCorrectCorrelation(
		atk, ciphertexts(ds), ds.LastRoundTimes(), srv.LastRoundKey())
	return mm, err
}

// SweepResult is the full mechanism × num-subwarp grid.
type SweepResult struct {
	Ms    []int
	Cells []SweepCell // ordered mechanism-major, then M
	// BaselineCycles / BaselineTx are the num-subwarp = 1 references.
	BaselineCycles float64
	BaselineTx     float64
}

// Cell returns the cell for family fam (keyword or label) at m, or nil.
func (s *SweepResult) Cell(fam string, m int) *SweepCell {
	for i := range s.Cells {
		if strings.EqualFold(s.Cells[i].Mechanism, fam) && s.Cells[i].M == m {
			return &s.Cells[i]
		}
	}
	return nil
}

// Sweep evaluates every family at every num-subwarp value in ms. The
// baseline reference is measured separately at num-subwarp = 1.
//
// The distinct cells fan out over Options.Workers; each cell owns its
// simulated server and attacker and draws all randomness from seeds
// fixed by (o.Seed, defense), so the result is byte-identical at any
// worker count.
func Sweep(o Options, ms []int) (*SweepResult, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	base, rows, err := familyGrid(o, "sweep", ms, measureSweep)
	if err != nil {
		return nil, err
	}
	res := &SweepResult{Ms: ms, BaselineCycles: base.MeanCycles, BaselineTx: base.MeanTx}
	for _, r := range rows {
		res.Cells = append(res.Cells, SweepCell{Mechanism: r.Family, M: r.M,
			MeanCycles: r.R.MeanCycles, MeanTx: r.R.MeanTx, AvgCorrectCorr: r.R.AvgCorrectCorr,
			NormCycles: r.R.MeanCycles / base.MeanCycles,
			NormTx:     r.R.MeanTx / base.MeanTx})
	}
	return res, nil
}
