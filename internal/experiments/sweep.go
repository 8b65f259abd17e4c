package experiments

import (
	"context"
	"fmt"

	"rcoal/internal/attack"
)

// SweepCell is one (mechanism, num-subwarp) evaluation point shared by
// Figures 15, 16, and 17: performance (cycles, accesses) plus security
// (average correct-guess correlation under the corresponding attack).
type SweepCell struct {
	Mechanism Mechanism
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

// SweepResult is the full mechanism × num-subwarp grid.
type SweepResult struct {
	Ms    []int
	Cells []SweepCell // ordered mechanism-major, then M
	// BaselineCycles / BaselineTx are the num-subwarp = 1 references.
	BaselineCycles float64
	BaselineTx     float64
}

// Cell returns the cell for (mech, m), or nil.
func (s *SweepResult) Cell(mech Mechanism, m int) *SweepCell {
	for i := range s.Cells {
		if s.Cells[i].Mechanism == mech && s.Cells[i].M == m {
			return &s.Cells[i]
		}
	}
	return nil
}

// Sweep evaluates every mechanism at every num-subwarp value in ms.
// The baseline reference is measured separately at num-subwarp = 1.
//
// The baseline and every (mechanism, num-subwarp) cell fan out over
// Options.Workers; each cell owns its simulated server and attacker
// and draws all randomness from seeds fixed by (o.Seed, mechanism, M),
// so the result is byte-identical at any worker count.
func Sweep(o Options, ms []int) (*SweepResult, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	type job struct {
		mech     Mechanism
		m        int
		baseline bool
	}
	jobs := make([]job, 0, len(AllMechanisms)*len(ms)+1)
	jobs = append(jobs, job{baseline: true})
	for _, mech := range AllMechanisms {
		for _, m := range ms {
			jobs = append(jobs, job{mech: mech, m: m})
		}
	}

	// Exported fields: cells round-trip through the checkpoint journal
	// as JSON when Options.Journal is attached.
	type out struct {
		Cell               SweepCell
		BaseCycles, BaseTx float64
	}
	outs, err := runCells(o, "sweep", jobs,
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
				var ot out
				for _, s := range base.Samples {
					ot.BaseCycles += float64(s.TotalCycles)
					ot.BaseTx += float64(s.TotalTx)
				}
				ot.BaseCycles /= float64(len(base.Samples))
				ot.BaseTx /= float64(len(base.Samples))
				return ot, nil
			}
			srv, ds, err := collect(o, jb.mech.Policy(jb.m))
			if err != nil {
				return out{}, err
			}
			cell := SweepCell{Mechanism: jb.mech, M: jb.m}
			for _, s := range ds.Samples {
				cell.MeanCycles += float64(s.TotalCycles)
				cell.MeanTx += float64(s.TotalTx)
			}
			cell.MeanCycles /= float64(len(ds.Samples))
			cell.MeanTx /= float64(len(ds.Samples))

			atk, err := attack.New(jb.mech.Policy(jb.m), o.Seed^0x5EC)
			if err != nil {
				return out{}, err
			}
			// The grid saturates the pool, so the per-key-byte loop
			// inside each cell stays serial (workers = 1).
			cell.AvgCorrectCorr, err = avgCorrectCorrelation(
				atk, ciphertexts(ds), ds.LastRoundTimes(), srv.LastRoundKey(), 1)
			if err != nil {
				return out{}, err
			}
			return out{Cell: cell}, nil
		})
	if err != nil {
		return nil, err
	}

	res := &SweepResult{Ms: ms,
		BaselineCycles: outs[0].BaseCycles, BaselineTx: outs[0].BaseTx}
	for _, ot := range outs[1:] {
		cell := ot.Cell
		cell.NormCycles = cell.MeanCycles / res.BaselineCycles
		cell.NormTx = cell.MeanTx / res.BaselineTx
		res.Cells = append(res.Cells, cell)
	}
	return res, nil
}
