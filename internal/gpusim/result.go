package gpusim

import (
	"fmt"

	"rcoal/internal/core"
	"rcoal/internal/gpusim/cache"
	"rcoal/internal/gpusim/dram"
	"rcoal/internal/metrics"
)

// MaxRounds bounds the AES round tags the stats arrays index
// (AES-256 has 14 rounds).
const MaxRounds = 15

// WarpStats records one warp's execution: per-round cycle windows and
// per-round coalesced transaction counts.
type WarpStats struct {
	// RoundStart[r] / RoundEnd[r] bound round r's execution in core
	// cycles; -1 if the round never ran.
	RoundStart [MaxRounds + 1]int64
	RoundEnd   [MaxRounds + 1]int64
	// RoundTx[r] is the number of coalesced transactions issued for
	// round r; index 0 collects out-of-round traffic (plaintext loads,
	// ciphertext stores).
	RoundTx [MaxRounds + 1]int
	// TotalTx is the warp's total transaction count.
	TotalTx int
	// Finish is the cycle the warp completed (last reply received).
	Finish int64
}

// Result is the outcome of one kernel launch.
type Result struct {
	// Cycles is the total execution time in core cycles.
	Cycles int64
	// Warps holds per-warp statistics, indexed like Kernel.Warps.
	Warps []WarpStats
	// TotalTx is the total number of memory transactions (the paper's
	// "data movement" / "total memory accesses" metric).
	TotalTx uint64
	// RoundTx aggregates transactions per round over all warps.
	RoundTx [MaxRounds + 1]uint64
	// Plan is the subwarp plan the launch drew (one per launch, set by
	// the hardware logic at application start per Section IV-D).
	Plan core.Plan
	// DRAM holds per-partition controller statistics.
	DRAM []dram.Stats
	// L1 holds per-SM L1 statistics when the L1 is enabled.
	L1 []cache.Stats
	// L2 holds per-partition L2 statistics when the L2 is enabled.
	L2 []cache.Stats
	// MSHRMerges counts loads absorbed by MSHR request merging.
	MSHRMerges uint64
	// ALUOps counts warp-wide arithmetic instructions issued (for the
	// energy model).
	ALUOps uint64
	// Metrics is the launch's detached metrics snapshot when
	// Config.Metrics is installed; nil otherwise (the default), so
	// Results from metrics-free runs stay byte-comparable.
	Metrics *metrics.Snapshot `json:",omitempty"`
}

// RoundWindow returns the kernel-level cycle window of round r: from
// the earliest warp entering it to the latest warp leaving it. This is
// the "last round execution time" the attacker measures when r is the
// final round.
func (r *Result) RoundWindow(round int) int64 {
	if round < 0 || round > MaxRounds {
		panic(fmt.Sprintf("gpusim: round %d out of range", round))
	}
	var lo, hi int64 = -1, -1
	for i := range r.Warps {
		s, e := r.Warps[i].RoundStart[round], r.Warps[i].RoundEnd[round]
		if s < 0 || e < 0 {
			continue
		}
		if lo < 0 || s < lo {
			lo = s
		}
		if e > hi {
			hi = e
		}
	}
	if lo < 0 {
		return 0
	}
	return hi - lo
}

// LastRoundTx returns the total coalesced accesses of round `round`
// across all warps — the quantity the attacker's estimators target.
func (r *Result) LastRoundTx(round int) uint64 {
	if round < 0 || round > MaxRounds {
		panic(fmt.Sprintf("gpusim: round %d out of range", round))
	}
	return r.RoundTx[round]
}
