// Package dram models a GDDR5 memory partition of the simulated GPU:
// a memory controller scheduling requests first come, first served over
// banked DRAM with the Hynix GDDR5 timing parameters of Table I.
//
// The scheduling is FCFS by structure, not by a policy choice: the
// request crossbar delivers at most one request per partition per
// cycle, and each request is scheduled the cycle it arrives, so a
// first-ready (FR-FCFS) scheduler would only ever see one candidate.
// The simulator therefore schedules a request the moment its arrival
// cycle is known (Schedule), when it leaves its SM, and keeps the
// reply itself: the controller holds no request it has scheduled.
//
// The model is command-level but compact: scheduling a request
// computes its data-return time from the bank's row state and the
// shared data-bus occupancy, then advances the bank timing state (tRC/tRAS/tRP/tRCD for activations, tCCD for column
// commands, tRRD across banks). That preserves the two properties the
// RCoal evaluation depends on — service time grows with the number of
// coalesced transactions, and row hits are cheaper than row conflicts —
// without simulating individual DRAM commands cycle by cycle.
package dram

import (
	"fmt"
	"math"

	"rcoal/internal/gpusim/mem"
)

// Timing holds the GDDR5 timing parameters in memory-clock cycles
// (Table I: Hynix GDDR5 H5GQ1H24AFR).
type Timing struct {
	CL  int // CAS latency: column command to first data
	RP  int // row precharge
	RC  int // activate-to-activate, same bank
	RAS int // activate-to-precharge, same bank
	CCD int // column-command to column-command, same bank group
	RCD int // activate to column command
	RRD int // activate-to-activate, different banks
	// Burst is the data-bus occupancy of one 64-byte transaction in
	// memory (command-clock) cycles: a 32-bit GDDR5 bus with 8n
	// prefetch moves 32 bytes per command clock, so 64 bytes take 2.
	Burst int
}

// HynixGDDR5 returns the Table I timing: tCL=12, tRP=12, tRC=40,
// tRAS=28, tCCD=2, tRCD=12, tRRD=6.
func HynixGDDR5() Timing {
	return Timing{CL: 12, RP: 12, RC: 40, RAS: 28, CCD: 2, RCD: 12, RRD: 6, Burst: 2}
}

// Scale multiplies every parameter by ratio (core clock / memory
// clock) and rounds up, converting memory-clock timing into the core-
// clock domain the simulator ticks in.
func (t Timing) Scale(ratio float64) Timing {
	s := func(v int) int {
		scaled := int(float64(v)*ratio + 0.9999)
		if scaled < 1 {
			scaled = 1
		}
		return scaled
	}
	return Timing{CL: s(t.CL), RP: s(t.RP), RC: s(t.RC), RAS: s(t.RAS),
		CCD: s(t.CCD), RCD: s(t.RCD), RRD: s(t.RRD), Burst: s(t.Burst)}
}

// Validate rejects non-positive parameters.
func (t Timing) Validate() error {
	for name, v := range map[string]int{"CL": t.CL, "RP": t.RP, "RC": t.RC,
		"RAS": t.RAS, "CCD": t.CCD, "RCD": t.RCD, "RRD": t.RRD, "Burst": t.Burst} {
		if v <= 0 {
			return fmt.Errorf("dram: timing %s = %d must be positive", name, v)
		}
	}
	return nil
}

type bankState struct {
	openRow  int32 // currently open row, -1 if closed
	nextCol  int64 // earliest cycle for the next column command
	nextAct  int64 // earliest cycle for the next activate (tRC)
	nextPre  int64 // earliest cycle the open row may be precharged (tRAS)
	rowHits  uint64
	rowMiss  uint64 // every access that activated a row
	rowConfl uint64 // subset of rowMiss that closed a different open row
	accesses uint64
}

// Controller is one memory partition's controller.
type Controller struct {
	timing Timing
	banks  []bankState
	// parked holds the arrival cycles of a stalled controller's
	// requests (InjectStall), which never schedule.
	parked  []int64
	busFree int64 // shared data bus availability
	lastAct int64 // most recent activate, for tRRD

	// stallArmed/stallAfter are the fault-injection seam (see
	// InjectStall): when armed, the controller parks every arrival once
	// Stats.Accesses reaches stallAfter.
	stallArmed bool
	stallAfter uint64

	// Stats counts controller-level events.
	Stats Stats
}

// Stats aggregates controller activity. RowMisses counts every access
// that had to activate a row; RowConflicts is the subset that first had
// to close a different open row (the expensive case the RCoal timing
// distributions key on).
type Stats struct {
	Accesses     uint64 // requests serviced
	RowHits      uint64
	RowMisses    uint64
	RowConflicts uint64
}

// BankStats is one bank's per-launch activity, exported for the
// per-bank row-locality metrics.
type BankStats struct {
	Bank         int    `json:"bank"`
	Accesses     uint64 `json:"accesses"`
	RowHits      uint64 `json:"row_hits"`
	RowMisses    uint64 `json:"row_misses"`
	RowConflicts uint64 `json:"row_conflicts"`
}

// BankStats returns a fresh per-bank statistics slice (index = bank
// id). Snapshot-time only; it allocates.
func (c *Controller) BankStats() []BankStats {
	out := make([]BankStats, len(c.banks))
	for i := range c.banks {
		b := &c.banks[i]
		out[i] = BankStats{Bank: i, Accesses: b.accesses,
			RowHits: b.rowHits, RowMisses: b.rowMiss, RowConflicts: b.rowConfl}
	}
	return out
}

// NewController builds a controller for one partition.
func NewController(t Timing, m mem.AddressMap) (*Controller, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	banks := make([]bankState, m.Banks)
	for i := range banks {
		banks[i].openRow = -1
	}
	// lastAct starts far in the past so the first activate pays no tRRD.
	return &Controller{timing: t, banks: banks, lastAct: -int64(t.RRD) - 1}, nil
}

// Parked returns the number of requests a stalled controller
// (InjectStall) parked: they never schedule, and count from the cycle
// they are handed to Schedule.
func (c *Controller) Parked() int { return len(c.parked) }

// ParkedAfter returns how many of the parked requests arrive after
// cycle t.
func (c *Controller) ParkedAfter(t int64) int {
	n := 0
	for _, at := range c.parked {
		if at > t {
			n++
		}
	}
	return n
}

// InjectStall arms the controller's test-only fault seam
// (internal/faultinject): once the controller has scheduled `after`
// requests it parks every later arrival, which then waits forever.
// Stats reset per launch (Reset), so the threshold counts the current
// launch's accesses; the armed state itself survives Reset.
func (c *Controller) InjectStall(after uint64) {
	c.stallArmed = true
	c.stallAfter = after
}

// Schedule books a request to row row of bank bank, arriving at cycle
// at, on its bank and the shared data bus, and returns the cycle its
// data returns. Requests are served first come, first served: callers
// schedule them in arrival order (at never decreases), and each is the
// controller's only waiting request when it arrives, so first-ready
// reordering has nothing to choose from. A stalled controller
// (InjectStall) parks the request's arrival cycle instead and returns
// math.MaxInt64.
func (c *Controller) Schedule(bank, row int, at int64) int64 {
	if c.stallArmed && c.Stats.Accesses >= c.stallAfter {
		c.parked = append(c.parked, at)
		return math.MaxInt64
	}
	b := &c.banks[bank]
	openRow := int32(row)

	var colCmd int64
	if b.openRow == openRow {
		// Row hit: column command when the bank and bus allow.
		colCmd = max(at, b.nextCol, c.busFree)
		b.rowHits++
		c.Stats.RowHits++
	} else {
		// Row miss/conflict: precharge (respecting tRAS) + activate
		// (respecting tRC and tRRD) + tRCD before the column command.
		act := max(at, b.nextAct, c.lastAct+int64(c.timing.RRD))
		if b.openRow >= 0 {
			act = max(act, b.nextPre+int64(c.timing.RP))
			b.rowConfl++
			c.Stats.RowConflicts++
		}
		b.openRow = openRow
		b.nextAct = act + int64(c.timing.RC)
		b.nextPre = act + int64(c.timing.RAS)
		c.lastAct = act
		colCmd = max(act+int64(c.timing.RCD), c.busFree)
		b.rowMiss++
		c.Stats.RowMisses++
	}
	// Both branches put the column command at or after busFree, which
	// is the previous column command plus Burst >= 1. Done is therefore
	// strictly increasing in schedule order.
	b.nextCol = colCmd + int64(c.timing.CCD)
	c.busFree = colCmd + int64(c.timing.Burst)
	b.accesses++
	c.Stats.Accesses++
	return colCmd + int64(c.timing.CL) + int64(c.timing.Burst)
}

// Reset clears all bank, parked, and statistics state, keeping the
// backing buffers, so one controller can serve many launches without
// reallocating.
func (c *Controller) Reset() {
	for i := range c.banks {
		c.banks[i] = bankState{openRow: -1}
	}
	c.parked = c.parked[:0]
	c.busFree = 0
	c.lastAct = -int64(c.timing.RRD) - 1
	c.Stats = Stats{}
}
