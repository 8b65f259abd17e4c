package gpusim

import (
	"fmt"

	"rcoal/internal/metrics"
)

// This file is the simulator's metrics layer: a typed bundle of
// counters, gauges, and histograms (internal/metrics) instrumenting
// the microarchitectural distributions the RCoal evaluation reasons
// about — MCU coalescing behaviour, PRT occupancy, DRAM row locality,
// crossbar queue depths, and warp-scheduler stalls.
//
// The discipline matches the trace sink: metrics are off unless a
// *Metrics is installed on the Config, and every hot-path site pays
// only a nil check. With metrics on, Run resets the bundle at launch
// start and snapshots it into Result.Metrics at completion, so each
// Result carries exactly its own launch's distributions; snapshots
// from many launches aggregate with metrics.Snapshot.Merge.

// Metric names exported by the simulator (the registry keys of a
// Result.Metrics snapshot). Per-partition DRAM metrics are formatted
// with partition ids, e.g. "dram/p2/row_hits"; per-bank detail
// lives in the MetricDRAMBanks table (rows "p2/b07", columns
// accesses/row_hits/row_misses/row_conflicts).
const (
	// MetricTxPerInstr histograms the Algorithm-1 group count: how many
	// coalesced transactions the MCU emitted per warp-wide memory
	// instruction under the launch's subwarp plan.
	MetricTxPerInstr = "mcu/tx_per_instr"
	// MetricTxGroupSize histograms the threads merged into each
	// coalesced transaction (the subwarp coalesce group sizes).
	MetricTxGroupSize = "mcu/tx_group_size"
	// MetricRoundTx counters (one per AES round, "mcu/round_tx/NN")
	// mirror Result.RoundTx so the exported JSON is self-contained.
	MetricRoundTx = "mcu/round_tx"
	// MetricPRTOccupancy histograms the per-SM pending-request-table
	// occupancy, observed at every entry allocation and drain.
	MetricPRTOccupancy = "sm/prt_occupancy"
	// MetricInjectDepth histograms the LD/ST unit's transaction queue
	// depth at every enqueue.
	MetricInjectDepth = "sm/inject_queue_depth"
	// MetricICNTToMemDepth / MetricICNTToSMDepth histogram the
	// request (inject) and reply crossbar port depths at every
	// injection.
	MetricICNTToMemDepth = "icnt/to_mem_depth"
	MetricICNTToSMDepth  = "icnt/to_sm_depth"
	// MetricStallMemory / MetricStallPipeline / MetricStallIdle count
	// scheduler slots that issued nothing, by reason: a candidate warp
	// blocked on memory; warps inside their pipeline latency; all warps
	// finished. Every scheduler with warps, on an SM with warps, has
	// one slot per cycle from 0 to Result.Cycles, so these counters and
	// MetricIssued sum to the slots, fast-forwarded or not.
	MetricStallMemory   = "sched/stall_memory"
	MetricStallPipeline = "sched/stall_pipeline"
	MetricStallIdle     = "sched/stall_idle"
	// MetricIssued counts instructions issued across all schedulers.
	MetricIssued = "sched/issued"
	// MetricDRAMBanks is the per-bank row-locality table: one row per
	// (partition, bank) pair, columns accesses, row_hits, row_misses,
	// row_conflicts. A dense table keeps the per-launch snapshot cheap
	// (one slice copy) where 96x4 named counters would not be.
	MetricDRAMBanks = "dram/banks"
)

// Column indices of the MetricDRAMBanks table.
const (
	BankColAccesses = iota
	BankColRowHits
	BankColRowMisses
	BankColRowConflicts
)

// bankCols is the MetricDRAMBanks column labels, in column order.
var bankCols = []string{"accesses", "row_hits", "row_misses", "row_conflicts"}

// Metrics instruments one GPU. Install with Config.Metrics; create one
// per GPU (the bundle is single-goroutine, like the GPU itself).
type Metrics struct {
	reg *metrics.Registry

	// Hot-path handles, resolved once at construction.
	txPerInstr    *metrics.Histogram
	txGroupSize   *metrics.Histogram
	roundTx       [MaxRounds + 1]*metrics.Counter
	prtOccupancy  *metrics.Histogram
	injectDepth   *metrics.Histogram
	icntToMem     *metrics.Histogram
	icntToSM      *metrics.Histogram
	stallMemory   *metrics.Counter
	stallPipeline *metrics.Counter
	stallIdle     *metrics.Counter
	issued        *metrics.Counter

	// sizeScratch backs the per-instruction group-size computation.
	sizeScratch []int

	// dram holds the per-partition counter handles and banks the
	// per-bank table, resolved once when the runtime is built
	// (installDRAM) so the per-launch snapshot formats no names.
	dram     []dramPartMetrics
	banks    *metrics.Table
	banksPer int // banks per partition (table row stride)
}

// dramPartMetrics caches one partition's metric handles.
type dramPartMetrics struct {
	accesses, rowHits, rowMisses, rowConfl *metrics.Counter
}

// NewMetrics returns a metrics bundle ready to install on a Config.
func NewMetrics() *Metrics {
	reg := metrics.NewRegistry()
	m := &Metrics{
		reg: reg,
		// A warp splits into at most 32 transactions per instruction
		// (one per thread), and group sizes are 1..32: unit buckets
		// resolve the full distribution exactly.
		txPerInstr:  reg.Histogram(MetricTxPerInstr, metrics.LinearBounds(1, 32)),
		txGroupSize: reg.Histogram(MetricTxGroupSize, metrics.LinearBounds(1, 32)),
		// PRT and queue depths: unit buckets to 32, then coarser tails.
		prtOccupancy:  reg.Histogram(MetricPRTOccupancy, depthBounds()),
		injectDepth:   reg.Histogram(MetricInjectDepth, depthBounds()),
		icntToMem:     reg.Histogram(MetricICNTToMemDepth, depthBounds()),
		icntToSM:      reg.Histogram(MetricICNTToSMDepth, depthBounds()),
		stallMemory:   reg.Counter(MetricStallMemory),
		stallPipeline: reg.Counter(MetricStallPipeline),
		stallIdle:     reg.Counter(MetricStallIdle),
		issued:        reg.Counter(MetricIssued),
	}
	for r := 0; r <= MaxRounds; r++ {
		m.roundTx[r] = reg.Counter(fmt.Sprintf("%s/%02d", MetricRoundTx, r))
	}
	return m
}

// depthBounds is the queue/PRT bucket layout: exact to 32, then
// power-of-two tails to 1024.
func depthBounds() []int64 {
	b := metrics.LinearBounds(1, 32)
	for v := int64(64); v <= 1024; v *= 2 {
		b = append(b, v)
	}
	return b
}

// Snapshot exports the bundle's current state.
func (m *Metrics) Snapshot() *metrics.Snapshot { return m.reg.Snapshot() }

// reset zeroes every metric for a new launch.
func (m *Metrics) reset() { m.reg.Reset() }

// installDRAM resolves the per-partition and per-bank counter handles.
// Build-time only; get-or-create semantics make re-installation after
// a runtime rebuild a no-op.
func (m *Metrics) installDRAM(partitions, banks int) {
	if len(m.dram) == partitions && m.banksPer == banks {
		return
	}
	m.dram = make([]dramPartMetrics, partitions)
	rows := make([]string, 0, partitions*banks)
	for pid := range m.dram {
		prefix := fmt.Sprintf("dram/p%d", pid)
		p := &m.dram[pid]
		p.accesses = m.reg.Counter(prefix + "/accesses")
		p.rowHits = m.reg.Counter(prefix + "/row_hits")
		p.rowMisses = m.reg.Counter(prefix + "/row_misses")
		p.rowConfl = m.reg.Counter(prefix + "/row_conflicts")
		for b := 0; b < banks; b++ {
			rows = append(rows, fmt.Sprintf("p%d/b%02d", pid, b))
		}
	}
	m.banks = m.reg.Table(MetricDRAMBanks, rows, bankCols)
	m.banksPer = banks
}

// stall counts n slots of a scheduler with warps mine that issued
// nothing, by reason: any candidate blocked on memory makes them memory
// stalls; otherwise warps waiting out pipeline latency make them
// pipeline stalls; with every warp finished the scheduler is idle.
func (m *Metrics) stall(mine []*warpRun, n uint64) {
	c := m.stallIdle
	for _, w := range mine {
		if w.done {
			continue
		}
		if w.blocked || w.pending > 0 {
			c = m.stallMemory
			break
		}
		c = m.stallPipeline
	}
	c.Add(n)
}

// observeSizes records one MCU pass from its group sizes (one per
// emitted transaction): the instruction's transaction count, the
// per-transaction group sizes, and the round attribution.
func (m *Metrics) observeSizes(sizes []int, round int) {
	m.txPerInstr.Observe(int64(len(sizes)))
	m.roundTx[round].Add(uint64(len(sizes)))
	for _, s := range sizes {
		m.txGroupSize.Observe(int64(s))
	}
}

// observeUncoalesced records a coalescing-disabled instruction: every
// transaction is its own group of one thread.
func (m *Metrics) observeUncoalesced(nTx, round int) {
	m.txPerInstr.Observe(int64(nTx))
	m.roundTx[round].Add(uint64(nTx))
	for i := 0; i < nTx; i++ {
		m.txGroupSize.Observe(1)
	}
}

// snapshotInto finalizes the launch's metrics: DRAM per-bank and
// per-partition counters are pulled from the controllers via the
// handles cached at build time (cheap, snapshot-time only), and the
// full bundle is exported into res.
func (g *GPU) snapshotInto(st *runState, res *Result) {
	m := g.cfg.Metrics
	for pid, p := range st.parts {
		pm := &m.dram[pid]
		s := p.ctrl.Stats
		pm.accesses.Add(s.Accesses)
		pm.rowHits.Add(s.RowHits)
		pm.rowMisses.Add(s.RowMisses)
		pm.rowConfl.Add(s.RowConflicts)
		for _, b := range p.ctrl.BankStats() {
			row := pid*m.banksPer + b.Bank
			m.banks.Add(row, BankColAccesses, b.Accesses)
			m.banks.Add(row, BankColRowHits, b.RowHits)
			m.banks.Add(row, BankColRowMisses, b.RowMisses)
			m.banks.Add(row, BankColRowConflicts, b.RowConflicts)
		}
	}
	res.Metrics = m.Snapshot()
}
