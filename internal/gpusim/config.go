// Package gpusim is a cycle-level timing simulator of the baseline GPU
// architecture of the RCoal paper (Table I): SIMT cores with dual warp
// schedulers, a load/store unit containing the (modified, Figure 11)
// memory coalescing unit, a crossbar interconnect per direction, and
// six GDDR5 memory partitions, each scheduling a request on arrival
// (what FR-FCFS reduces to when a partition receives at most one
// request per cycle).
//
// It plays the role GPGPU-Sim plays in the paper: executing the AES
// workload as per-warp instruction traces and reporting total cycles,
// per-round cycle windows, and per-round coalesced-access counts — the
// quantities the correlation timing attack and the defense evaluation
// consume. Matching the paper's methodology, L1/L2 caches and MSHR
// request merging default to off (the paper disables them, Section
// VII), so every coalesced transaction travels to DRAM; they can be
// enabled for the hierarchy ablations, alongside event tracing and
// energy accounting.
package gpusim

import (
	"fmt"

	"rcoal/internal/faultinject"
	"rcoal/internal/gpusim/cache"
	"rcoal/internal/gpusim/dram"
	"rcoal/internal/gpusim/mem"
	"rcoal/internal/mechanism"
)

// Config is the simulated GPU configuration. DefaultConfig returns
// the Table I values.
type Config struct {
	// NumSMs is the number of streaming multiprocessors (15).
	NumSMs int
	// SchedulersPerSM is the number of concurrent warp schedulers per
	// SM (2); warps on an SM are split between them.
	SchedulersPerSM int
	// WarpSize is the number of threads per warp (32).
	WarpSize int
	// SIMTLanes is the number of physical lanes (16 × 2 in Table I's
	// "SIMT width = 32 (16×2)" notation): a full warp issues over
	// WarpSize/SIMTLanes cycles.
	SIMTLanes int
	// ALULatency is the pipeline latency of an arithmetic warp
	// instruction in core cycles.
	ALULatency int
	// ICNTLatency is the one-way crossbar latency in core cycles.
	ICNTLatency int
	// FlitBytes is the interconnect flit size; a 64-byte data reply
	// occupies its return port for BlockBytes/FlitBytes cycles while a
	// request header takes one flit. 32 B matches the crossbar of the
	// baseline architecture.
	FlitBytes int
	// CoreClockMHz and MemClockMHz set the clock domains (1400 / 924);
	// DRAM timing is scaled into the core domain by their ratio.
	CoreClockMHz, MemClockMHz int
	// AddressMap is the partition/bank interleaving.
	AddressMap mem.AddressMap
	// DRAMTiming is the GDDR5 timing in memory-clock cycles.
	DRAMTiming dram.Timing
	// Defense is the installed timing-channel defense: an RCoal subwarp
	// coalescing policy (mechanism.Baseline/FSS/RSS... or any
	// mechanism.Subwarp wrapping a core.Config), an obfuscation defense
	// (mechanism.Delay, mechanism.Shuffle), or the no-coalescing
	// strawman (mechanism.NoCoal). nil means the undefended baseline.
	Defense mechanism.Mechanism
	// MaxCycles bounds a launch's simulated cycles; Run returns a
	// *MaxCyclesError (wrapping ErrMaxCycles) with a diagnostic
	// snapshot when a kernel exhausts it. 0 means DefaultMaxCycles,
	// orders of magnitude above any legitimate Table I kernel.
	MaxCycles int64
	// WatchdogWindow is the forward-progress watchdog's patience: if no
	// warp, PRT entry, inject queue, crossbar port, or DRAM controller
	// changes state for this many consecutive simulation steps while
	// warps remain unfinished, Run returns a *NoProgressError (wrapping
	// ErrNoProgress) with a diagnostic snapshot instead of spinning.
	// Steps equal cycles under pure stepping; event-driven fast-forward
	// elides provably idle cycles, so legitimate idle stretches never
	// age the watchdog. 0 means DefaultWatchdogWindow.
	WatchdogWindow int64
	// Faults wires deterministic, test-only hardware faults into the
	// launch (see internal/faultinject). nil — the only production
	// value — injects nothing.
	Faults *faultinject.Plan
	// FastForwardDisabled forces pure cycle-by-cycle stepping,
	// disabling the event-driven fast-forward that jumps over cycles
	// in which no subsystem can make progress. Results are
	// byte-identical either way (the determinism contract, enforced by
	// a differential test); the flag exists for that test and for
	// debugging, not for tuning.
	FastForwardDisabled bool

	// --- Optional subsystems beyond the paper's baseline ------------
	//
	// The paper's methodology disables caches and MSHR request merging
	// to isolate the coalescing channel (§VII); they are modeled here
	// for ablations and for the paper's future-work extensions, and
	// default to off.

	// L1Enabled adds a per-SM L1 data cache (loads only; stores bypass
	// write-through, no-allocate).
	L1Enabled bool
	// L1 configures the per-SM cache when enabled.
	L1 cache.Config
	// L2Enabled adds a per-partition L2 slice in front of DRAM.
	L2Enabled bool
	// L2 configures the per-partition cache when enabled.
	L2 cache.Config
	// CacheRandomized turns on the per-launch randomized set-index
	// hash in every enabled cache — the paper's future-work
	// "randomization at all levels of the memory hierarchy".
	CacheRandomized bool
	// MSHREnabled merges outstanding same-block loads per SM (inter-
	// and intra-warp request merging via miss-status holding
	// registers).
	MSHREnabled bool
	// VulnerableRounds restricts the randomized coalescing to the
	// listed AES rounds (the paper's future work #1: selective RCoal
	// with software-identified vulnerable code). Instructions in other
	// rounds coalesce with the baseline whole-warp plan. Empty means
	// the policy applies to the entire execution, as in the paper.
	VulnerableRounds []int
	// Trace, when non-nil, receives the simulation's event timeline
	// (issues, transactions, replies, retirements). Debugging aid;
	// leave nil for full speed.
	Trace TraceSink
	// Metrics, when non-nil, instruments the launch with the simulator's
	// metrics layer (MCU coalescing distributions, PRT occupancy, DRAM
	// row locality and queueing, crossbar depths, scheduler stalls); the
	// launch's snapshot lands in Result.Metrics. Same discipline as
	// Trace: nil (the default) costs only nil checks on the hot path.
	// A Metrics bundle is single-goroutine, like the GPU itself.
	Metrics *Metrics
}

// DefaultL1 returns a 16 KiB, 4-way, 64 B-line L1 configuration.
func DefaultL1() cache.Config {
	return cache.Config{SizeBytes: 16 << 10, LineBytes: mem.BlockBytes, Ways: 4, HitLatency: 4}
}

// DefaultL2 returns a 128 KiB-per-partition, 8-way L2 configuration
// (768 KiB total over 6 partitions).
func DefaultL2() cache.Config {
	return cache.Config{SizeBytes: 128 << 10, LineBytes: mem.BlockBytes, Ways: 8, HitLatency: 12}
}

// DefaultConfig returns the simulated configuration of Table I with
// baseline (whole-warp) coalescing.
func DefaultConfig() Config {
	return Config{
		NumSMs:          15,
		SchedulersPerSM: 2,
		WarpSize:        32,
		SIMTLanes:       16,
		ALULatency:      4,
		ICNTLatency:     8,
		FlitBytes:       32,
		CoreClockMHz:    1400,
		MemClockMHz:     924,
		AddressMap:      mem.DefaultAddressMap(),
		DRAMTiming:      dram.HynixGDDR5(),
		Defense:         mechanism.Baseline(),
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.NumSMs <= 0:
		return fmt.Errorf("gpusim: NumSMs %d must be positive", c.NumSMs)
	case c.SchedulersPerSM <= 0:
		return fmt.Errorf("gpusim: SchedulersPerSM %d must be positive", c.SchedulersPerSM)
	case c.WarpSize <= 0:
		return fmt.Errorf("gpusim: WarpSize %d must be positive", c.WarpSize)
	case c.SIMTLanes <= 0 || c.WarpSize%c.SIMTLanes != 0:
		return fmt.Errorf("gpusim: SIMTLanes %d must divide WarpSize %d", c.SIMTLanes, c.WarpSize)
	case c.ALULatency < 1:
		return fmt.Errorf("gpusim: ALULatency %d must be >= 1", c.ALULatency)
	case c.ICNTLatency < 1:
		return fmt.Errorf("gpusim: ICNTLatency %d must be >= 1", c.ICNTLatency)
	case c.FlitBytes < 1 || mem.BlockBytes%c.FlitBytes != 0:
		return fmt.Errorf("gpusim: FlitBytes %d must divide block size %d", c.FlitBytes, mem.BlockBytes)
	case c.CoreClockMHz <= 0 || c.MemClockMHz <= 0:
		return fmt.Errorf("gpusim: clocks must be positive (%d, %d)", c.CoreClockMHz, c.MemClockMHz)
	case c.MaxCycles < 0:
		return fmt.Errorf("gpusim: MaxCycles %d must be >= 0 (0 = default %d)", c.MaxCycles, DefaultMaxCycles)
	case c.WatchdogWindow < 0:
		return fmt.Errorf("gpusim: WatchdogWindow %d must be >= 0 (0 = default %d)", c.WatchdogWindow, DefaultWatchdogWindow)
	}
	if f := c.Faults; f != nil {
		if s := f.DRAMStall; s != nil && (s.Partition < -1 || s.Partition >= c.AddressMap.Partitions) {
			return fmt.Errorf("gpusim: fault DRAMStall partition %d outside [-1,%d)", s.Partition, c.AddressMap.Partitions)
		}
		if d := f.DropReply; d != nil {
			if d.Port < 0 || d.Port >= c.NumSMs {
				return fmt.Errorf("gpusim: fault DropReply port %d outside [0,%d)", d.Port, c.NumSMs)
			}
			if d.Nth < 1 {
				return fmt.Errorf("gpusim: fault DropReply nth %d must be >= 1", d.Nth)
			}
		}
	}
	if err := c.AddressMap.Validate(); err != nil {
		return err
	}
	if err := c.DRAMTiming.Validate(); err != nil {
		return err
	}
	if c.L1Enabled {
		if err := c.L1.Validate(); err != nil {
			return err
		}
		if c.L1.LineBytes != mem.BlockBytes {
			return fmt.Errorf("gpusim: L1 line %d must equal block size %d", c.L1.LineBytes, mem.BlockBytes)
		}
	}
	if c.L2Enabled {
		if err := c.L2.Validate(); err != nil {
			return err
		}
		if c.L2.LineBytes != mem.BlockBytes {
			return fmt.Errorf("gpusim: L2 line %d must equal block size %d", c.L2.LineBytes, mem.BlockBytes)
		}
	}
	for _, r := range c.VulnerableRounds {
		if r < 1 || r > MaxRounds {
			return fmt.Errorf("gpusim: vulnerable round %d outside [1,%d]", r, MaxRounds)
		}
	}
	if c.Defense != nil {
		if err := c.Defense.ValidateFor(c.WarpSize); err != nil {
			return fmt.Errorf("gpusim: defense %s: %w", c.Defense.Spec(), err)
		}
	}
	return nil
}

// clockRatio returns core cycles per memory cycle.
func (c Config) clockRatio() float64 {
	return float64(c.CoreClockMHz) / float64(c.MemClockMHz)
}

// issueCycles is how many cycles a warp occupies its scheduler per
// instruction (WarpSize / SIMTLanes).
func (c Config) issueCycles() int64 {
	n := c.WarpSize / c.SIMTLanes
	if n < 1 {
		n = 1
	}
	return int64(n)
}
