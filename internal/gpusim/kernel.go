package gpusim

import (
	"fmt"

	"rcoal/internal/gpusim/mem"
)

// InstrKind classifies warp instructions.
type InstrKind uint8

const (
	// ALU is any non-memory warp instruction (XOR, shift, ...); only
	// its latency matters.
	ALU InstrKind = iota
	// Load is a warp-wide global-memory read of one memory block per
	// active thread, subject to coalescing.
	Load
	// Store is a warp-wide global-memory write, also coalesced.
	Store
	// RoundMark is a zero-cost annotation delimiting AES rounds; the
	// simulator records per-round cycle windows at marks.
	RoundMark
)

func (k InstrKind) String() string {
	switch k {
	case ALU:
		return "alu"
	case Load:
		return "load"
	case Store:
		return "store"
	case RoundMark:
		return "roundmark"
	}
	return "unknown"
}

// Instr is one warp instruction of a trace.
type Instr struct {
	Kind InstrKind
	// Latency overrides the ALU pipeline latency when positive.
	Latency int
	// Blocks holds, for Load/Store, the memory block each thread
	// accesses: its byte address divided by mem.BlockBytes, the key
	// the coalescing unit merges (mem.BlockOf).
	Blocks []uint64
	// Active is the predication mask for Load/Store; nil = all active.
	Active []bool
	// Round is the AES round this instruction belongs to (1-based), or
	// 0 for traffic outside the rounds (plaintext loads, ciphertext
	// stores). RoundMark instructions announce entry into Round.
	Round int
}

// WarpProgram is the instruction trace of one warp.
type WarpProgram struct {
	// ID is the global warp id.
	ID     int
	Instrs []Instr
}

// Kernel is a launch: a set of warp traces executed to completion.
type Kernel struct {
	Warps []*WarpProgram
	// Label annotates results (e.g. "aes128-32lines").
	Label string
}

// Validate checks every memory instruction carries per-thread blocks
// matching the warp size.
func (k *Kernel) Validate(warpSize int) error {
	if len(k.Warps) == 0 {
		return fmt.Errorf("gpusim: kernel %q has no warps", k.Label)
	}
	for _, w := range k.Warps {
		if w == nil || len(w.Instrs) == 0 {
			return fmt.Errorf("gpusim: kernel %q has an empty warp", k.Label)
		}
		for i, ins := range w.Instrs {
			switch ins.Kind {
			case Load, Store:
				if len(ins.Blocks) != warpSize {
					return fmt.Errorf("gpusim: warp %d instr %d: %d blocks, warp size %d",
						w.ID, i, len(ins.Blocks), warpSize)
				}
				if ins.Active != nil && len(ins.Active) != warpSize {
					return fmt.Errorf("gpusim: warp %d instr %d: active mask length %d",
						w.ID, i, len(ins.Active))
				}
			case ALU, RoundMark:
				// no constraints
			default:
				return fmt.Errorf("gpusim: warp %d instr %d: unknown kind %d", w.ID, i, ins.Kind)
			}
		}
	}
	return nil
}

// kindOf maps an instruction kind to the memory access kind.
func kindOf(k InstrKind) mem.AccessKind {
	if k == Store {
		return mem.Store
	}
	return mem.Load
}
