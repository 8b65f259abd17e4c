package kernels

import (
	"fmt"

	"rcoal/internal/gpusim"
	"rcoal/internal/gpusim/mem"
	"rcoal/internal/rng"
)

// Synthetic memory workloads characterize how the RCoal mechanisms
// cost different access patterns. The AES kernel only exercises the
// "uniform random over a small table" pattern; real GPU workloads span
// everything from perfectly sequential (where subwarping hurts most —
// a whole warp's accesses fit one or two blocks) to fully divergent
// (where subwarping costs nothing — every thread already needs its own
// transaction). The Pattern kernels let the experiments map that
// spectrum.

// Pattern selects a synthetic per-thread address pattern.
type Pattern uint8

const (
	// Sequential: thread t accesses base + 4t — one element per
	// thread, perfectly coalescable (2 blocks per warp instruction).
	Sequential Pattern = iota
	// Strided: thread t accesses base + stride·t with a 64-byte
	// stride — every thread in its own block, worst case regardless of
	// coalescing.
	Strided
	// UniformRandom: thread t accesses a random element of a 16-block
	// table — the AES-like pattern.
	UniformRandom
	// Hotspot: most threads hit one block, a few stragglers wander —
	// high coalescing opportunity with occasional extra transactions.
	Hotspot
)

func (p Pattern) String() string {
	switch p {
	case Sequential:
		return "sequential"
	case Strided:
		return "strided"
	case UniformRandom:
		return "uniform-random"
	case Hotspot:
		return "hotspot"
	}
	return "unknown"
}

// AllPatterns lists the synthetic patterns.
var AllPatterns = []Pattern{Sequential, Strided, UniformRandom, Hotspot}

// SyntheticBase is the buffer base address for synthetic kernels.
const SyntheticBase uint64 = 0x4000_0000

// BuildSynthetic constructs a one-warp-per-32-"lines" kernel issuing
// `loads` warp-wide global loads per warp with the given pattern,
// tagged as round 1 so the round-window statistics apply.
func BuildSynthetic(p Pattern, warps, loads int, seed uint64) (*gpusim.Kernel, error) {
	if warps < 1 || loads < 1 {
		return nil, fmt.Errorf("kernels: synthetic needs positive warps (%d) and loads (%d)", warps, loads)
	}
	const warpSize = 32
	src := rng.New(seed).Split(uint64(p) + 1)
	k := &gpusim.Kernel{Label: fmt.Sprintf("synthetic-%s-%dw", p, warps)}
	for w := 0; w < warps; w++ {
		wp := &gpusim.WarpProgram{ID: w}
		wp.Instrs = append(wp.Instrs, gpusim.Instr{Kind: gpusim.RoundMark, Round: 1})
		warpBase := SyntheticBase + uint64(w)*1<<20 // private region per warp
		for l := 0; l < loads; l++ {
			blocks := make([]uint64, warpSize)
			for t := 0; t < warpSize; t++ {
				var addr uint64
				switch p {
				case Sequential:
					addr = warpBase + uint64(l)*128 + uint64(t)*4
				case Strided:
					addr = warpBase + uint64(l)*4096 + uint64(t)*64
				case UniformRandom:
					addr = warpBase + uint64(src.Intn(256))*4
				case Hotspot:
					if src.Intn(8) == 0 {
						addr = warpBase + uint64(src.Intn(16))*64
					} else {
						addr = warpBase // the hot block
					}
				}
				blocks[t] = mem.BlockOf(addr)
			}
			wp.Instrs = append(wp.Instrs, gpusim.Instr{Kind: gpusim.Load, Blocks: blocks, Round: 1})
			wp.Instrs = append(wp.Instrs, gpusim.Instr{Kind: gpusim.ALU, Round: 1})
		}
		wp.Instrs = append(wp.Instrs, gpusim.Instr{Kind: gpusim.RoundMark, Round: 0})
		k.Warps = append(k.Warps, wp)
	}
	return k, nil
}
