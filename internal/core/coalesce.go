package core

import (
	"math/bits"
	"slices"
)

// This file is the coalescing logic itself: turning a warp-wide memory
// instruction (one memory block per active thread) into the set of
// memory transactions the MCU emits. Coalescing happens independently
// per subwarp — threads in different subwarps never merge, which is
// the entire lever the defense turns.
//
// The simulated hardware coalesces through Subwarps.CoalesceBlocks
// (block keys, and group sizes for metrics), over the subwarps' thread
// bitsets it builds once per launch; Coalesce, whose Transactions
// carry their member threads, is its reference. CountSmallBlocks,
// a bitset fast path for table lookups where blocks are 0..R-1 with
// R <= 64, serves only the package's tests, theory's empirical check
// and the CoalesceSmallBlocksRSSRTS benchmark: the attacker's
// estimators score through nibble tables.

// Transaction is one coalesced memory access: the distinct memory
// block touched by one subwarp, with the threads whose requests were
// merged into it.
type Transaction struct {
	// SID is the subwarp that generated the access.
	SID int
	// Block is the 64-byte-aligned memory block key (address >> 6).
	Block uint64
	// Threads are the warp-relative thread ids merged into the access,
	// in increasing tid order.
	Threads []int
}

// Coalesce merges the per-thread block accesses of one warp-wide
// memory instruction into transactions, independently per subwarp.
// blocks[tid] is the memory block requested by thread tid; active[tid]
// false means the thread is predicated off (branch divergence) and
// issues no request. A nil active slice means all threads are active.
// Transactions are ordered by subwarp, then by first requesting
// thread — the order the PRT drains them.
func (p Plan) Coalesce(blocks []uint64, active []bool) []Transaction {
	if len(blocks) != len(p.SID) {
		panic("core: Coalesce blocks length does not match warp size")
	}
	if active != nil && len(active) != len(p.SID) {
		panic("core: Coalesce active length does not match warp size")
	}
	var out []Transaction
	// Per-subwarp open-transaction index; small M, linear scan is fine
	// and allocation-free for the common path.
	for s := 0; s < len(p.Sizes); s++ {
		start := len(out)
		for tid, sid := range p.SID {
			if int(sid) != s || (active != nil && !active[tid]) {
				continue
			}
			b := blocks[tid]
			merged := false
			for i := start; i < len(out); i++ {
				if out[i].Block == b {
					out[i].Threads = append(out[i].Threads, tid)
					merged = true
					break
				}
			}
			if !merged {
				out = append(out, Transaction{SID: s, Block: b, Threads: []int{tid}})
			}
		}
	}
	return out
}

// Subwarps is a plan in the form the coalescing unit reads it: each
// subwarp's threads as a bitset, words 64-thread words per subwarp
// (bit t of word s*words+k is thread 64k+t, a member of subwarp s).
// The simulator builds one per launch (Reset) into storage it reuses,
// so each coalescing pass walks every subwarp's members directly.
type Subwarps struct {
	sets    []uint64
	words   int
	threads int
}

// Reset rebuilds s for plan p, reusing s's storage when it is large
// enough. A thread whose subwarp id the plan has no size for belongs to
// no subwarp, as in Coalesce.
func (s *Subwarps) Reset(p Plan) {
	s.threads, s.words = len(p.SID), (len(p.SID)+63)/64
	n := len(p.Sizes) * s.words
	if cap(s.sets) < n {
		s.sets = make([]uint64, n)
	}
	s.sets = s.sets[:n]
	clear(s.sets)
	for tid, sid := range p.SID {
		if int(sid) < len(p.Sizes) {
			s.sets[int(sid)*s.words+tid>>6] |= 1 << (tid & 63)
		}
	}
}

// CoalesceBlocks is the coalescing unit: it appends to out the block
// key of each transaction Coalesce would produce under the plan s was
// built from (same count, same order), without materializing
// per-transaction thread lists. With withSizes it also appends to
// sizes, in lockstep, the number of threads merged into each: the
// Algorithm-1 group sizes the MCU instrumentation histograms, so
// metrics do not re-run the pass; out and sizes must then enter with
// equal lengths.
//
// One walk visits each subwarp's active threads in tid order, keeping
// the subwarp's seen blocks as a 64-bit mask in a register: when the
// warp's blocks span fewer than 64 keys (every AES table load), block
// b mod 64 is unique among them, so the mask finds each subwarp's
// first request for a block without a branch. Otherwise, and for the
// group sizes, a linear scan of the subwarp's earlier blocks does
// (scan).
func (s *Subwarps) CoalesceBlocks(blocks []uint64, active []bool, out []uint64, sizes []int, withSizes bool) ([]uint64, []int) {
	if len(blocks) != s.threads {
		panic("core: CoalesceBlocks blocks length does not match warp size")
	}
	if active != nil && len(active) != s.threads {
		panic("core: CoalesceBlocks active length does not match warp size")
	}
	if withSizes && len(out) != len(sizes) {
		panic("core: CoalesceBlocks output slices out of lockstep")
	}
	base := len(out)
	out = slices.Grow(out, len(blocks))
	buf := out[base : base+len(blocks)]
	n, k, span := 0, 0, s.words<<6
	lo, hi := ^uint64(0), uint64(0)
	var seen uint64
	for _, set := range s.sets {
		for ; set != 0; set &= set - 1 {
			tid := k | bits.TrailingZeros64(set)
			if active != nil && !active[tid] {
				continue
			}
			b := blocks[tid]
			lo, hi = min(lo, b), max(hi, b)
			buf[n] = b
			n += int(^seen >> (b & 63) & 1)
			seen |= 1 << (b & 63)
		}
		if k += 64; k == span { // the subwarp's last word
			k, seen = 0, 0
		}
	}
	if n > 0 && hi-lo >= 64 || withSizes {
		n, sizes = s.scan(blocks, active, buf, sizes, withSizes)
	}
	return out[:base+n], sizes
}

// scan is CoalesceBlocks by a linear scan of each subwarp's earlier
// blocks, for warps whose blocks alias mod 64 and for the group sizes:
// it rewrites buf from its start and returns the transaction count.
func (s *Subwarps) scan(blocks []uint64, active []bool, buf []uint64, sizes []int, withSizes bool) (int, []int) {
	n, start, k, span := 0, 0, 0, s.words<<6
	for _, set := range s.sets {
		for ; set != 0; set &= set - 1 {
			tid := k | bits.TrailingZeros64(set)
			if active != nil && !active[tid] {
				continue
			}
			b := blocks[tid]
			j := start
			for j < n && buf[j] != b {
				j++
			}
			if j == n {
				buf[n] = b
				n++
				if withSizes {
					sizes = append(sizes, 0)
				}
			}
			if withSizes {
				sizes[len(sizes)-n+j]++
			}
		}
		if k += 64; k == span { // the next subwarp's transactions start here
			k, start = 0, n
		}
	}
	return n, sizes
}

// CountCoalesced returns only the number of transactions Coalesce
// would produce, without materializing them.
func (p Plan) CountCoalesced(blocks []uint64, active []bool) int {
	if len(blocks) != len(p.SID) {
		panic("core: CountCoalesced blocks length does not match warp size")
	}
	var setBuf, outBuf [DefaultWarpSize]uint64
	s := Subwarps{sets: setBuf[:0]}
	s.Reset(p)
	out, _ := s.CoalesceBlocks(blocks, active, outBuf[:0], nil, false)
	return len(out)
}

// CountSmallBlocks counts transactions when the per-thread block ids
// are small (0..r-1, r <= 64, e.g. the R = 16 lines of a lookup
// table), so each subwarp's distinct-block set is a 64-bit mask and
// the count is a popcount. blocks[tid] < 0 marks an inactive thread.
func (p Plan) CountSmallBlocks(blocks []int) int {
	if len(blocks) != len(p.SID) {
		panic("core: CountSmallBlocks blocks length does not match warp size")
	}
	var maskBuf [DefaultWarpSize]uint64
	masks := maskBuf[:]
	if len(p.Sizes) > len(masks) {
		masks = make([]uint64, len(p.Sizes))
	}
	for tid, sid := range p.SID {
		b := blocks[tid]
		if b < 0 {
			continue
		}
		if b >= 64 {
			panic("core: CountSmallBlocks block id out of small range")
		}
		masks[sid] |= 1 << uint(b)
	}
	count := 0
	for s := 0; s < len(p.Sizes); s++ {
		count += bits.OnesCount64(masks[s])
	}
	return count
}
