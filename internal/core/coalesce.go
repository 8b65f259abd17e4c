package core

import "math/bits"

// This file is the coalescing logic itself: turning a warp-wide memory
// instruction (one block address per active thread) into the set of
// memory transactions the MCU emits. Coalescing happens independently
// per subwarp — threads in different subwarps never merge, which is
// the entire lever the defense turns.
//
// The simulated hardware coalesces through CoalesceBlocks and
// CoalesceBlocksSizes (block keys, and group sizes for metrics);
// Coalesce, whose Transactions carry their member threads, is their
// reference and serves warps wider than 64 threads. CountSmallBlocks,
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

// CoalesceBlocks is the allocation-lean variant used on the
// simulator's hot path: it appends to out the block key of each
// transaction Coalesce would produce (same count, same order), without
// materializing per-transaction thread lists.
func (p Plan) CoalesceBlocks(blocks []uint64, active []bool, out []uint64) []uint64 {
	if len(blocks) != len(p.SID) {
		panic("core: CoalesceBlocks blocks length does not match warp size")
	}
	if active != nil && len(active) != len(p.SID) {
		panic("core: CoalesceBlocks active length does not match warp size")
	}
	out, _ = p.coalesce(blocks, active, out, nil, false)
	return out
}

// CoalesceBlocksSizes is the fused variant for the instrumented
// simulator hot path: one pass appending both the block keys
// CoalesceBlocks would produce and, for each, the number of threads
// merged into it — the Algorithm-1 group sizes the MCU instrumentation
// histograms (same count, same order), so enabling metrics does not
// re-run the coalescing pass. outBlocks and outSizes must enter with
// equal lengths; they are appended in lockstep.
func (p Plan) CoalesceBlocksSizes(blocks []uint64, active []bool, outBlocks []uint64, outSizes []int) ([]uint64, []int) {
	if len(blocks) != len(p.SID) {
		panic("core: CoalesceBlocksSizes blocks length does not match warp size")
	}
	if active != nil && len(active) != len(p.SID) {
		panic("core: CoalesceBlocksSizes active length does not match warp size")
	}
	if len(outBlocks) != len(outSizes) {
		panic("core: CoalesceBlocksSizes output slices out of lockstep")
	}
	return p.coalesce(blocks, active, outBlocks, outSizes, true)
}

// coalesce is the one-pass coalescer behind CoalesceBlocks and
// CoalesceBlocksSizes. One walk over the threads in tid order groups
// the active ones by subwarp (members[s], a bitset of tids) and marks
// in first the threads that request a block first within their
// subwarp; the first threads of each subwarp, in tid order, are the
// output. When the warp's blocks span fewer than 64 keys (every AES
// table load), block b mod 64 is unique among them, so a 64-bit mask
// per subwarp finds duplicates without a branch; otherwise a second
// walk finds them by a linear scan of the subwarp's earlier blocks.
func (p Plan) coalesce(blocks []uint64, active []bool, out []uint64, sizes []int, withSizes bool) ([]uint64, []int) {
	n, m := len(p.SID), len(p.Sizes)
	if n > 64 {
		// Wider than a bitset word: the reference coalescer.
		for _, tx := range p.Coalesce(blocks, active) {
			out = append(out, tx.Block)
			if withSizes {
				sizes = append(sizes, len(tx.Threads))
			}
		}
		return out, sizes
	}
	var membersBuf, seenBuf [DefaultWarpSize]uint64
	members, seen := membersBuf[:], seenBuf[:]
	if m > len(members) {
		members, seen = make([]uint64, m), make([]uint64, m)
	}
	members, seen = members[:m], seen[:m]
	var first uint64
	lo, hi := ^uint64(0), uint64(0)
	for tid, s := range p.SID {
		if int(s) >= m || active != nil && !active[tid] {
			continue
		}
		b := blocks[tid]
		lo, hi = min(lo, b), max(hi, b)
		members[s] |= 1 << tid
		first |= (^seen[s] >> (b & 63) & 1) << tid
		seen[s] |= 1 << (b & 63)
	}
	if hi-lo >= 64 { // b mod 64 aliases: scan instead
		first = 0
		for tid, s := range p.SID {
			if int(s) < m && members[s]>>tid&1 != 0 && firstWith(blocks, members[s]&first, blocks[tid]) < 0 {
				first |= 1 << tid
			}
		}
	}
	for s := range members {
		for set := members[s] & first; set != 0; set &= set - 1 {
			out = append(out, blocks[bits.TrailingZeros64(set)])
		}
	}
	if withSizes {
		var count [64]int
		for tid, s := range p.SID {
			if int(s) < m && members[s]>>tid&1 != 0 {
				count[firstWith(blocks, members[s]&first, blocks[tid])]++
			}
		}
		for s := range members {
			for set := members[s] & first; set != 0; set &= set - 1 {
				sizes = append(sizes, count[bits.TrailingZeros64(set)])
			}
		}
	}
	return out, sizes
}

// firstWith returns the lowest tid in set whose block is b, or -1.
func firstWith(blocks []uint64, set uint64, b uint64) int {
	for ; set != 0; set &= set - 1 {
		if tid := bits.TrailingZeros64(set); blocks[tid] == b {
			return tid
		}
	}
	return -1
}

// CountCoalesced returns only the number of transactions Coalesce
// would produce, without materializing them.
func (p Plan) CountCoalesced(blocks []uint64, active []bool) int {
	if len(blocks) != len(p.SID) {
		panic("core: CountCoalesced blocks length does not match warp size")
	}
	var buf [64]uint64
	out, _ := p.coalesce(blocks, active, buf[:0], nil, false)
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

// CountUncoalesced returns the transaction count with coalescing
// disabled entirely: one access per active thread. This is the
// worst-case defense the paper rejects in Section III (up to 178%
// slowdown, 2.7x data movement).
func CountUncoalesced(blocks []uint64, active []bool) int {
	n := 0
	for tid := range blocks {
		if active == nil || active[tid] {
			n++
		}
	}
	return n
}
