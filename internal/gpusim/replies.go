package gpusim

import (
	"math"
	"math/bits"

	"rcoal/internal/gpusim/mem"
	"rcoal/internal/ringbuf"
)

// replyQueue holds an SM's memory replies in flight, from the cycle
// their requests leave the SM (GPU.serve), one FIFO per source: partition
// pid's DRAM data is source pid, or with L2s its L2 hits are source
// 2*pid and its DRAM data 2*pid+1 (GPU.replySources). A source
// readies replies (the requests' Done) in the order their requests
// reach it — a controller's Done strictly increases in schedule order,
// and an L2 hit is ready a fixed latency after its arrival, one per
// cycle — so every FIFO is sorted. The SM takes replies in the order
// the partitions handed them to the reply crossbar: least Done first,
// then least source (partition order, an L2 hit before DRAM data),
// which is the least head of all FIFOs. A reply's key packs both,
// Done<<shift | source, so that order is the keys' order (a launch's
// cycles stay far below 2^(63-shift)). A one-warp launch that batches
// its replies (runState.batch) never queues them here: it orders each
// train by these keys instead (trainKeys, GPU.bookTrain).
type replyQueue struct {
	src   []ringbuf.Ring[*mem.Request]
	ready []int64 // each source's head key; math.MaxInt64 when empty
	head  int64   // the least key, the next reply's; math.MaxInt64 when empty
	shift int
}

func newReplyQueue(sources int) replyQueue {
	q := replyQueue{src: make([]ringbuf.Ring[*mem.Request], sources), ready: make([]int64, sources),
		shift: bits.Len(uint(sources - 1))}
	q.reset()
	return q
}

func (q *replyQueue) empty() bool { return q.head == math.MaxInt64 }

// next returns the Done of the next reply; the queue must not be empty.
func (q *replyQueue) next() int64 { return q.done(q.head) }

// key returns the key of a reply from source s whose data is ready at
// done; done and source recover its parts.
func (q *replyQueue) key(done int64, s int) int64 { return done<<q.shift | int64(s) }

func (q *replyQueue) done(key int64) int64 { return key >> q.shift }

func (q *replyQueue) source(key int64) int { return int(key & (1<<q.shift - 1)) }

func (q *replyQueue) push(s int, r *mem.Request) {
	f := &q.src[s]
	f.Push(r)
	if f.Len() == 1 {
		q.ready[s] = q.key(r.Done, s)
		q.head = min(q.head, q.ready[s])
	}
}

// pop removes and returns the next reply; the queue must not be empty.
func (q *replyQueue) pop() *mem.Request {
	s := q.source(q.head)
	f := &q.src[s]
	r := f.Pop()
	q.ready[s] = math.MaxInt64
	if f.Len() > 0 {
		q.ready[s] = q.key(f.Peek().Done, s)
	}
	q.head = math.MaxInt64
	for _, k := range q.ready {
		q.head = min(q.head, k)
	}
	return r
}

func (q *replyQueue) reset() {
	for s := range q.src {
		q.src[s].Reset()
		q.ready[s] = math.MaxInt64
	}
	q.head = math.MaxInt64
}

// trainKeys orders the keys of a batched reply train (GPU.bookTrain):
// a bitmap over their offsets from a base below every key, marked as
// each transaction is served and emptied by the scan that yields them
// in increasing order, so it is all zero between trains. Marking at
// serve time hides each mark's read-modify-write of its word behind
// the serve work; a separate marking pass over the train stalls on
// store forwarding when consecutive keys share a word.
type trainKeys struct {
	base   int64
	words  []uint64
	lo, hi int // the least and greatest words marked
}

// trainWords is the key bitmap's size when a one-warp runtime is built,
// above the widest train measured (18 words); add grows it past that.
const trainWords = 32

// start begins a train whose keys are all at least base.
func (t *trainKeys) start(base int64) { t.base, t.lo, t.hi = base, math.MaxInt, -1 }

// add marks a key; a key added twice is marked once.
func (t *trainKeys) add(key int64) {
	off := key - t.base
	w := int(off >> 6)
	if w >= len(t.words) {
		t.grow(w)
	}
	t.words[w] |= 1 << (off & 63)
	t.lo, t.hi = min(t.lo, w), max(t.hi, w)
}

func (t *trainKeys) grow(w int) { t.words = append(t.words, make([]uint64, 2*(w+1)-len(t.words))...) }

// appendDone appends the Done of each marked key (key >> shift) in
// increasing key order to dst, unmarking them.
func (t *trainKeys) appendDone(dst []int64, shift int) []int64 {
	for w := t.lo; w <= t.hi; w++ {
		base := t.base + int64(w<<6)
		for word := t.words[w]; word != 0; word &= word - 1 {
			dst = append(dst, (base+int64(bits.TrailingZeros64(word)))>>shift)
		}
		t.words[w] = 0
	}
	return dst
}
