// Package ringbuf provides a growable FIFO ring buffer used on the
// simulator's hot paths (the LD/ST inject queue, and the interconnect
// ports' booked slots under metrics). Unlike the `q = q[1:]` idiom, popping never abandons the
// front of the backing array, so a queue that is pushed and popped in
// steady state keeps a small, bounded capacity and performs zero
// allocations once warmed.
package ringbuf

// Ring is a FIFO queue over a circular buffer. The zero value is an
// empty ring ready for use.
type Ring[T any] struct {
	buf  []T
	head int // index of the oldest element
	n    int // number of live elements
}

// Len returns the number of queued elements.
func (r *Ring[T]) Len() int { return r.n }

// Cap returns the current capacity of the backing buffer.
func (r *Ring[T]) Cap() int { return len(r.buf) }

// Push appends v at the tail, growing the buffer if full. The
// capacity is a power of two (grow doubles from 8), so indices wrap by
// masking.
func (r *Ring[T]) Push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// Pop removes and returns the head element. It panics on an empty ring;
// callers gate on Len.
func (r *Ring[T]) Pop() T {
	if r.n == 0 {
		panic("ringbuf: pop from empty ring")
	}
	v := r.buf[r.head]
	var zero T
	r.buf[r.head] = zero // drop the reference for GC
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// Peek returns the head element without removing it. It panics on an
// empty ring.
func (r *Ring[T]) Peek() T {
	if r.n == 0 {
		panic("ringbuf: peek into empty ring")
	}
	return r.buf[r.head]
}

// At returns the element i places behind the head (At(0) is Peek). It
// panics unless 0 <= i < Len.
func (r *Ring[T]) At(i int) T {
	if i < 0 || i >= r.n {
		panic("ringbuf: index out of range")
	}
	return r.buf[(r.head+i)&(len(r.buf)-1)]
}

// Reset empties the ring, zeroing dropped slots so stale references do
// not pin memory, while keeping the backing buffer for reuse.
func (r *Ring[T]) Reset() {
	var zero T
	for i := 0; i < r.n; i++ {
		j := r.head + i
		if j >= len(r.buf) {
			j -= len(r.buf)
		}
		r.buf[j] = zero
	}
	r.head, r.n = 0, 0
}

// grow doubles the capacity (starting at 8), unrolling the circular
// contents into the front of the new buffer.
func (r *Ring[T]) grow() {
	newCap := 2 * len(r.buf)
	if newCap == 0 {
		newCap = 8
	}
	buf := make([]T, newCap)
	for i := 0; i < r.n; i++ {
		j := r.head + i
		if j >= len(r.buf) {
			j -= len(r.buf)
		}
		buf[i] = r.buf[j]
	}
	r.buf = buf
	r.head = 0
}
