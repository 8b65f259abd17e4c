package ringbuf

import "testing"

func TestFIFOOrder(t *testing.T) {
	var r Ring[int]
	for i := 0; i < 100; i++ {
		r.Push(i)
	}
	if r.Len() != 100 {
		t.Fatalf("len = %d, want 100", r.Len())
	}
	for i := 0; i < 100; i++ {
		if r.Peek() != i {
			t.Fatalf("peek = %d, want %d", r.Peek(), i)
		}
		if got := r.Pop(); got != i {
			t.Fatalf("pop = %d, want %d", got, i)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("len = %d after draining, want 0", r.Len())
	}
}

func TestWrapAround(t *testing.T) {
	var r Ring[int]
	// Interleave pushes and pops so head walks around the buffer many
	// times; order must survive every wrap, for Pop and for At.
	next, expect := 0, 0
	for round := 0; round < 1000; round++ {
		for i := 0; i < 3; i++ {
			r.Push(next)
			next++
		}
		for i := 0; i < r.Len(); i++ {
			if got := r.At(i); got != expect+i {
				t.Fatalf("round %d: At(%d) = %d, want %d", round, i, got, expect+i)
			}
		}
		for i := 0; i < 3; i++ {
			if got := r.Pop(); got != expect {
				t.Fatalf("round %d: pop = %d, want %d", round, got, expect)
			}
			expect++
		}
	}
}

// TestSteadyStateCapacityBounded is the regression test for the
// `q = q[1:]` inject-queue drain the ring replaced: under steady
// push/pop with bounded depth, the backing array must not creep.
func TestSteadyStateCapacityBounded(t *testing.T) {
	var r Ring[*int]
	v := 7
	for i := 0; i < 100000; i++ {
		r.Push(&v)
		r.Push(&v)
		r.Pop()
		r.Pop()
	}
	if r.Cap() > 8 {
		t.Fatalf("capacity %d after 100k steady-state ops, want <= 8", r.Cap())
	}
}

func TestSteadyStateZeroAllocs(t *testing.T) {
	var r Ring[int]
	// Warm to steady-state depth.
	for i := 0; i < 4; i++ {
		r.Push(i)
	}
	for r.Len() > 0 {
		r.Pop()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 4; i++ {
			r.Push(i)
		}
		for r.Len() > 0 {
			r.Pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state push/pop allocates %v/op, want 0", allocs)
	}
}

func TestResetKeepsCapacityDropsContents(t *testing.T) {
	var r Ring[*int]
	v := 1
	for i := 0; i < 20; i++ {
		r.Push(&v)
	}
	capBefore := r.Cap()
	r.Reset()
	if r.Len() != 0 {
		t.Fatalf("len = %d after Reset, want 0", r.Len())
	}
	if r.Cap() != capBefore {
		t.Fatalf("cap = %d after Reset, want %d", r.Cap(), capBefore)
	}
	// Every slot must have been zeroed (no pinned references).
	for i, p := range r.buf {
		if p != nil {
			t.Fatalf("slot %d not zeroed after Reset", i)
		}
	}
}

func TestEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("pop from empty ring did not panic")
		}
	}()
	var r Ring[int]
	r.Pop()
}
