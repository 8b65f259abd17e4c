package dram

import (
	"reflect"
	"testing"

	"rcoal/internal/gpusim/mem"
	"rcoal/internal/rng"
)

// arrival is one request of a randomized stream, scheduled at cycle at.
type arrival struct {
	at  int64
	id  uint64
	loc mem.Location
}

// randomStream draws n requests over random banks and rows (a few rows
// per bank, so row hits, misses and conflicts all occur) with random
// arrival gaps, bursts included.
func randomStream(r *rng.Source, n, banks int) []arrival {
	out := make([]arrival, n)
	var at int64
	for i := range out {
		if r.Intn(3) > 0 {
			at += int64(r.Intn(12))
		}
		out[i] = arrival{at: at, id: uint64(i + 1),
			loc: mem.Location{Bank: r.Intn(banks), Row: r.Intn(4), Col: 64 * r.Intn(32)}}
	}
	return out
}

// streamRun drives a controller over a stream one cycle at a time,
// checking the in-flight invariants on the way: each newly scheduled
// request's Done exceeds every earlier one, and Collect returns each
// request exactly once, at cycle Done, in Done order. out records the
// completion sequence as (id, cycle) pairs.
type streamRun struct {
	t        *testing.T
	c        *Controller
	stream   []arrival
	next     int   // index of the next arrival to schedule
	lastDone int64 // Done of the most recently scheduled request
	seen     map[uint64]bool
	out      []serviced
}

func (s *streamRun) step(now int64) {
	t := s.t
	for s.next < len(s.stream) && s.stream[s.next].at <= now {
		a := s.stream[s.next]
		q := &mem.Request{ID: a.id, Addr: uint64(a.id) * mem.BlockBytes, Loc: a.loc}
		if done := s.c.Schedule(q, a.at); done <= s.lastDone || done != q.Done {
			t.Fatalf("cycle %d: request %d scheduled with Done %d (returned %d), not after the previous %d",
				now, q.ID, q.Done, done, s.lastDone)
		}
		s.lastDone = q.Done
		s.next++
	}
	for _, q := range s.c.Collect(now) {
		if q.Done != now {
			t.Fatalf("cycle %d: request %d returned with Done %d", now, q.ID, q.Done)
		}
		if s.seen[q.ID] {
			t.Fatalf("cycle %d: request %d returned twice", now, q.ID)
		}
		s.seen[q.ID] = true
		s.out = append(s.out, serviced{id: q.ID, cycle: now})
	}
}

func (s *streamRun) finish(start int64) {
	for now := start; now < start+1_000_000; now++ {
		s.step(now)
		if s.next == len(s.stream) && s.c.Idle() {
			for _, a := range s.stream {
				if !s.seen[a.id] {
					s.t.Fatalf("request %d never returned", a.id)
				}
			}
			return
		}
	}
	s.t.Fatal("controller did not drain")
}

// TestInFlightCompletionOrder is the property test behind the in-flight
// FIFO: over randomized streams (random bank and row, random arrival
// gaps, bursts of arrivals in one cycle included), scheduled Done times
// strictly increase, Collect hands back every request exactly once at
// cycle Done in Done order, and a mid-flight Snapshot/Restore — into
// the same controller and a fresh one — reproduces the completion
// sequence.
func TestInFlightCompletionOrder(t *testing.T) {
	r := rng.New(0x1F1F0)
	banks := mem.DefaultAddressMap().Banks
	for trial := 0; trial < 60; trial++ {
		stream := randomStream(r, 20+r.Intn(60), banks)
		cut := stream[len(stream)/2].at + int64(r.Intn(20))

		ref := &streamRun{t: t, c: newTestController(t), stream: stream, seen: map[uint64]bool{}}
		for now := int64(0); now < cut; now++ {
			ref.step(now)
		}
		// The stream runner's state at the cut resumes with the
		// controller: the arrival cursor and the completions so far.
		head := len(ref.out)
		next, lastDone := ref.next, ref.lastDone

		var table []mem.Request
		idx := map[*mem.Request]int{}
		snap := ref.c.Snapshot(func(q *mem.Request) int {
			if i, ok := idx[q]; ok {
				return i
			}
			table = append(table, *q)
			idx[q] = len(table) - 1
			return len(table) - 1
		})
		resume := func(c *Controller) *streamRun {
			fresh := make([]*mem.Request, len(table))
			c.Restore(snap, func(i int) *mem.Request {
				if fresh[i] == nil {
					p := new(mem.Request)
					*p = table[i]
					fresh[i] = p
				}
				return fresh[i]
			})
			s := &streamRun{t: t, c: c, stream: stream, next: next, lastDone: lastDone,
				seen: map[uint64]bool{}, out: append([]serviced(nil), ref.out[:head]...)}
			for _, sv := range s.out {
				s.seen[sv.id] = true
			}
			return s
		}

		ref.finish(cut)
		want := ref.out
		if ref.c.InFlight() != 0 {
			t.Fatalf("trial %d: %d requests left in flight", trial, ref.c.InFlight())
		}

		for _, c := range []*Controller{ref.c, newTestController(t)} {
			s := resume(c)
			s.finish(cut)
			if !reflect.DeepEqual(s.out, want) {
				t.Fatalf("trial %d: restored completion sequence differs\n got %v\nwant %v", trial, s.out, want)
			}
		}
	}
}
