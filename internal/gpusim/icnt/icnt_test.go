package icnt

import (
	"testing"

	"rcoal/internal/gpusim/mem"
	"rcoal/internal/metrics"
	"rcoal/internal/rng"
)

func TestNewCrossbarValidation(t *testing.T) {
	if _, err := NewCrossbar(0, 8, 1); err == nil {
		t.Error("0 ports accepted")
	}
	if _, err := NewCrossbar(6, 0, 1); err == nil {
		t.Error("0 latency accepted")
	}
	if _, err := NewSlots(6, 8, 0); err == nil {
		t.Error("0 occupancy accepted")
	}
	x, err := NewCrossbar(6, 8, 1)
	if err != nil || x.Ports() != 6 {
		t.Fatalf("NewCrossbar: %v, ports %d", err, x.Ports())
	}
}

func TestLatency(t *testing.T) {
	x, _ := NewCrossbar(2, 8, 1)
	r := &mem.Request{ID: 1}
	x.Push(1, r, 100)
	for now := int64(100); now < 108; now++ {
		if got := x.Pop(1, now); got != nil {
			t.Fatalf("delivered at %d, before latency elapsed", now)
		}
	}
	if got := x.Pop(1, 108); got != r {
		t.Fatal("not delivered at latency boundary")
	}
}

func TestPortBandwidthOnePerCycle(t *testing.T) {
	x, _ := NewCrossbar(1, 1, 1)
	for i := 0; i < 4; i++ {
		x.Push(0, &mem.Request{ID: uint64(i)}, 0)
	}
	var got []uint64
	for now := int64(1); now <= 10; now++ {
		if r := x.Pop(0, now); r != nil {
			got = append(got, r.ID)
			// A second pop in the same cycle must fail.
			if x.Pop(0, now) != nil {
				t.Fatal("two deliveries in one cycle on one port")
			}
		}
	}
	if len(got) != 4 {
		t.Fatalf("delivered %d, want 4", len(got))
	}
	for i, id := range got {
		if id != uint64(i) {
			t.Fatalf("out-of-order delivery: %v", got)
		}
	}
}

func TestPortsIndependent(t *testing.T) {
	x, _ := NewCrossbar(2, 1, 1)
	x.Push(0, &mem.Request{ID: 0}, 0)
	x.Push(1, &mem.Request{ID: 1}, 0)
	a := x.Pop(0, 1)
	b := x.Pop(1, 1)
	if a == nil || b == nil {
		t.Fatal("ports not independent in the same cycle")
	}
}

func TestIdleAndPending(t *testing.T) {
	x, _ := NewCrossbar(3, 2, 1)
	if !x.Idle() {
		t.Error("new crossbar not idle")
	}
	x.Push(2, &mem.Request{}, 0)
	if x.Idle() || x.Pending(2) != 1 || x.Pending(0) != 0 {
		t.Error("pending accounting wrong")
	}
	x.Pop(2, 5)
	if !x.Idle() || x.Delivered != 1 {
		t.Error("idle/delivered accounting wrong after drain")
	}
}

func TestPushBadPortPanics(t *testing.T) {
	x, _ := NewCrossbar(2, 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("push to invalid port did not panic")
		}
	}()
	x.Push(5, &mem.Request{}, 0)
}

// TestInjectDrop: the fault seam swallows exactly the nth push to the
// armed port; other packets and ports are untouched, and Reset re-arms
// the per-launch counter.
func TestInjectDrop(t *testing.T) {
	x, _ := NewCrossbar(2, 1, 1)
	x.InjectDrop(0, 2)
	for i := 0; i < 3; i++ {
		x.Push(0, &mem.Request{ID: uint64(i + 1)}, 0)
	}
	x.Push(1, &mem.Request{ID: 9}, 0) // other port: never dropped
	var got []uint64
	for now := int64(1); now < 10; now++ {
		if r := x.Pop(0, now); r != nil {
			got = append(got, r.ID)
		}
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("port 0 delivered %v, want [1 3] (2 swallowed)", got)
	}
	if r := x.Pop(1, 5); r == nil || r.ID != 9 {
		t.Fatal("unarmed port lost its packet")
	}

	// Reset starts a fresh launch: the second push vanishes again.
	x.Reset()
	x.Push(0, &mem.Request{ID: 11}, 0)
	x.Push(0, &mem.Request{ID: 12}, 0)
	if n := x.Pending(0); n != 1 {
		t.Fatalf("after reset, pending = %d, want 1 (re-armed drop)", n)
	}
}

// TestReserveMatchesPushPop is the premise of the arithmetic request
// side: over randomized injection streams (several packets per cycle,
// idle gaps, two ports, occupancy 1 and 2, latency 1 and 8), Slots'
// Reserve returns exactly the cycle a Push/Pop crossbar polled every
// cycle delivers each packet, the depth Reserve observes is the Push
// crossbar's queue depth at the same injection, and after each cycle's
// deliveries NextReserved is the Push crossbar's next delivery.
func TestReserveMatchesPushPop(t *testing.T) {
	r := rng.New(0x5E7E)
	for _, latency := range []int{1, 8} {
		for _, occupancy := range []int{1, 2} {
			for trial := 0; trial < 20; trial++ {
				queued, _ := NewCrossbar(2, latency, occupancy)
				booked, _ := NewSlots(2, latency, occupancy)
				queued.DepthHist = metrics.NewHistogram(metrics.LinearBounds(1, 64))
				booked.DepthHist = metrics.NewHistogram(metrics.LinearBounds(1, 64))
				reserved := map[uint64]int64{}
				var id uint64
				delivered := 0
				for now := int64(0); now < 400 || delivered < int(id); now++ {
					if now < 400 && r.Intn(3) == 0 {
						for n := 1 + r.Intn(3); n > 0; n-- {
							id++
							dst := r.Intn(2)
							qSum, bSum := queued.DepthHist.Sum(), booked.DepthHist.Sum()
							queued.Push(dst, &mem.Request{ID: id}, now)
							reserved[id] = booked.Reserve(dst, now)
							if q, b := queued.DepthHist.Sum()-qSum, booked.DepthHist.Sum()-bSum; q != b {
								t.Fatalf("latency %d occupancy %d: packet %d observed depth %d, queued depth %d",
									latency, occupancy, id, b, q)
							}
						}
					}
					for dst := 0; dst < 2; dst++ {
						if q := queued.Pop(dst, now); q != nil {
							delivered++
							if reserved[q.ID] != now {
								t.Fatalf("latency %d occupancy %d: packet %d delivered at %d, reserved %d",
									latency, occupancy, q.ID, now, reserved[q.ID])
							}
						}
						if got, want := booked.NextReserved(dst, now), queued.NextDeliverable(dst); got != want {
							t.Fatalf("latency %d occupancy %d: NextReserved(%d, %d) = %d, next delivery %d",
								latency, occupancy, dst, now, got, want)
						}
					}
				}
			}
		}
	}
}
