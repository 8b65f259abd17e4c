package icnt

import (
	"testing"

	"rcoal/internal/metrics"
	"rcoal/internal/rng"
)

func TestNewSlotsValidation(t *testing.T) {
	if _, err := NewSlots(0, 8, 1); err == nil {
		t.Error("0 ports accepted")
	}
	if _, err := NewSlots(6, 0, 1); err == nil {
		t.Error("0 latency accepted")
	}
	if _, err := NewSlots(6, 8, 0); err == nil {
		t.Error("0 occupancy accepted")
	}
	if _, err := NewSlots(6, 8, 1); err != nil {
		t.Fatalf("NewSlots: %v", err)
	}
}

func TestLatency(t *testing.T) {
	x, _ := NewSlots(2, 8, 1)
	if got := x.Due(1, 100); got != 108 {
		t.Fatalf("Due = %d, want 108", got)
	}
	if got := x.Reserve(1, 100); got != 108 {
		t.Fatalf("delivered at %d, want the latency boundary 108", got)
	}
}

func TestPortBandwidthOnePerCycle(t *testing.T) {
	x, _ := NewSlots(1, 1, 1)
	for i := int64(0); i < 4; i++ {
		if got := x.Reserve(0, 0); got != 1+i {
			t.Fatalf("packet %d delivered at %d, want %d: one delivery per cycle", i, got, 1+i)
		}
	}
	y, _ := NewSlots(1, 1, 2)
	y.Reserve(0, 0)
	if got := y.Reserve(0, 0); got != 3 {
		t.Fatalf("two-flit packets delivered 1 and %d, want 1 and 3", got)
	}
}

func TestPortsIndependent(t *testing.T) {
	x, _ := NewSlots(2, 1, 1)
	if a, b := x.Reserve(0, 0), x.Reserve(1, 0); a != 1 || b != 1 {
		t.Fatalf("ports delivered at %d and %d, want both at 1", a, b)
	}
}

func TestReserveBadPortPanics(t *testing.T) {
	x, _ := NewSlots(2, 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("reserve on an invalid port did not panic")
		}
	}()
	x.Reserve(5, 0)
}

// refPort is the reference a port's arithmetic stands for: a FIFO of
// injected packets, polled every cycle, delivering its head once the
// head's latency has elapsed and the port is free.
type refPort struct {
	latency, occupancy int64
	ready              []int64 // queued packets' earliest delivery, in order
	ids                []uint64
	nextSlot           int64
}

func (p *refPort) push(id uint64, now int64) {
	p.ready = append(p.ready, now+p.latency)
	p.ids = append(p.ids, id)
}

func (p *refPort) pop(now int64) (uint64, bool) {
	if len(p.ready) == 0 || now < max(p.ready[0], p.nextSlot) {
		return 0, false
	}
	id := p.ids[0]
	p.ready, p.ids = p.ready[1:], p.ids[1:]
	p.nextSlot = now + p.occupancy
	return id, true
}

// TestReserveMatchesPushPop is the premise of the arithmetic
// interconnect: over randomized injection streams (several packets per
// cycle, idle gaps, two ports, occupancy 1 and 2, latency 1 and 8),
// Reserve returns exactly the cycle a queued port polled every cycle
// delivers each packet; the depth Observe records after each Reserve
// is the queued port's depth at the same injection, with the cycle's
// deliveries taken after the injections, or before them under
// ReceiverFirst.
func TestReserveMatchesPushPop(t *testing.T) {
	r := rng.New(0x5E7E)
	for _, latency := range []int{1, 8} {
		for _, occupancy := range []int{1, 2} {
			for _, receiverFirst := range []bool{false, true} {
				for trial := 0; trial < 20; trial++ {
					ref := [2]*refPort{}
					for i := range ref {
						ref[i] = &refPort{latency: int64(latency), occupancy: int64(occupancy)}
					}
					booked, _ := NewSlots(2, latency, occupancy)
					booked.ReceiverFirst = receiverFirst
					booked.DepthHist = metrics.NewHistogram(metrics.LinearBounds(1, 64))
					reserved := map[uint64]int64{}
					var id uint64
					delivered := 0
					deliver := func(now int64) {
						for _, p := range ref {
							if q, ok := p.pop(now); ok {
								delivered++
								if reserved[q] != now {
									t.Fatalf("latency %d occupancy %d: packet %d delivered at %d, reserved %d",
										latency, occupancy, q, now, reserved[q])
								}
							}
						}
					}
					for now := int64(0); now < 400 || delivered < int(id); now++ {
						if receiverFirst {
							deliver(now)
						}
						if now < 400 && r.Intn(3) == 0 {
							for n := 1 + r.Intn(3); n > 0; n-- {
								id++
								dst := r.Intn(2)
								sum := booked.DepthHist.Sum()
								ref[dst].push(id, now)
								reserved[id] = booked.Reserve(dst, now)
								booked.Observe(dst, now, reserved[id])
								if got, want := booked.DepthHist.Sum()-sum, int64(len(ref[dst].ready)); got != want {
									t.Fatalf("latency %d occupancy %d receiver-first %v: packet %d observed depth %d, queued depth %d",
										latency, occupancy, receiverFirst, id, got, want)
								}
							}
						}
						if !receiverFirst {
							deliver(now)
						}
					}
				}
			}
		}
	}
}
