// Package icnt models the on-chip interconnect of the simulated GPU:
// one crossbar per direction (SM→memory-partition and partition→SM,
// Table I) with a fixed pipeline latency and one packet per output
// port per cycle of delivery bandwidth, approximating the iSLIP-
// allocated crossbar of the baseline architecture with round-robin
// fairness per output port.
//
// A port's deliveries are arithmetic: a packet injected at cycle t is
// delivered at max(t + latency, the port's next free slot), and
// delivering it frees the port occupancy cycles later. Slots books that
// cycle and queues nothing (Reserve, plain arithmetic the compiler
// inlines into the simulator's issue and drain paths); the receiver
// keeps its packets in the order they were injected. The depth
// histogram is a separate call (Observe), made only where the
// simulator's metrics are installed. The request side books each request when it
// leaves its SM; the reply side books each reply when its SM takes it,
// in the order the partitions hand replies over.
package icnt

import (
	"fmt"

	"rcoal/internal/metrics"
	"rcoal/internal/ringbuf"
)

// Slots is one direction of the interconnect: the next free delivery
// slot of each output port.
type Slots struct {
	latency   int64
	occupancy int64
	// nextSlot[p] is the next cycle at which port p may deliver.
	nextSlot []int64
	// ReceiverFirst marks a direction whose receivers take a cycle's
	// deliveries before that cycle's injections (the reply side): a
	// slot delivered on an injection's cycle has then left the port
	// when DepthHist observes the injection.
	ReceiverFirst bool
	// DepthHist, when non-nil, observes a port's booked and not yet
	// delivered slots at every injection its caller hands to Observe
	// (the depth including the new one). The depth follows from the
	// bookings alone, so it is the same whether or not anything steps
	// the port's cycles; reserved holds the bookings only while
	// DepthHist is installed. Installed by the simulator's metrics
	// layer, which observes every booking.
	DepthHist *metrics.Histogram
	reserved  []ringbuf.Ring[int64]
}

// NewSlots builds one direction with the given number of output ports
// and pipeline latency in core cycles. Each packet occupies its output
// port for occupancy cycles (its flit count: a 64-byte data reply is
// two 32-byte flits, a request header one).
func NewSlots(ports int, latency, occupancy int) (*Slots, error) {
	switch {
	case ports <= 0:
		return nil, fmt.Errorf("icnt: ports %d must be positive", ports)
	case latency < 1:
		return nil, fmt.Errorf("icnt: latency %d must be >= 1", latency)
	case occupancy < 1:
		return nil, fmt.Errorf("icnt: occupancy %d must be >= 1", occupancy)
	}
	return &Slots{
		latency:   int64(latency),
		occupancy: int64(occupancy),
		nextSlot:  make([]int64, ports),
		reserved:  make([]ringbuf.Ring[int64], ports),
	}, nil
}

// Due returns the cycle port dst would deliver a packet injected at
// cycle now, without booking it.
func (x *Slots) Due(dst int, now int64) int64 { return max(now+x.latency, x.nextSlot[dst]) }

// Reserve books port dst's next delivery slot for a packet injected at
// cycle now and returns its delivery cycle. Injections into one port
// are booked in injection order. It is plain arithmetic, which the
// compiler inlines: callers with DepthHist installed observe each
// booking with Observe.
func (x *Slots) Reserve(dst int, now int64) int64 {
	at := x.Due(dst, now)
	x.nextSlot[dst] = at + x.occupancy
	return at
}

// Observe records a packet Reserve booked into port dst at cycle now
// for delivery at at, and observes the port's depth (DepthHist, which
// must be installed).
func (x *Slots) Observe(dst int, now, at int64) {
	// Slots delivered before this cycle have left the port; one
	// delivered at now has too when the receivers go first.
	gone := now
	if x.ReceiverFirst {
		gone++
	}
	q := &x.reserved[dst]
	for q.Len() > 0 && q.Peek() < gone {
		q.Pop()
	}
	q.Push(at)
	x.DepthHist.Observe(int64(q.Len()))
}

// Reset frees every port, keeping the buffers for reuse.
func (x *Slots) Reset() {
	clear(x.nextSlot)
	for i := range x.reserved {
		x.reserved[i].Reset()
	}
}
