// Package icnt models the on-chip interconnect of the simulated GPU:
// one crossbar per direction (SM→memory-partition and partition→SM,
// Table I) with a fixed pipeline latency and one packet per output
// port per cycle of delivery bandwidth, approximating the iSLIP-
// allocated crossbar of the baseline architecture with round-robin
// fairness per output port.
//
// A port's deliveries are arithmetic: a packet injected at cycle t is
// delivered at max(t + latency, the port's next free slot). Slots books
// that cycle at injection, for a direction whose receiver acts on the
// delivery cycle alone (the request side); a Crossbar's Push and Pop
// carry packets for one whose receiver must see them in order (the
// reply side, where six partitions' replies merge).
package icnt

import (
	"fmt"
	"math"

	"rcoal/internal/gpusim/mem"
	"rcoal/internal/metrics"
	"rcoal/internal/ringbuf"
)

// packet wraps a request with its earliest possible delivery cycle.
type packet struct {
	req     *mem.Request
	readyAt int64
}

// Crossbar is one direction of the interconnect. Packets pushed to an
// output port are delivered in order, no earlier than latency cycles
// after injection, at most one per cycle per port.
type Crossbar struct {
	latency   int64
	occupancy int64
	ports     []ringbuf.Ring[packet]
	// nextSlot[p] is the next cycle at which port p may deliver,
	// enforcing the per-packet port occupancy.
	nextSlot []int64
	// due[p] is the cycle port p's head packet can be delivered, the
	// later of its readyAt and nextSlot[p]; math.MaxInt64 while the
	// port is empty. Pop and NextDeliverable read it instead of the
	// ring.
	due []int64

	// dropPort/dropNth/dropSeen are the fault-injection seam (see
	// InjectDrop): when dropNth > 0, the dropNth-th push toward
	// dropPort is silently swallowed.
	dropPort int
	dropNth  uint64
	dropSeen uint64

	// Delivered counts the packets Pop handed out.
	Delivered uint64

	// DepthHist, when non-nil, observes a port's queued-packet count at
	// every injection (the depth including the new packet). Installed by
	// the simulator's metrics layer; the hot path pays one nil check.
	DepthHist *metrics.Histogram
}

// NewCrossbar builds a crossbar with the given number of output ports
// and pipeline latency in core cycles. Each packet occupies its output
// port for occupancy cycles (its flit count: a 64-byte data reply is
// two 32-byte flits, a request header one).
func NewCrossbar(ports int, latency, occupancy int) (*Crossbar, error) {
	if err := validate(ports, latency, occupancy); err != nil {
		return nil, err
	}
	x := &Crossbar{
		latency:   int64(latency),
		occupancy: int64(occupancy),
		ports:     make([]ringbuf.Ring[packet], ports),
		nextSlot:  make([]int64, ports),
		due:       make([]int64, ports),
	}
	x.Reset()
	return x, nil
}

func validate(ports, latency, occupancy int) error {
	switch {
	case ports <= 0:
		return fmt.Errorf("icnt: ports %d must be positive", ports)
	case latency < 1:
		return fmt.Errorf("icnt: latency %d must be >= 1", latency)
	case occupancy < 1:
		return fmt.Errorf("icnt: occupancy %d must be >= 1", occupancy)
	}
	return nil
}

// InjectDrop arms the crossbar's test-only fault seam
// (internal/faultinject): the nth push (1-based) toward output port
// dst is silently swallowed — the packet never arrives and no error is
// raised, modeling a lost reply. The push counter resets with the
// crossbar (Reset), so nth counts the current launch's pushes; the
// armed state itself survives Reset.
func (x *Crossbar) InjectDrop(dst int, nth uint64) {
	x.dropPort = dst
	x.dropNth = nth
	x.dropSeen = 0
}

// Push injects a request toward output port dst at cycle now.
func (x *Crossbar) Push(dst int, r *mem.Request, now int64) {
	if dst < 0 || dst >= len(x.ports) {
		panic(fmt.Sprintf("icnt: push to port %d of %d", dst, len(x.ports)))
	}
	if x.dropNth > 0 && dst == x.dropPort {
		x.dropSeen++
		if x.dropSeen == x.dropNth {
			return // fault injected: the packet vanishes
		}
	}
	x.ports[dst].Push(packet{req: r, readyAt: now + x.latency})
	if x.ports[dst].Len() == 1 {
		x.due[dst] = max(now+x.latency, x.nextSlot[dst])
	}
	if x.DepthHist != nil {
		x.DepthHist.Observe(int64(x.ports[dst].Len()))
	}
}

// Pop returns at most one request deliverable at port dst on cycle
// now, honoring in-order delivery, pipeline latency, and port
// bandwidth. It returns nil when nothing is deliverable.
func (x *Crossbar) Pop(dst int, now int64) *mem.Request {
	if now < x.due[dst] {
		return nil // the common case, kept small enough to inline
	}
	return x.pop(dst, now)
}

func (x *Crossbar) pop(dst int, now int64) *mem.Request {
	q := &x.ports[dst]
	head := q.Pop()
	x.nextSlot[dst] = now + x.occupancy
	x.Delivered++
	x.setDue(dst)
	return head.req
}

// setDue recomputes port dst's due cycle from its head and nextSlot.
func (x *Crossbar) setDue(dst int) {
	x.due[dst] = math.MaxInt64
	if q := &x.ports[dst]; q.Len() > 0 {
		x.due[dst] = max(q.Peek().readyAt, x.nextSlot[dst])
	}
}

// NextDeliverable returns the earliest cycle at which port dst could
// deliver its head packet, or math.MaxInt64 when the port is empty.
// Packets are queued in injection order, so the head carries the
// minimum readyAt; the port's bandwidth slot can only push delivery
// later. This is the port's event horizon for fast-forwarding: no
// cycle strictly before the returned value can observe a delivery.
func (x *Crossbar) NextDeliverable(dst int) int64 { return x.due[dst] }

// Pending returns the number of packets queued for port dst.
func (x *Crossbar) Pending(dst int) int { return x.ports[dst].Len() }

// Idle reports whether no packets are queued on any port.
func (x *Crossbar) Idle() bool {
	for i := range x.ports {
		if x.ports[i].Len() > 0 {
			return false
		}
	}
	return true
}

// Ports returns the number of output ports.
func (x *Crossbar) Ports() int { return len(x.ports) }

// Snapshot is a crossbar's complete mid-launch state, captured for
// copy-on-write prefix forking. Queued packets reference requests as
// indices into the caller's interned request table, so a snapshot
// stays valid — and shareable across forks — after the live request
// arena is reused.
type Snapshot struct {
	ports     [][]snapPacket
	nextSlot  []int64
	delivered uint64
	dropSeen  uint64
}

type snapPacket struct {
	req     int
	readyAt int64
}

// Snapshot captures the crossbar's state; intern maps each in-flight
// *mem.Request to a stable index in the caller's request table.
func (x *Crossbar) Snapshot(intern func(*mem.Request) int) *Snapshot {
	s := &Snapshot{
		ports:     make([][]snapPacket, len(x.ports)),
		nextSlot:  append([]int64(nil), x.nextSlot...),
		delivered: x.Delivered,
		dropSeen:  x.dropSeen,
	}
	var scratch []packet
	for i := range x.ports {
		scratch = x.ports[i].Snapshot(scratch[:0])
		for _, p := range scratch {
			s.ports[i] = append(s.ports[i], snapPacket{req: intern(p.req), readyAt: p.readyAt})
		}
	}
	return s
}

// Restore rewinds the crossbar to the snapshot, materializing queued
// packets' requests through req (interned index → fresh live request).
// The crossbar must have the snapshot's port count, which
// fork-compatibility checks guarantee upstream.
func (x *Crossbar) Restore(s *Snapshot, req func(int) *mem.Request) {
	if len(x.ports) != len(s.ports) {
		panic(fmt.Sprintf("icnt: restore across port counts (%d != %d)", len(x.ports), len(s.ports)))
	}
	for i := range x.ports {
		x.ports[i].Reset()
		for _, p := range s.ports[i] {
			x.ports[i].Push(packet{req: req(p.req), readyAt: p.readyAt})
		}
	}
	copy(x.nextSlot, s.nextSlot)
	for i := range x.ports {
		x.setDue(i)
	}
	x.Delivered = s.delivered
	x.dropSeen = s.dropSeen
}

// Reset drops all queued packets and bandwidth state, keeping the port
// buffers for reuse, so one crossbar can serve many launches without
// reallocating.
func (x *Crossbar) Reset() {
	for i := range x.ports {
		x.ports[i].Reset()
		x.nextSlot[i] = 0
		x.due[i] = math.MaxInt64
	}
	x.Delivered = 0
	x.dropSeen = 0
}

// Slots is one direction of the interconnect whose receiver acts on
// each packet's delivery cycle alone: it books every packet's slot at
// injection and queues nothing. Its deliveries are exactly a
// Crossbar's, polled every cycle, for the same injections.
type Slots struct {
	latency   int64
	occupancy int64
	// nextSlot[p] is the next cycle at which port p may deliver.
	nextSlot []int64
	// DepthHist, when non-nil, observes a port's booked and not yet
	// delivered slots at every injection (the depth including the new
	// one), which reserved tracks only while DepthHist is installed.
	// Installed by the simulator's metrics layer.
	DepthHist *metrics.Histogram
	reserved  []ringbuf.Ring[int64]
}

// NewSlots builds a request direction with the given number of output
// ports, latency and per-packet occupancy, as NewCrossbar.
func NewSlots(ports int, latency, occupancy int) (*Slots, error) {
	if err := validate(ports, latency, occupancy); err != nil {
		return nil, err
	}
	return &Slots{
		latency:   int64(latency),
		occupancy: int64(occupancy),
		nextSlot:  make([]int64, ports),
		reserved:  make([]ringbuf.Ring[int64], ports),
	}, nil
}

// Reserve books port dst's next delivery slot for a packet injected at
// cycle now and returns its delivery cycle: exactly the cycle a
// Crossbar's Pop polled every cycle would deliver it, had it been
// pushed instead.
func (x *Slots) Reserve(dst int, now int64) int64 {
	at := max(now+x.latency, x.nextSlot[dst])
	x.nextSlot[dst] = at + x.occupancy
	if x.DepthHist != nil {
		// Slots delivered before this cycle have left the port; one
		// delivered at now is still queued while injections run.
		q := &x.reserved[dst]
		for q.Len() > 0 && q.Peek() < now {
			q.Pop()
		}
		q.Push(at)
		x.DepthHist.Observe(int64(q.Len()))
	}
	return at
}

// NextReserved returns the first cycle after now at which port dst
// delivers a booked slot, or math.MaxInt64 when none is booked. It
// sees only the slots booked while DepthHist was installed.
func (x *Slots) NextReserved(dst int, now int64) int64 {
	q := &x.reserved[dst]
	for q.Len() > 0 && q.Peek() <= now {
		q.Pop()
	}
	if q.Len() == 0 {
		return math.MaxInt64
	}
	return q.Peek()
}

// Snapshot returns the ports' next free slots: with nothing queued,
// they are the direction's whole mid-launch state, apart from the
// DepthHist bookkeeping.
func (x *Slots) Snapshot() []int64 { return append([]int64(nil), x.nextSlot...) }

// Restore rewinds the ports to a Snapshot of a direction with as many
// ports.
func (x *Slots) Restore(nextSlot []int64) {
	if len(x.nextSlot) != len(nextSlot) {
		panic(fmt.Sprintf("icnt: restore across port counts (%d != %d)", len(x.nextSlot), len(nextSlot)))
	}
	x.Reset()
	copy(x.nextSlot, nextSlot)
}

// Reset frees every port, keeping the buffers for reuse.
func (x *Slots) Reset() {
	clear(x.nextSlot)
	for i := range x.reserved {
		x.reserved[i].Reset()
	}
}
