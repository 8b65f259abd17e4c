package gpusim

import (
	"fmt"
	"io"
)

// Event tracing: an optional sink receiving the simulator's timeline
// (instruction issues, transaction injections, reply deliveries, warp
// retirements). Tracing is for debugging kernels and validating timing
// behaviour; it is off unless a sink is installed on the Config, and
// the hot path pays only a nil check.

// EventKind classifies trace events.
type EventKind uint8

const (
	// EvIssue: a warp issued an instruction.
	EvIssue EventKind = iota
	// EvMemTx: the MCU emitted one coalesced transaction.
	EvMemTx
	// EvReply: a memory reply reached its SM.
	EvReply
	// EvRetire: a warp completed.
	EvRetire
	// EvCoalesce: the MCU ran Algorithm 1 on one warp-wide memory
	// instruction, splitting it into N subwarp-coalesced transactions.
	EvCoalesce
	// EvDRAMService: a memory partition's DRAM serviced one
	// transaction. It is emitted when the request is scheduled, as it
	// leaves its SM; Cycle is the cycle its data returns, and N the
	// cycles between the request arriving at the controller and then.
	EvDRAMService
)

// NumEventKinds is the number of distinct event kinds, for sinks that
// tally by kind.
const NumEventKinds = 6

func (k EventKind) String() string {
	switch k {
	case EvIssue:
		return "issue"
	case EvMemTx:
		return "memtx"
	case EvReply:
		return "reply"
	case EvRetire:
		return "retire"
	case EvCoalesce:
		return "coalesce"
	case EvDRAMService:
		return "dram"
	}
	return "unknown"
}

// Event is one simulator timeline entry.
type Event struct {
	Cycle int64
	Kind  EventKind
	SM    int
	Warp  int
	// PC is the warp's program counter (EvIssue only).
	PC int
	// Addr is the block-aligned address (EvMemTx / EvReply /
	// EvDRAMService).
	Addr uint64
	// Round is the AES round tag, when applicable.
	Round int
	// Part is the memory partition (EvDRAMService only).
	Part int
	// N is the event's magnitude: coalesced-transaction count for
	// EvCoalesce, service duration in cycles for EvDRAMService.
	N int64
}

// TraceSink receives simulator events. Implementations must be cheap;
// they run inline with the simulation.
type TraceSink interface {
	Emit(Event)
}

// WriterSink streams events as one line of text each, suitable for
// grepping or downstream parsing.
type WriterSink struct {
	W io.Writer
	// Err records the first write error; subsequent events are dropped.
	Err error
}

// Emit implements TraceSink.
func (s *WriterSink) Emit(e Event) {
	if s.Err != nil {
		return
	}
	_, s.Err = fmt.Fprintf(s.W, "cycle=%d kind=%s sm=%d warp=%d pc=%d addr=%#x round=%d part=%d n=%d\n",
		e.Cycle, e.Kind, e.SM, e.Warp, e.PC, e.Addr, e.Round, e.Part, e.N)
}

// CountingSink tallies events by kind — used in tests and quick
// profiling.
type CountingSink struct {
	Counts [NumEventKinds]uint64
}

// Emit implements TraceSink.
func (s *CountingSink) Emit(e Event) {
	if int(e.Kind) < len(s.Counts) {
		s.Counts[e.Kind]++
	}
}
