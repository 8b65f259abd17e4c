// Package tracevis exports the gpusim event stream as Chrome
// trace-event JSON — the format Perfetto (ui.perfetto.dev) and
// chrome://tracing load directly. One simulated cycle maps to one
// microsecond of trace time, so the viewer's time axis reads in
// cycles.
//
// The exporter renders two processes:
//
//   - pid 0 "SM cores": one thread row per SM, carrying instruction
//     issues, subwarp-coalesce events (with the Algorithm-1 group
//     count), transaction injections, reply deliveries, and warp
//     retirements as instant events.
//   - pid 1 "DRAM partitions": one thread row per memory partition,
//     carrying each serviced transaction as a complete ("X") span from
//     controller arrival to data return.
//
// An Exporter implements gpusim.TraceSink. Emit is mutex-guarded so
// parallel experiment cells may share one exporter; within a single
// simulation the lock is uncontended and costs one atomic pair per
// event.
package tracevis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"rcoal/internal/atomicio"
	"rcoal/internal/gpusim"
)

// Process ids of the exported track groups.
const (
	// PidSM is the process holding one thread row per SM.
	PidSM = 0
	// PidDRAM is the process holding one thread row per partition.
	PidDRAM = 1
)

// Exporter buffers simulator events and writes them as Chrome
// trace-event JSON. The zero value is ready to use.
type Exporter struct {
	mu     sync.Mutex
	events []gpusim.Event
}

// New returns an empty exporter.
func New() *Exporter { return &Exporter{} }

// Emit implements gpusim.TraceSink.
func (x *Exporter) Emit(e gpusim.Event) {
	x.mu.Lock()
	x.events = append(x.events, e)
	x.mu.Unlock()
}

// Len returns the number of buffered events.
func (x *Exporter) Len() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return len(x.events)
}

// Reset discards all buffered events, keeping the exporter usable.
func (x *Exporter) Reset() {
	x.mu.Lock()
	x.events = x.events[:0]
	x.mu.Unlock()
}

// TraceEvent is one Chrome trace-event JSON object. Dur is a pointer
// so complete events always carry it (a zero-cycle service is still a
// span) while instant and metadata events omit it.
type TraceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  *int64         `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// File is the top-level JSON object. OtherData carries free-form
// file-level metadata (the fleet trace stores its trace id there);
// it is omitted when empty, so single-process exports are unchanged.
type File struct {
	TraceEvents     []TraceEvent   `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// Export writes the buffered events as one Chrome trace JSON object:
// metadata (track naming) first, then all timeline events sorted by
// timestamp. The buffer is left intact, so a long experiment can
// export intermediate traces.
func (x *Exporter) Export(w io.Writer) error {
	x.mu.Lock()
	events := append([]gpusim.Event(nil), x.events...)
	x.mu.Unlock()

	out := File{DisplayTimeUnit: "ms", TraceEvents: []TraceEvent{
		Meta("process_name", PidSM, 0, "SM cores"),
		Meta("process_sort_index", PidSM, 0, 0),
		Meta("process_name", PidDRAM, 0, "DRAM partitions"),
		Meta("process_sort_index", PidDRAM, 0, 1),
	}}

	// Name each track row that actually appears.
	smSeen, partSeen := map[int]bool{}, map[int]bool{}
	for _, e := range events {
		if e.Kind == gpusim.EvDRAMService {
			if !partSeen[e.Part] {
				partSeen[e.Part] = true
				out.TraceEvents = append(out.TraceEvents,
					Meta("thread_name", PidDRAM, e.Part, fmt.Sprintf("partition %d", e.Part)))
			}
			continue
		}
		if !smSeen[e.SM] {
			smSeen[e.SM] = true
			out.TraceEvents = append(out.TraceEvents,
				Meta("thread_name", PidSM, e.SM, fmt.Sprintf("sm %d", e.SM)))
		}
	}

	timeline := make([]TraceEvent, 0, len(events))
	for _, e := range events {
		timeline = append(timeline, convert(e))
	}
	// Chrome trace JSON wants events in timestamp order; keep emission
	// order among equal timestamps for determinism.
	sort.SliceStable(timeline, func(i, j int) bool { return timeline[i].Ts < timeline[j].Ts })
	out.TraceEvents = append(out.TraceEvents, timeline...)

	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// WriteFile exports the trace atomically to path: a failed export
// leaves path as it was.
func (x *Exporter) WriteFile(path string) error {
	var buf bytes.Buffer
	if err := x.Export(&buf); err != nil {
		return err
	}
	return atomicio.WriteFile(path, buf.Bytes(), 0o644)
}

// Meta builds one metadata ("M") record naming or ordering a track.
// Besides the two process_* kinds and thread_name/thread_sort_index,
// Chrome also understands process_labels (badges next to the process
// name — the fleet trace uses it to flag stragglers).
func Meta(name string, pid, tid int, arg any) TraceEvent {
	key := "name"
	switch name {
	case "process_sort_index", "thread_sort_index":
		key = "sort_index"
	case "process_labels":
		key = "labels"
	}
	return TraceEvent{Name: name, Ph: "M", Pid: pid, Tid: tid, Args: map[string]any{key: arg}}
}

// convert maps one simulator event onto its trace representation.
func convert(e gpusim.Event) TraceEvent {
	switch e.Kind {
	case gpusim.EvDRAMService:
		// A complete span on the partition's row: arrival to data
		// return. Events are emitted at completion, so the span starts
		// N cycles back.
		dur := e.N
		return TraceEvent{
			Name: "service", Ph: "X", Ts: e.Cycle - e.N, Dur: &dur,
			Pid: PidDRAM, Tid: e.Part,
			Args: map[string]any{"addr": fmt.Sprintf("%#x", e.Addr)},
		}
	case gpusim.EvCoalesce:
		return instant(e, map[string]any{"warp": e.Warp, "round": e.Round, "tx": e.N})
	case gpusim.EvIssue:
		return instant(e, map[string]any{"warp": e.Warp, "pc": e.PC})
	case gpusim.EvMemTx:
		return instant(e, map[string]any{"warp": e.Warp, "round": e.Round, "addr": fmt.Sprintf("%#x", e.Addr)})
	default: // EvReply, EvRetire, and any future kinds
		return instant(e, map[string]any{"warp": e.Warp})
	}
}

// instant builds a thread-scoped instant event on the SM's row.
func instant(e gpusim.Event, args map[string]any) TraceEvent {
	return TraceEvent{
		Name: e.Kind.String(), Ph: "i", Ts: e.Cycle,
		Pid: PidSM, Tid: e.SM, S: "t", Args: args,
	}
}
