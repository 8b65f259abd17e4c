package main

import (
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"rcoal/internal/gpusim"
	"rcoal/internal/obs"
)

// Slots of a countShard beyond the per-kind event counts.
const (
	slotCoalescedTx = gpusim.NumEventKinds // Σ N over EvCoalesce
	slotDRAMCycles  = slotCoalescedTx + 1  // Σ N over EvDRAMService
	countSlots      = slotDRAMCycles + 1
	countShards     = 16
)

// countShard fills two 64-byte cache lines, so that wherever the array
// starts no two shards' counters share a line.
type countShard struct {
	n [countSlots]atomic.Uint64
	_ [128 - countSlots*8]byte
}

// countSink is a gpusim.TraceSink that tallies events exactly and is
// safe for the two cells a pool runs at once. Events pick a shard by
// cycle, which spreads two concurrent simulations' atomic adds over
// several cache lines instead of one.
type countSink struct{ shards [countShards]countShard }

// Emit implements gpusim.TraceSink.
func (c *countSink) Emit(e gpusim.Event) {
	s := &c.shards[uint64(e.Cycle)%countShards]
	if int(e.Kind) < gpusim.NumEventKinds {
		s.n[e.Kind].Add(1)
	}
	switch e.Kind {
	case gpusim.EvCoalesce:
		s.n[slotCoalescedTx].Add(uint64(e.N))
	case gpusim.EvDRAMService:
		s.n[slotDRAMCycles].Add(uint64(e.N))
	}
}

// simCounts are the exact simulated statistics of one workload run.
// A change that only speeds up the simulator must leave all of them
// unchanged.
type simCounts struct {
	Issues       uint64 `json:"issues"`
	CoalesceOps  uint64 `json:"coalesce_ops"`
	CoalescedTx  uint64 `json:"coalesced_tx"`
	MemTx        uint64 `json:"mem_tx"`
	Replies      uint64 `json:"replies"`
	DRAMServices uint64 `json:"dram_services"`
	DRAMCycles   uint64 `json:"dram_service_cycles"`
	WarpsRetired uint64 `json:"warps_retired"`
}

func (c *countSink) counts() simCounts {
	var tot [countSlots]uint64
	for i := range c.shards {
		for j := range tot {
			tot[j] += c.shards[i].n[j].Load()
		}
	}
	return simCounts{
		Issues:       tot[gpusim.EvIssue],
		CoalesceOps:  tot[gpusim.EvCoalesce],
		CoalescedTx:  tot[slotCoalescedTx],
		MemTx:        tot[gpusim.EvMemTx],
		Replies:      tot[gpusim.EvReply],
		DRAMServices: tot[gpusim.EvDRAMService],
		DRAMCycles:   tot[slotDRAMCycles],
		WarpsRetired: tot[gpusim.EvRetire],
	}
}

// Span tracks. Spans are recorded by the benchmark around its calls
// into the program, never inside it.
const (
	trackWorkload    = "workload"
	trackExperiments = "experiments"
	trackCells       = "cells"
	trackHTTP        = "http"
)

// procBench names the benchmark's own process in the span file; fleet
// workers appear as "worker <id>".
const procBench = "bench"

type procSpan struct {
	proc string
	obs.Span
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog
// records nothing, so untraced runs pay only a nil check.
type spanLog struct {
	mu    sync.Mutex
	spans []procSpan
}

func (l *spanLog) add(proc, track, name string, start, end time.Time, attrs map[string]string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, procSpan{proc, obs.Span{
		Track: track, Name: name, Start: start.UnixNano(), End: end.UnixNano(), Attrs: attrs,
	}})
	l.mu.Unlock()
}

// durations returns the lengths in seconds of the spans on track,
// optionally only those named name.
func (l *spanLog) durations(track, name string) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for _, s := range l.spans {
		if s.Track == track && (name == "" || s.Name == name) {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// write exports the spans as a Chrome/Perfetto trace in the tracevis
// schema shared with the rest of the repository.
func (l *spanLog) write(path, traceID string) error {
	ft := obs.NewFleetTrace(traceID)
	l.mu.Lock()
	for _, s := range l.spans {
		ft.Span(s.proc, s.Span)
	}
	l.mu.Unlock()
	return ft.WriteFile(path)
}

// spanTransport records one span per HTTP round trip a fleet worker
// makes to the coordinator.
type spanTransport struct {
	base http.RoundTripper
	log  *spanLog
	proc string
}

func (t *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	t.log.add(t.proc, trackHTTP, req.URL.Path, start, time.Now(), nil)
	return resp, err
}
