package dist

import (
	"encoding/json"
	"errors"

	"rcoal/internal/checkpoint"
	"rcoal/internal/experiments"
)

// Exec is the coordinator-side experiments.CellExec: instead of
// fanning a grid batch out over the local pool, it registers the batch
// with the Server's lease state machine and blocks until remote
// workers have delivered every cell (or one failed). Attach it to
// Options.Exec and run the experiment as usual — the driver cannot
// tell it is distributed.
type Exec struct {
	s  *Server
	id string
	// journal is the durable work ledger: completed cells restore, the
	// rest lease out, and every lease and completion is journaled.
	journal *checkpoint.Journal
	// cache, when non-nil, is the results store: cells any earlier
	// sweep computed (experiments.OpenCache), found by content address
	// (GridCell.ID), restore instead of leasing.
	cache *checkpoint.Journal
	wire  WireOptions
}

// NewExec prepares experiment id for distributed execution on s. The
// journal and cache (either may be nil) come from
// experiments.OpenJournal / experiments.OpenCache; one cache may serve
// every experiment of a sweep. Options.Cache is not consulted. Wire
// options are derived from the run's Options at ExecCells time.
func NewExec(s *Server, id string, journal, cache *checkpoint.Journal) *Exec {
	return &Exec{s: s, id: id, journal: journal, cache: cache}
}

// ExecCells implements experiments.CellExec. The enumerated closures
// are discarded — cells are recomputed remotely by key — which is
// exactly why GridCell keys must identify cells completely.
func (e *Exec) ExecCells(o experiments.Options, cells []experiments.GridCell) ([]json.RawMessage, error) {
	e.wire = WireFrom(o)
	st, err := e.s.register(e, cells)
	if err != nil {
		return nil, err
	}

	s := e.s
	s.mu.Lock()
	restored, cacheHits := 0, 0
	for _, c := range st.cells {
		if c.restored {
			restored++
		}
		if c.cacheHit {
			cacheHits++
		}
	}
	st.progress = o.Progress
	s.mu.Unlock()
	if o.Telemetry != nil {
		if restored+cacheHits > 0 {
			o.Telemetry.AddRestored(restored + cacheHits)
		}
		for i := 0; i < cacheHits; i++ {
			o.Telemetry.AddCacheHit()
		}
		if e.cache != nil {
			for i := 0; i < len(cells)-restored-cacheHits; i++ {
				o.Telemetry.AddCacheMiss()
			}
		}
	}

	s.mu.Lock()
	for !st.complete() && !s.closed {
		s.cond.Wait()
	}
	closed, failure := s.closed, st.failure
	var raws []json.RawMessage
	if failure == nil && !closed {
		raws = make([]json.RawMessage, len(st.cells))
		for i, c := range st.cells {
			raws[i] = c.raw
		}
	}
	s.mu.Unlock()

	if failure != nil {
		s.unregister(st)
		return nil, failure
	}
	if closed {
		s.unregister(st)
		return nil, errServerClosed
	}
	return raws, nil
}

var errServerClosed = errors.New("dist: coordinator closed before the grid completed")
