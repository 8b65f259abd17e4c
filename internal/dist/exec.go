package dist

import (
	"encoding/json"
	"errors"

	"rcoal/internal/checkpoint"
	"rcoal/internal/experiments"
)

// Exec is the coordinator-side experiments.CellExec: it runs the batch
// through experiments.RunBatch, like the local executor, but instead of
// fanning the cells left to compute out over the local pool it
// registers them with the Server's lease state machine and blocks until
// remote workers have delivered every one (or one failed). Attach it
// to Options.Exec and run the experiment as usual — the driver cannot
// tell it is distributed.
type Exec struct {
	s  *Server
	id string
	// journal is the run journal and the durable lease ledger:
	// completed cells restore, the rest lease out, and every lease and
	// completion is journaled.
	journal *checkpoint.Journal
	// cache, when non-nil, is the results store: cells any earlier
	// sweep or experiment computed, found by content address
	// (GridCell.ID), restore instead of leasing.
	cache *checkpoint.Journal
}

// NewExec prepares experiment id for distributed execution on s. The
// journal comes from experiments.OpenJournal; the cache is the run's
// results store (Options.Cache of the run that builds the Exec), so
// one store serves every experiment of a sweep. Either may be nil.
// Wire options are derived from the run's Options at ExecCells time.
func NewExec(s *Server, id string, journal, cache *checkpoint.Journal) *Exec {
	return &Exec{s: s, id: id, journal: journal, cache: cache}
}

// ExecCells implements experiments.CellExec. The enumerated closures
// are discarded — cells are recomputed remotely by key — which is
// exactly why GridCell keys must identify cells completely.
func (e *Exec) ExecCells(o experiments.Options, cells []experiments.GridCell) ([]json.RawMessage, error) {
	return experiments.RunBatch(o, e.journal, e.cache, cells, func(b experiments.Batch, done func(int, json.RawMessage) error) error {
		st, err := e.s.register(e, WireFrom(o), cells, b, done)
		if err != nil {
			return err
		}
		return e.s.wait(st)
	})
}

var errServerClosed = errors.New("dist: coordinator closed before the grid completed")
