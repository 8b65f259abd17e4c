package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
)

// ComputeCell runs exactly one cell of experiment id's grid — the cell
// whose stable key is key — and returns its canonical JSON encoding,
// byte-identical to what a full local run would journal for it. This
// is the worker side of distributed sweeps: a leased cell names its
// experiment and key, and the worker recomputes just that cell.
//
// The implementation drives the ordinary experiment runner with a
// capturing executor: the driver enumerates its grid as usual, the
// executor runs only the requested cell, and the rest of the driver is
// abandoned. Grid enumeration is cheap (no simulation happens before
// execution), so the overhead over a hand-rolled per-experiment
// dispatch is negligible — and no experiment needs per-cell plumbing
// of its own.
//
// The captured cell runs through RunBatch with o.Cache as its results
// store, like every other executor: a cell the store holds is answered
// by its ID without computing, and a computed cell is stored under it.
// Store hits and misses are reported to o.Telemetry. A nil o.Cache
// computes the cell and records nothing.
func ComputeCell(id string, o Options, key string) (json.RawMessage, error) {
	cap := &captureExec{key: key}
	o.Exec = cap
	// A single-cell computation owns no run journal or progress.
	o.Journal = nil
	o.Progress = nil
	_, runErr := Run(id, o)
	if cap.found {
		if cap.err != nil {
			return nil, cap.err
		}
		return cap.raw, nil
	}
	if runErr != nil && !errors.Is(runErr, errCellCaptured) {
		return nil, runErr
	}
	return nil, fmt.Errorf("experiments: %s has no grid cell %q", id, key)
}

// errCellCaptured aborts an experiment driver once the capturing
// executor has what it came for (or knows the batch lacks it). It
// deliberately surfaces through the driver's error path: the driver's
// post-processing needs the full grid, which a single-cell run never
// produces.
var errCellCaptured = errors.New("experiments: cell captured; driver abandoned")

// captureExec runs the one cell matching key through RunBatch and
// aborts the driver. Relies on the CellExec contract that a driver
// enumerates its full grid in one batch: a key absent from the batch
// is absent from the experiment.
type captureExec struct {
	key   string
	found bool
	raw   json.RawMessage
	err   error
}

func (c *captureExec) ExecCells(o Options, cells []GridCell) ([]json.RawMessage, error) {
	for _, cell := range cells {
		if cell.Key != c.key {
			continue
		}
		c.found = true
		raws, err := RunBatch(o, nil, o.Cache, []GridCell{cell}, func(b Batch, done func(int, json.RawMessage) error) error {
			if len(b.Todo) == 0 {
				return nil // answered by the store
			}
			raw, err := cell.Run()
			if err != nil {
				return err
			}
			return done(0, raw)
		})
		if c.err = err; err == nil {
			c.raw = raws[0]
		}
		break
	}
	return nil, errCellCaptured
}
