package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"

	"rcoal/internal/checkpoint"
	"rcoal/internal/runner"
)

// journalMeta fingerprints the options that determine a cell's
// result. Experiment names what is computed: the experiment id of a
// run journal (see OpenJournal), or the namespace of a grid's cell
// function (see runCells), which is shared by every experiment that
// computes the same cells. Resuming a journal whose fingerprint
// differs from the current run would splice together results from
// incompatible configurations, so checkpoint.Resume rejects the
// mismatch.
type journalMeta struct {
	// Format versions the cell encoding, so journals and stored cells
	// of an older encoding never decode into the current one.
	Format     int    `json:"format"`
	Experiment string `json:"experiment"`
	Samples    int    `json:"samples"`
	Lines      int    `json:"lines"`
	Seed       uint64 `json:"seed"`
	// KeyHash fingerprints the AES key without writing it to disk.
	KeyHash string `json:"keyHash"`
	// Mechanisms is the explicit defense-spec filter of mechanism-
	// enumerating experiments. omitempty keeps the fingerprints of
	// every pre-existing experiment (and of default frontier runs)
	// unchanged.
	Mechanisms []string `json:"mechanisms,omitempty"`
}

// cellFormat is 2 since Sweep and Fig18 cells measure canonical specs.
const cellFormat = 2

func metaFor(id string, o Options) journalMeta {
	h := fnv.New64a()
	h.Write(o.Key)
	return journalMeta{
		Format:     cellFormat,
		Experiment: id,
		Samples:    o.Samples,
		Lines:      o.Lines,
		Seed:       o.Seed,
		KeyHash:    fmt.Sprintf("%016x", h.Sum64()),
		Mechanisms: o.Mechanisms,
	}
}

// Fingerprint returns the 16-hex-digit fingerprint of the
// result-determining options for the experiment or cell namespace ns —
// the identity under which cell results may be shared across runs,
// machines, and sweeps.
func Fingerprint(ns string, o Options) string {
	b, err := json.Marshal(metaFor(ns, o))
	if err != nil {
		// journalMeta is a flat struct of marshalable fields; this
		// cannot fail for any Options value.
		panic(err)
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// OpenJournal opens (resume) or creates the checkpoint journal for
// experiment id at path, fingerprinted with the result-determining
// options. Attach the returned journal to Options.Journal so the
// experiment's cells are checkpointed as they complete and journaled
// cells are restored instead of re-run.
func OpenJournal(path, id string, o Options, resume bool) (*checkpoint.Journal, error) {
	meta := metaFor(id, o)
	if resume {
		return checkpoint.Resume(path, meta)
	}
	return checkpoint.Create(path, meta)
}

// cacheMeta is the meta line of a results store file. It only tags
// the format: every stored cell's ID already carries the fingerprint
// of the options it was computed under.
var cacheMeta = struct {
	Schema string `json:"schema"`
}{Schema: "rcoal-cells/1"}

// OpenCache opens (creating as needed) the file-backed results store
// under dir. Unlike a run's checkpoint journal — one per experiment,
// truncated on a fresh start — the store is append-only across runs
// and shared by every experiment: cells are stored under their
// content address (GridCell.ID), so any sweep, local or distributed,
// that computed a cell under identical result-determining options has
// already paid for it, and later sweeps restore it for free. Attach
// the returned journal to Options.Cache (or pass it to the
// distributed executor).
//
// The store file is single-writer: one process (a coordinator or a
// local sweep) may have it open at a time.
func OpenCache(dir string) (*checkpoint.Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("experiments: creating cache dir: %w", err)
	}
	return checkpoint.Resume(filepath.Join(dir, "cells.cache"), cacheMeta)
}

// GridCell is one enumerated cell of a cell-parallel experiment: a
// stable key plus a closure that computes the cell and returns its
// canonical JSON encoding — exactly the bytes the checkpoint journal
// stores, so a computed, journaled, cached, or remotely executed cell
// all round-trip identically.
type GridCell struct {
	// Index is the cell's position in the experiment's grid.
	Index int
	// Key identifies the cell within its experiment: the run journal
	// and the distributed lease protocol address cells by it. Keys
	// are only unique per experiment — different experiments may
	// reuse a key for different computations.
	Key string
	// ID is the cell's content address: the fingerprint of its cell
	// namespace and result-determining options, then what the cell
	// computes — Key, or in the subwarp-family grids the canonical
	// defense spec it measures. Cells with equal IDs compute equal
	// bytes, whichever experiment or row enumerates them, so the
	// results store (Options.Cache) is keyed by ID and answers a cell
	// one experiment computed for every other, and a batch may repeat
	// an ID.
	ID string
	// Run computes the cell. The result must depend only on the cell's
	// identity and the result-determining Options (never on scheduling,
	// location, or worker count) — the property that makes cells
	// location-independent and distributed execution byte-identical.
	Run func() (json.RawMessage, error)
}

// CellExec executes one enumerated batch of grid cells and returns
// each cell's JSON result in order. It is the seam that decouples grid
// enumeration from execution: the default local executor fans cells
// out over the in-process worker pool, while internal/dist's executor
// leases them to remote workers. Both run the batch through RunBatch,
// the one ledger of what is restored, shared and recorded; runCells
// only unmarshals.
//
// Every current experiment enumerates its full grid in a single batch
// (one runCells call per driver); executors may rely on that.
type CellExec interface {
	ExecCells(o Options, cells []GridCell) ([]json.RawMessage, error)
}

// Batch is the part of a grid batch RunBatch leaves its executor to
// compute, with the counts of what it answered instead.
type Batch struct {
	// Todo lists, in grid order, the indices of the cells to compute.
	Todo []int
	// Restored counts the cells the run journal answered by key.
	Restored int
	// CacheHits counts the cells answered by ID: from the results
	// store, from a concurrent batch computing the same ID, or from an
	// earlier cell of the batch with the same ID.
	CacheHits int
	// CacheMisses counts the cells the store was asked for and lacked.
	CacheMisses int
}

// RunBatch is the cell ledger every executor runs a grid batch
// through; compute does the rest. Cells already in the run journal are
// restored by key; cells in the results store are copied into the
// journal and restored by ID; a cell whose ID an earlier cell of the
// batch, or a concurrent batch on the same store, is computing takes
// those bytes once they exist, is journaled under its own key, and
// counts as a store hit. If that concurrent batch fails, so does this
// one. Restores and store hits are reported to Telemetry outside the
// rate window.
//
// compute must compute the cells of b.Todo and hand each result to
// done(i, raw), where i indexes cells. done may be called from any
// goroutine. It stores the bytes under the cell's ID, journals them
// first-writer-wins under the key of the cell and of every repeat of
// it, and reports Progress, which counts a repeat with the cell it
// waits for.
//
// A run with a trace sink or a fault hook neither reads nor writes the
// store, nor shares bytes between cells of a batch: the sink is
// promised the events of every launch, and the fault hook names the
// cells that must run.
func RunBatch(o Options, journal, store *checkpoint.Journal, cells []GridCell,
	compute func(b Batch, done func(i int, raw json.RawMessage) error) error) ([]json.RawMessage, error) {

	if o.Trace != nil || o.faultHook != nil {
		store = nil
	}
	raws := make([]json.RawMessage, len(cells))
	// take gives cell i its bytes and journals them, so the run's
	// ledger stays complete for a later resume.
	take := func(i int, raw json.RawMessage) error {
		raws[i] = raw
		if journal == nil {
			return nil
		}
		_, err := journal.RecordOnce(cells[i].Key, raw)
		return err
	}
	b := Batch{Todo: make([]int, 0, len(cells))}
	first := map[string]int{} // ID -> first cell of the batch with it
	// repeats maps a first cell not yet answered to the later cells
	// with its ID, led by itself when another batch on the store has
	// claimed it (waits). A batch waits only after releasing its own
	// claims, so two batches never wait on each other.
	repeats := map[int][]int{}
	waits := make([]<-chan struct{}, len(cells))
	for i, c := range cells {
		f, repeat := first[c.ID]
		if !repeat {
			f, first[c.ID] = i, i
		}
		if journal != nil {
			if raw, ok := journal.Lookup(c.Key); ok {
				raws[i] = raw
				b.Restored++
				continue
			}
		}
		if store == nil {
			b.Todo = append(b.Todo, i)
			continue
		}
		raw := raws[f]
		if !repeat {
			var wait <-chan struct{}
			if raw, wait = store.Claim(c.ID); wait != nil {
				waits[i] = wait
			} else if raw == nil {
				b.CacheMisses++
				b.Todo = append(b.Todo, i)
				continue
			}
		}
		b.CacheHits++
		if raw == nil {
			repeats[f] = append(repeats[f], i)
		} else if err := take(i, raw); err != nil {
			return nil, err
		}
	}
	pending := 0
	for _, f := range b.Todo {
		pending += len(repeats[f])
	}
	if t := o.Telemetry; t != nil {
		if n := b.Restored + b.CacheHits; n > 0 {
			t.AddRestored(n)
		}
		for range b.CacheHits {
			t.AddCacheHit()
		}
		for range b.CacheMisses {
			t.AddCacheMiss()
		}
	}

	var mu sync.Mutex
	computed := 0
	done := func(i int, raw json.RawMessage) error {
		if store != nil {
			if _, err := store.RecordOnce(cells[i].ID, raw); err != nil {
				return err
			}
		}
		for _, k := range append([]int{i}, repeats[i]...) {
			if err := take(k, raw); err != nil {
				return err
			}
		}
		if o.Progress != nil {
			mu.Lock()
			computed += 1 + len(repeats[i])
			o.Progress(computed, len(b.Todo)+pending)
			mu.Unlock()
		}
		return nil
	}
	err := func() error {
		if store != nil { // every cell of b.Todo holds a claim
			defer func() {
				for _, i := range b.Todo {
					store.Release(cells[i].ID)
				}
			}()
		}
		return compute(b, done)
	}()
	if err != nil {
		return nil, err
	}
	for f, wait := range waits {
		if wait == nil {
			continue
		}
		<-wait
		raw, ok := store.Lookup(cells[f].ID)
		if !ok {
			return nil, fmt.Errorf("experiments: cell %s: the concurrent run computing it failed", cells[f].Key)
		}
		for _, k := range repeats[f] {
			if err := take(k, raw); err != nil {
				return nil, err
			}
		}
	}
	return raws, nil
}

// localExec is the default executor: RunBatch over the run's journal
// and store, with the cells to compute fanned out over the pool, which
// recovers a panicking cell into an error.
type localExec struct{}

func (localExec) ExecCells(o Options, cells []GridCell) ([]json.RawMessage, error) {
	return RunBatch(o, o.Journal, o.Cache, cells, func(b Batch, done func(int, json.RawMessage) error) error {
		pool := runner.Pool{Workers: o.Workers, Telemetry: o.Telemetry}
		return pool.MapN(context.Background(), len(b.Todo), func(_ context.Context, ti int) error {
			i := b.Todo[ti]
			if o.faultHook != nil {
				if err := o.faultHook(cells[i].Index); err != nil {
					return err
				}
			}
			raw, err := cells[i].Run()
			if err != nil {
				return err
			}
			return done(i, raw)
		})
	})
}

// runCells is the evaluation loop every cell-parallel experiment runs
// on. It enumerates the grid — each item becomes a GridCell with a
// stable key, a content address, and a closure producing canonical
// JSON — and hands the batch to the configured executor (Options.Exec,
// defaulting to the local pool). Results land in item order, and
// because every path through an executor round-trips the same
// encoding/json bytes, a resumed, cached, or distributed run's output
// is byte-identical to a plain single-process one.
//
// ns names the cell function for the content address (GridCell.ID): it
// must change whenever fn computes something different for the same
// (o, item) — so it holds the experiment id plus every parameter fn
// reads beyond them — and it is shared by experiments whose cells are
// the same computation (Figs. 15-17 all pass "sweep").
func runCells[T, R any](o Options, ns string, items []T,
	key func(item T) string,
	fn func(item T) (R, error)) ([]R, error) {

	keys := make([]string, len(items))
	for i, item := range items {
		keys[i] = key(item)
	}
	return execCells(o, ns, keys, keys, func(i int) (R, error) { return fn(items[i]) })
}

// execCells is runCells over cells given by their keys and addresses:
// cell i is journaled under keys[i] and content-addressed by ns and
// addrs[i], and fn(i) must depend on (o, ns, addrs[i]) alone.
func execCells[R any](o Options, ns string, keys, addrs []string,
	fn func(i int) (R, error)) ([]R, error) {

	fp := Fingerprint(ns, o)
	cells := make([]GridCell, len(keys))
	for i, k := range keys {
		cells[i] = GridCell{
			Index: i,
			Key:   k,
			ID:    fp + "/" + addrs[i],
			Run: func() (json.RawMessage, error) {
				r, err := fn(i)
				if err != nil {
					return nil, err
				}
				raw, err := json.Marshal(r)
				if err != nil {
					return nil, fmt.Errorf("experiments: encoding cell %q: %w", k, err)
				}
				return raw, nil
			},
		}
	}

	var exec CellExec = localExec{}
	if o.Exec != nil {
		exec = o.Exec
	}
	raws, err := exec.ExecCells(o, cells)
	if err != nil {
		return nil, err
	}
	if len(raws) != len(cells) {
		return nil, fmt.Errorf("experiments: executor returned %d results for %d cells", len(raws), len(cells))
	}
	out := make([]R, len(cells))
	for i, raw := range raws {
		if err := json.Unmarshal(raw, &out[i]); err != nil {
			return nil, fmt.Errorf("experiments: decoding cell %q: %w", cells[i].Key, err)
		}
	}
	return out, nil
}
