package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"sort"
	"sync/atomic"
	"testing"

	"rcoal/internal/gpusim"
	"rcoal/internal/runner"
)

// addressOptions is the tiny scale the content-address tests run at.
func addressOptions() Options {
	o := DefaultOptions()
	o.Samples = 4
	o.Lines = 2
	o.Workers = 1
	return o
}

// gridExec records every batch an experiment enumerates and aborts
// the driver without running a cell.
type gridExec struct{ cells []GridCell }

func (g *gridExec) ExecCells(_ Options, cells []GridCell) ([]json.RawMessage, error) {
	g.cells = append(g.cells, cells...)
	return nil, errCellCaptured
}

// cellRef names one cell by the experiment that enumerates it.
type cellRef struct{ exp, key string }

// TestCellAddressSoundness: a content address may be shared by several
// cells — rows of one experiment or of several — only if every one of
// them computes the same bytes. Every registered experiment's grid is
// enumerated (no cell runs); each ID that two or more rows share is
// computed for each of them and compared. The set relations pin the
// dedup of the paper's Figs. 15-17 grid and of the M = 1 rows, so it
// cannot silently disappear.
func TestCellAddressSoundness(t *testing.T) {
	o := addressOptions()
	// No store: every row's cell is computed, not answered by the first.
	o.Cache = nil
	byID := map[string][]cellRef{}
	rowsOf := map[string]int{}
	idsOf := map[string]map[string]bool{}
	for _, exp := range IDs() {
		g := &gridExec{}
		oo := o
		oo.Exec = g
		if _, err := Run(exp, oo); err != nil && !errors.Is(err, errCellCaptured) {
			t.Fatalf("%s: %v", exp, err)
		}
		idsOf[exp] = map[string]bool{}
		for _, c := range g.cells {
			if c.ID == "" {
				t.Fatalf("%s: cell %q has no ID", exp, c.Key)
			}
			idsOf[exp][c.ID] = true
			byID[c.ID] = append(byID[c.ID], cellRef{exp, c.Key})
			rowsOf[exp]++
		}
	}

	shared := 0
	ids := make([]string, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		refs := byID[id]
		if len(refs) < 2 {
			continue
		}
		shared++
		want, err := ComputeCell(refs[0].exp, o, refs[0].key)
		if err != nil {
			t.Fatalf("%s %s: %v", refs[0].exp, refs[0].key, err)
		}
		for _, r := range refs[1:] {
			got, err := ComputeCell(r.exp, o, r.key)
			if err != nil {
				t.Fatalf("%s %s: %v", r.exp, r.key, err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("ID %s: %s/%s computes %s, %s/%s computes %s",
					id, r.exp, r.key, got, refs[0].exp, refs[0].key, want)
			}
		}
	}
	if shared == 0 {
		t.Error("no experiments share a cell ID")
	}
	// Every family's M = 1 row shares the baseline's cell.
	for _, exp := range []string{"fig15", "fig16", "fig17", "fig18"} {
		if rows, ids := rowsOf[exp], len(idsOf[exp]); rows-ids != len(Families) {
			t.Errorf("%s: %d rows, %d IDs; want the %d M = 1 rows to repeat the baseline's",
				exp, rows, ids, len(Families))
		}
	}

	fig15, fig16, fig17 := idsOf["fig15"], idsOf["fig16"], idsOf["fig17"]
	if len(fig15) == 0 || len(fig15) != len(fig17) {
		t.Errorf("fig15 has %d IDs, fig17 %d; want equal and non-zero", len(fig15), len(fig17))
	}
	for id := range fig15 {
		if !fig17[id] {
			t.Errorf("fig15 ID %s missing from fig17", id)
		}
		if !fig16[id] {
			t.Errorf("fig15 ID %s missing from fig16", id)
		}
	}
}

// countSink counts simulator events by kind; safe for concurrent use.
type countSink struct {
	n [gpusim.NumEventKinds]atomic.Int64
}

func (c *countSink) Emit(e gpusim.Event) { c.n[e.Kind].Add(1) }

func (c *countSink) counts() [gpusim.NumEventKinds]int64 {
	var out [gpusim.NumEventKinds]int64
	for k := range out {
		out[k] = c.n[k].Load()
	}
	return out
}

// computedCells runs experiment id and returns its CSV and how many of
// its cells were computed rather than restored.
func computedCells(t *testing.T, id string, o Options) (string, int) {
	t.Helper()
	tel := runner.NewTelemetry()
	o.Telemetry = tel
	res, err := Run(id, o)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	s := tel.Stats()
	return res.(CSVer).CSV(), s.CellsDone - s.RestoredCells
}

// TestSharedCellsComputedOnce: Figs. 15, 16 and 17 run on one Options
// compute each shared cell once — the M = 1 rows share the baseline's
// cell — with byte-identical output; a trace sink or a fault hook
// bypasses the store so every row runs.
func TestSharedCellsComputedOnce(t *testing.T) {
	figs := []string{"fig15", "fig16", "fig17"}
	cells := func(o Options, want []int) (csvs []string) {
		t.Helper()
		for i, id := range figs {
			csv, n := computedCells(t, id, o)
			if n != want[i] {
				t.Errorf("%s computed %d cells, want %d", id, n, want[i])
			}
			csvs = append(csvs, csv)
		}
		return csvs
	}

	deduped := cells(addressOptions(), []int{17, 4, 0})

	o := addressOptions()
	shared := &countSink{}
	o.Trace = shared
	cells(o, []int{21, 25, 21})

	var fresh [gpusim.NumEventKinds]int64
	for i, id := range figs {
		o := addressOptions()
		sink := &countSink{}
		o.Trace = sink
		csv, _ := computedCells(t, id, o)
		if csv != deduped[i] {
			t.Errorf("%s: deduplicated CSV differs from a fresh run:\n%s\nvs\n%s", id, deduped[i], csv)
		}
		for k, n := range sink.counts() {
			fresh[k] += n
		}
	}
	if got := shared.counts(); got != fresh {
		t.Errorf("sink on one Options saw %v events, three fresh runs %v", got, fresh)
	}

	o = addressOptions()
	ran := 0
	o.faultHook = func(int) error { ran++; return nil }
	cells(o, []int{21, 25, 21})
	if ran != 67 {
		t.Errorf("fault hook saw %d cells, want 67", ran)
	}
}
